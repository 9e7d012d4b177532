#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"
#include "triage/oracle_suite.h"
#include "triage/triage.h"

namespace lego::fuzz {
namespace {

std::unique_ptr<core::LegoFuzzer> MakeLego(uint64_t seed) {
  core::LegoOptions options;
  options.rng_seed = seed;
  return std::make_unique<core::LegoFuzzer>(minidb::DialectProfile::PgLite(),
                                            options);
}

BackendOptions ConcurrentOptions(uint64_t seed) {
  BackendOptions options;
  options.kind = BackendKind::kConcurrent;
  options.sessions = 2;
  options.concurrency_seed = seed;
  return options;
}

/// RMW-heavy seeds so the fuzzer reaches contended multi-session shapes
/// within a small execution budget.
std::vector<TestCase> RmwSeeds() {
  std::vector<TestCase> seeds;
  for (const char* sql_text : {
           "CREATE TABLE t (a INT, b INT);"
           "INSERT INTO t VALUES (1, 10);"
           "INSERT INTO t VALUES (2, 20);"
           "UPDATE t SET b = b + 1 WHERE a = 1;"
           "UPDATE t SET b = b + 1 WHERE a = 1;"
           "SELECT b FROM t;",
           "CREATE TABLE u (x INT);"
           "INSERT INTO u VALUES (5);"
           "BEGIN; UPDATE u SET x = x + 1; COMMIT;"
           "UPDATE u SET x = x * 2;"
           "SELECT x FROM u;",
       }) {
    auto tc = TestCase::FromSql(sql_text);
    EXPECT_TRUE(tc.ok()) << tc.status().ToString();
    seeds.push_back(std::move(*tc));
  }
  return seeds;
}

std::string ScratchDir(const std::string& name) {
  auto dir =
      std::filesystem::temp_directory_path() / ("lego_concurrent_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

/// End-to-end: a campaign over a planted isolation defect must
/// capture the anomaly, and triage must reduce it to a multi-session .sql
/// reproducer carrying the right ISO bug id.
void RunPlantedEndToEnd(bool lost_update, const std::string& expect_id) {
  BackendOptions backend = ConcurrentOptions(11);
  backend.planted_lost_update = lost_update;
  backend.planted_dirty_read = !lost_update;

  auto fuzzer = MakeLego(11);
  ExecutionHarness harness(minidb::DialectProfile::PgLite(), backend);
  std::string suite_error;
  auto suite = triage::OracleSuite::FromSpec("iso", &suite_error);
  ASSERT_NE(suite, nullptr) << suite_error;
  harness.set_logic_oracle(suite.get());

  CampaignOptions options;
  options.max_executions = 1200;
  std::vector<TestCase> seeds = RmwSeeds();
  options.import_seeds = &seeds;

  CampaignResult result = RunCampaign(fuzzer.get(), &harness, options);
  ASSERT_GT(result.logic_bugs_total, 0)
      << "campaign never tripped the planted " << expect_id;

  const std::string repro_dir = ScratchDir(expect_id);
  triage::TriageOptions triage_options;
  triage_options.reduce = true;
  triage_options.repro_dir = repro_dir;
  triage_options.backend = backend;
  triage::TriageReport report = triage::TriageCampaign(
      result, minidb::DialectProfile::PgLite(), harness.setup_script(),
      triage_options);

  bool found = false;
  for (const triage::TriagedBug& bug : report.bugs) {
    if (bug.signature.bug_id.rfind(expect_id, 0) != 0) continue;
    found = true;
    EXPECT_TRUE(bug.is_logic);
    EXPECT_GT(bug.logic.sessions, 1);
    EXPECT_LE(bug.reduced_statements, bug.original_statements);
    ASSERT_FALSE(bug.artifact_path.empty());
    const std::string artifact = ReadFile(bug.artifact_path);
    // The artifact is the actual multi-session reproducer: split script
    // with session markers plus the interleaving seed that replays it.
    EXPECT_NE(artifact.find("-- session 1"), std::string::npos) << artifact;
    EXPECT_NE(artifact.find("-- interleave-seed:"), std::string::npos);
    EXPECT_NE(artifact.find("-- sessions:"), std::string::npos);
  }
  EXPECT_TRUE(found) << "no " << expect_id << " among "
                     << report.bugs.size() << " triaged bugs";
  std::filesystem::remove_all(repro_dir);
}

TEST(ConcurrentCampaignTest, PlantedLostUpdateTriagesToMultiSessionRepro) {
  RunPlantedEndToEnd(/*lost_update=*/true, "ISO-LOST-UPDATE");
}

TEST(ConcurrentCampaignTest, PlantedDirtyReadTriagesToMultiSessionRepro) {
  RunPlantedEndToEnd(/*lost_update=*/false, "ISO-DIRTY-READ");
}

TEST(ConcurrentCampaignTest, CleanEngineFlagsNoAnomalies) {
  auto fuzzer = MakeLego(3);
  ExecutionHarness harness(minidb::DialectProfile::PgLite(),
                           ConcurrentOptions(3));
  std::string suite_error;
  auto suite = triage::OracleSuite::FromSpec("iso", &suite_error);
  ASSERT_NE(suite, nullptr) << suite_error;
  harness.set_logic_oracle(suite.get());

  CampaignOptions options;
  options.max_executions = 500;
  std::vector<TestCase> seeds = RmwSeeds();
  options.import_seeds = &seeds;
  CampaignResult result = RunCampaign(fuzzer.get(), &harness, options);
  // Strict 2PL + token-serialized epochs: no interleaving of a correct lock
  // discipline may exhibit an isolation anomaly.
  EXPECT_EQ(result.logic_bugs_total, 0);
}

TEST(ConcurrentCampaignTest, CleanEngineOnPagedStorageFlagsNoAnomalies) {
  // Sessions share pager-backed heaps; the lock discipline (and therefore
  // the iso oracle's verdict) must be unaffected by rows living in pool
  // frames instead of private heap vectors.
  const std::string dir = ScratchDir("paged_iso");
  BackendOptions backend = ConcurrentOptions(3);
  backend.storage = StorageKind::kPaged;
  backend.db_dir = dir;
  backend.pool_frames = 8;

  auto fuzzer = MakeLego(3);
  ExecutionHarness harness(minidb::DialectProfile::PgLite(), backend);
  std::string suite_error;
  auto suite = triage::OracleSuite::FromSpec("iso", &suite_error);
  ASSERT_NE(suite, nullptr) << suite_error;
  harness.set_logic_oracle(suite.get());

  CampaignOptions options;
  options.max_executions = 500;
  std::vector<TestCase> seeds = RmwSeeds();
  options.import_seeds = &seeds;
  CampaignResult result = RunCampaign(fuzzer.get(), &harness, options);
  EXPECT_EQ(result.logic_bugs_total, 0);
  EXPECT_GT(result.storage.commits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ConcurrentCampaignTest, PagedInterleavingsReplayDeterministically) {
  // Trace-digest determinism on shared paged storage: the same seed must
  // produce byte-identical campaign results across reruns even though pool
  // eviction sits under the interleavings.
  const std::string dir = ScratchDir("paged_det");
  auto run = [&]() {
    BackendOptions backend = ConcurrentOptions(9);
    backend.storage = StorageKind::kPaged;
    backend.db_dir = dir;
    backend.pool_frames = 8;
    auto fuzzer = MakeLego(9);
    ExecutionHarness harness(minidb::DialectProfile::PgLite(), backend);
    CampaignOptions options;
    options.max_executions = 300;
    std::vector<TestCase> seeds = RmwSeeds();
    options.import_seeds = &seeds;
    return RunCampaign(fuzzer.get(), &harness, options);
  };
  CampaignResult first = run();
  CampaignResult second = run();
  EXPECT_EQ(ResultDigest(first), ResultDigest(second));
  EXPECT_EQ(first.statements_executed, second.statements_executed);
  EXPECT_EQ(first.edges, second.edges);
  std::filesystem::remove_all(dir);
}

/// One concurrent campaign under the iso oracle; returns its ResultDigest.
uint64_t ConcurrentCampaignDigest(BackendOptions backend, uint64_t seed,
                                  int budget) {
  auto fuzzer = MakeLego(seed);
  ExecutionHarness harness(minidb::DialectProfile::PgLite(), backend);
  std::string suite_error;
  auto suite = triage::OracleSuite::FromSpec("iso", &suite_error);
  EXPECT_NE(suite, nullptr) << suite_error;
  harness.set_logic_oracle(suite.get());
  CampaignOptions options;
  options.max_executions = budget;
  std::vector<TestCase> seeds = RmwSeeds();
  options.import_seeds = &seeds;
  return ResultDigest(RunCampaign(fuzzer.get(), &harness, options));
}

TEST(ConcurrentCampaignTest, GoldenDigestsPinTheInterleavings) {
  // Pinned result digests: any change to how sessions are scheduled,
  // locked or resumed moves the interleavings, and with them these values.
  BackendOptions iso3 = ConcurrentOptions(7);
  iso3.sessions = 3;
  EXPECT_EQ(ConcurrentCampaignDigest(iso3, 7, 2000),
            0xc01f71f8e77a68b4ull);

  BackendOptions lost_update = ConcurrentOptions(1);
  lost_update.planted_lost_update = true;
  EXPECT_EQ(ConcurrentCampaignDigest(lost_update, 1, 2000),
            0x8dea14679f5b3b63ull);

  const std::string dir = ScratchDir("golden_paged");
  BackendOptions paged4 = ConcurrentOptions(5);
  paged4.sessions = 4;
  paged4.storage = StorageKind::kPaged;
  paged4.db_dir = dir;
  paged4.pool_frames = 16;
  EXPECT_EQ(ConcurrentCampaignDigest(paged4, 5, 1000),
            0xbab3784db956272aull);
  std::filesystem::remove_all(dir);
}

TEST(ConcurrentCampaignTest, ResumeIsBitIdenticalToUninterrupted) {
  // Interruption emulated by budget (same load path a SIGKILLed process
  // takes on restart): interleaving seeds derive from the persisted
  // execution counter, so the resumed half must replay identically.
  const std::string dir = ScratchDir("resume");
  CampaignOptions base;
  base.snapshot_every = 100;

  auto run = [&](const CampaignOptions& options) {
    auto fuzzer = MakeLego(5);
    ExecutionHarness harness(minidb::DialectProfile::PgLite(),
                             ConcurrentOptions(5));
    return RunCampaign(fuzzer.get(), &harness, options);
  };

  CampaignOptions uninterrupted = base;
  uninterrupted.max_executions = 600;
  CampaignResult full = run(uninterrupted);
  ASSERT_TRUE(full.state_status.ok()) << full.state_status.ToString();

  CampaignOptions first_half = base;
  first_half.max_executions = 300;
  first_half.state_dir = dir;
  CampaignResult partial = run(first_half);
  ASSERT_TRUE(partial.state_status.ok()) << partial.state_status.ToString();

  CampaignOptions second_half = base;
  second_half.max_executions = 600;
  second_half.state_dir = dir;
  second_half.resume = true;
  CampaignResult resumed = run(second_half);
  ASSERT_TRUE(resumed.state_status.ok()) << resumed.state_status.ToString();

  EXPECT_EQ(resumed.executions, full.executions);
  EXPECT_EQ(resumed.edges, full.edges);
  EXPECT_EQ(resumed.coverage_curve, full.coverage_curve);
  EXPECT_EQ(ResultDigest(resumed), ResultDigest(full));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lego::fuzz
