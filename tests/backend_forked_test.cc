// Forked-backend end-to-end: a *real* engine defect (planted abort() /
// infinite loop inside minidb) must kill only the child — the campaign
// completes its budget, records the death as a unique triaged bug, and
// ddmin minimizes its reproducer. Plus the serial in-process golden run:
// the backend seam must leave historical campaign numbers bit-identical.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fuzz/backend.h"
#include "fuzz/backend_forked.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "baselines/squirrel_like.h"
#include "minidb/database.h"
#include "minidb/profile.h"
#include "triage/oracle_suite.h"
#include "triage/triage.h"

namespace lego::fuzz {
namespace {

/// RAII around the planted real-defect switches so a failing assertion
/// can't leak an armed abort() into later tests.
class PlantedAbort {
 public:
  PlantedAbort() { minidb::testing::SetPlantedAbortForTesting(true); }
  ~PlantedAbort() { minidb::testing::SetPlantedAbortForTesting(false); }
};

class PlantedHang {
 public:
  PlantedHang() { minidb::testing::SetPlantedHangForTesting(true); }
  ~PlantedHang() { minidb::testing::SetPlantedHangForTesting(false); }
};

/// Deterministic generation-only fuzzer cycling through fixed scripts —
/// minimal and oblivious to feedback, so campaign outcomes depend only on
/// (scripts, budget).
class ScriptFuzzer : public Fuzzer {
 public:
  explicit ScriptFuzzer(std::vector<std::string> scripts)
      : scripts_(std::move(scripts)) {}

  std::string name() const override { return "script"; }
  void Prepare(ExecutionHarness* harness) override { (void)harness; }

  TestCase Next() override {
    auto tc = TestCase::FromSql(scripts_[next_ % scripts_.size()]);
    ++next_;
    EXPECT_TRUE(tc.ok());
    return std::move(*tc);
  }

  void OnResult(const TestCase& tc, const ExecResult& result) override {
    (void)tc;
    (void)result;
  }

 private:
  std::vector<std::string> scripts_;
  size_t next_ = 0;
};

TEST(ForkedBackendTest, PlantedAbortSurvivesForkedCampaign) {
  PlantedAbort plant;  // armed before any backend spawns: children inherit

  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);

  // Two benign scripts and one whose DROP TABLE aborts the child for real.
  ScriptFuzzer fuzzer({
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;",
      "CREATE TABLE u (b INT); INSERT INTO u VALUES (2); "
      "UPDATE u SET b = 3; SELECT b FROM u;",
      "CREATE TABLE v (c INT); INSERT INTO v VALUES (4); DROP TABLE v;",
  });

  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  ExecutionHarness harness(*profile, backend);

  CampaignOptions options;
  options.max_executions = 48;
  options.snapshot_every = 0;

  CampaignResult result = RunCampaign(&fuzzer, &harness, options);

  // The fuzzer process survived (we are here) and spent its whole budget —
  // every third case killed a child, none killed the campaign.
  EXPECT_EQ(result.executions, 48);
  EXPECT_EQ(result.crashes_total, 48 / 3);
  ASSERT_EQ(result.crash_hashes.size(), 1u);
  EXPECT_EQ(result.bug_ids.count("REAL-SIGABRT"), 1u);
  EXPECT_EQ(result.bugs_by_component.at("minidb"), 1);

  // Triage replays under the same forked backend and minimizes the repro
  // down to the lone aborting statement.
  const std::string repro_dir = ::testing::TempDir() + "forked_abort_repros";
  std::filesystem::remove_all(repro_dir);
  triage::TriageOptions triage_options;
  triage_options.backend = backend;
  triage_options.repro_dir = repro_dir;
  triage::TriageReport report =
      triage::TriageCampaign(result, *profile, "", triage_options);

  ASSERT_EQ(report.bugs.size(), 1u);
  const triage::TriagedBug& bug = report.bugs[0];
  EXPECT_EQ(bug.signature.bug_id, "REAL-SIGABRT");
  EXPECT_EQ(bug.signature.type_fingerprint, "DROP TABLE");
  EXPECT_EQ(bug.reduced_statements, 1);
  EXPECT_EQ(bug.original_statements, 3);
  ASSERT_FALSE(bug.artifact_path.empty());
  std::ifstream artifact(bug.artifact_path);
  ASSERT_TRUE(artifact.good());
  std::string text((std::istreambuf_iterator<char>(artifact)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("REAL-SIGABRT"), std::string::npos);
  EXPECT_NE(text.find("DROP TABLE"), std::string::npos);
}

TEST(ForkedBackendTest, WatchdogTurnsPlantedHangIntoTriagedBug) {
  PlantedHang plant;

  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);

  ScriptFuzzer fuzzer({
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;",
      "CREATE TABLE u (b INT); INSERT INTO u VALUES (2); VACUUM;",
  });

  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.max_stmt_ms = 200;
  ExecutionHarness harness(*profile, backend);

  CampaignOptions options;
  options.max_executions = 6;
  options.snapshot_every = 0;

  CampaignResult result = RunCampaign(&fuzzer, &harness, options);

  EXPECT_EQ(result.executions, 6);
  EXPECT_EQ(result.crashes_total, 3);  // every VACUUM case hit the watchdog
  ASSERT_EQ(result.crash_hashes.size(), 1u);
  EXPECT_EQ(result.bug_ids.count("HANG"), 1u);
  ASSERT_EQ(result.captured_crashes.size(), 1u);
  EXPECT_EQ(result.captured_crashes[0].kind, "HANG");
  EXPECT_EQ(result.captured_crashes[0].component, "watchdog");

  // Hangs dedup and reduce through the same signature machinery as crashes,
  // landing in their own hang|type-fingerprint bucket.
  triage::TriageOptions triage_options;
  triage_options.backend = backend;
  triage::TriageReport report =
      triage::TriageCampaign(result, *profile, "", triage_options);
  ASSERT_EQ(report.bugs.size(), 1u);
  EXPECT_EQ(report.bugs[0].signature.Key(), "HANG|VACUUM");
  EXPECT_EQ(report.bugs[0].reduced_statements, 1);
}

TEST(ForkedBackendTest, HangingStatementYieldsHangOutcome) {
  PlantedHang plant;
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");

  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.max_stmt_ms = 150;
  ExecutionHarness harness(*profile, backend);

  auto tc = TestCase::FromSql("CREATE TABLE t (a INT); VACUUM; SELECT 1;");
  ASSERT_TRUE(tc.ok());
  ExecResult r = harness.Run(*tc);
  EXPECT_TRUE(r.crashed);
  EXPECT_TRUE(r.hang);
  EXPECT_EQ(r.executed, 1);  // CREATE ran; VACUUM hung; SELECT never ran
  EXPECT_EQ(r.crash.bug_id, "HANG");

  // The backend respawns on the next run: same harness stays usable.
  auto tc2 = TestCase::FromSql("CREATE TABLE t (a INT); SELECT a FROM t;");
  ASSERT_TRUE(tc2.ok());
  ExecResult r2 = harness.Run(*tc2);
  EXPECT_FALSE(r2.crashed);
  EXPECT_EQ(r2.executed, 2);
}

// A paged forked backend reports the finished children's storage totals
// plus the live child's latest poll, so a child death and respawn never
// take a counter back.
TEST(ForkedBackendTest, StorageTotalsNeverDecreaseAcrossRespawn) {
  PlantedAbort plant;
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  const std::string dir = ::testing::TempDir() + "forked_storage_totals_db";
  std::filesystem::remove_all(dir);
  BackendOptions options;
  options.kind = BackendKind::kForked;
  options.storage = StorageKind::kPaged;
  options.db_dir = dir;

  const std::string benign =
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;";
  const std::string aborting =
      "CREATE TABLE v (c INT); INSERT INTO v VALUES (4); DROP TABLE v;";
  const auto counters = [](const BackendStorageStats& s) {
    return std::vector<uint64_t>{
        s.pool_hits,   s.pool_misses, s.pool_evictions, s.pool_writebacks,
        s.wal_records, s.wal_bytes,   s.fsyncs,         s.steal_flushes,
        s.commits,     s.checkpoints};
  };
  {
    ForkedBackend backend(*profile, options);
    std::vector<uint64_t> last = counters(backend.storage_stats());
    uint64_t benign_commits = 0;
    for (const std::string& script :
         {benign, aborting, benign, aborting, benign}) {
      backend.Reset();
      auto tc = TestCase::FromSql(script);
      ASSERT_TRUE(tc.ok());
      for (const sql::StmtPtr& stmt : tc->statements()) {
        if (backend.Execute(*stmt, /*want_rows=*/false).server_died()) break;
      }
      backend.FinishRun();
      const BackendStorageStats now = backend.storage_stats();
      const std::vector<uint64_t> current = counters(now);
      for (size_t i = 0; i < current.size(); ++i) {
        EXPECT_GE(current[i], last[i]) << "counter " << i << " after\n"
                                       << script;
      }
      if (script == benign) {
        EXPECT_GT(now.commits, benign_commits) << "a benign case commits";
        benign_commits = now.commits;
      }
      last = current;
    }
    EXPECT_EQ(backend.spawn_count(), 3);
  }
  std::filesystem::remove_all(dir);
}

// The seam's ground truth: a serial in-process campaign must reproduce
// these exact numbers run over run. Coverage probes key on (file, line),
// with the file path relative to the repository root, so the numbers hold
// in any checkout directory. Two kinds of change legitimately move them:
// edits inside instrumented engine files, which re-key the trajectory, and
// intended changes of fuzzer behaviour, such as a different order of RNG
// draws. Re-capture the constants then, and say why in the commit; any
// other drift means observable fuzzing behaviour changed by accident.
TEST(GoldenCampaignTest, SerialInProcessLegoPglite) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  core::LegoOptions lego_options;
  lego_options.rng_seed = 7;
  core::LegoFuzzer fuzzer(*profile, lego_options);
  ExecutionHarness harness(*profile);
  CampaignOptions options;
  options.max_executions = 2000;
  options.snapshot_every = 200;

  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  EXPECT_EQ(result.edges, 493u);
  EXPECT_EQ(result.affinities.size(), 164u);
  EXPECT_EQ(result.statements_executed, 5314);
  EXPECT_EQ(result.statement_errors, 3151);
  EXPECT_EQ(result.crashes_total, 0);
}

TEST(GoldenCampaignTest, SerialInProcessSquirrelMarialite) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("marialite");
  baselines::SquirrelLikeFuzzer fuzzer(*profile, /*seed=*/3);
  ExecutionHarness harness(*profile);
  CampaignOptions options;
  options.max_executions = 1500;
  options.snapshot_every = 150;

  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  EXPECT_EQ(result.edges, 256u);
  EXPECT_EQ(result.affinities.size(), 18u);
  EXPECT_EQ(result.statements_executed, 6474);
  EXPECT_EQ(result.statement_errors, 1028);
  EXPECT_EQ(result.crashes_total, 127);
  EXPECT_EQ(result.bug_ids,
            (std::set<std::string>{"MA-DML-01", "MA-DML-03", "MA-OPT-01",
                                   "MA-OPT-02", "MA-OPT-06", "MA-OPT-07",
                                   "MA-STOR-03", "MA-STOR-04"}));
}

// The forked counterpart of the paged rule-weighted golden: the same lego
// campaign with the oracle suite and rule feedback, served by a fork-server
// child on paged storage. The digest and the WAL counters are the ones
// `fuzz_campaign_cli pglite lego 2000 1 --backend=forked --storage=paged
// --oracle=tlp,norec,clause --rule-coverage` prints. The child executes
// each statement from its printed SQL, so the digest differs from the
// in-process one (see backend_parity_test). Re-capture only for an
// intended change of fuzzing behaviour.
TEST(GoldenCampaignTest, ForkedPagedLegoPglite) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  core::LegoOptions lego_options;
  lego_options.rng_seed = 1;
  core::LegoFuzzer fuzzer(*profile, lego_options);
  std::string error;
  auto suite = triage::OracleSuite::FromSpec("tlp,norec,clause", &error);
  ASSERT_NE(suite, nullptr) << error;

  const std::string dir = ::testing::TempDir() + "forked_golden_paged_db";
  std::filesystem::remove_all(dir);
  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.storage = StorageKind::kPaged;
  backend.db_dir = dir;
  CampaignResult result;
  {
    ExecutionHarness harness(*profile, backend);
    harness.set_logic_oracle(suite.get());
    harness.set_rule_coverage(true);
    CampaignOptions options;
    options.max_executions = 2000;
    options.snapshot_every = 200;
    result = RunCampaign(&fuzzer, &harness, options);
  }
  std::filesystem::remove_all(dir);

  EXPECT_EQ(ResultDigest(result), 0x0e8f39bebc0b49efULL);
  EXPECT_EQ(result.storage.wal_records, 6761u);
  EXPECT_EQ(result.storage.wal_bytes, 402226u);
  EXPECT_EQ(result.storage.fsyncs, 2758u);
  EXPECT_EQ(result.storage.commits, 2758u);
}

}  // namespace
}  // namespace lego::fuzz
