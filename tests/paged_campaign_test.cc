// Campaign-level paged-storage conformance: for every backend kind, a
// campaign on paged storage must land on the same ResultDigest as the same
// campaign on mem storage (the pager is invisible to fuzzing outcomes), the
// storage telemetry must report real pool/WAL traffic without entering the
// digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chaos/failpoint.h"
#include "fuzz/backend.h"
#include "fuzz/backend_inproc.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "minidb/env.h"
#include "minidb/profile.h"
#include "minidb/storage_engine.h"
#include "minidb/storage_serde.h"
#include "triage/oracle_suite.h"

namespace lego::fuzz {
namespace {

/// Deterministic generation-only fuzzer cycling through fixed scripts (no
/// feedback), so campaign outcomes depend only on (scripts, backend).
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

std::vector<std::string> WorkloadScripts() {
  return {
      "CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1, 'x'); "
      "INSERT INTO t VALUES (2, 'y'); UPDATE t SET b = 'z' WHERE a = 2; "
      "SELECT a FROM t;",
      "CREATE TABLE u (c INT); BEGIN; INSERT INTO u VALUES (3); "
      "INSERT INTO u VALUES (4); COMMIT; DELETE FROM u WHERE c = 3;",
      "CREATE TABLE v (d INT); BEGIN; INSERT INTO v VALUES (5); "
      "ROLLBACK; INSERT INTO v VALUES (6); SELECT d FROM v;",
  };
}

CampaignResult RunWith(const BackendOptions& backend, int executions) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  EXPECT_NE(profile, nullptr);
  ExecutionHarness harness(*profile, backend);
  ScriptFuzzer fuzzer(WorkloadScripts());
  CampaignOptions options;
  options.max_executions = executions;
  options.snapshot_every = 0;
  return RunCampaign(&fuzzer, &harness, options);
}

BackendOptions PagedOptions(BackendKind kind, const std::string& dir,
                            size_t pool_frames = 32) {
  std::filesystem::remove_all(dir);
  BackendOptions backend;
  backend.kind = kind;
  backend.storage = StorageKind::kPaged;
  backend.db_dir = dir;
  backend.pool_frames = pool_frames;
  return backend;
}

/// mem and paged campaigns must be observationally identical: same
/// executions, statements, errors, crashes, coverage — the whole digest.
void ExpectStorageParity(BackendKind kind, const std::string& dir) {
  BackendOptions mem;
  mem.kind = kind;
  if (kind == BackendKind::kConcurrent) {
    mem.sessions = 2;
    mem.concurrency_seed = 7;
  }
  BackendOptions paged = PagedOptions(kind, dir);
  if (kind == BackendKind::kConcurrent) {
    paged.sessions = 2;
    paged.concurrency_seed = 7;
  }

  CampaignResult on_mem = RunWith(mem, 9);
  CampaignResult on_paged = RunWith(paged, 9);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(ResultDigest(on_mem), ResultDigest(on_paged))
      << BackendKindName(kind);
  EXPECT_EQ(on_mem.statements_executed, on_paged.statements_executed);
  EXPECT_EQ(on_mem.statement_errors, on_paged.statement_errors);
  EXPECT_EQ(on_mem.edges, on_paged.edges);

  // Telemetry must reflect the storage actually used — and never leak into
  // the digest (asserted above: digests match despite differing stats).
  EXPECT_EQ(on_mem.storage.wal_records, 0u);
  EXPECT_EQ(on_mem.storage.pool_hits + on_mem.storage.pool_misses, 0u);
  EXPECT_GT(on_paged.storage.wal_records, 0u) << BackendKindName(kind);
  EXPECT_GT(on_paged.storage.commits, 0u) << BackendKindName(kind);
}

TEST(PagedCampaignTest, InprocPagedMatchesMem) {
  ExpectStorageParity(BackendKind::kInProcess,
                      ::testing::TempDir() + "paged_parity_inproc_db");
}

TEST(PagedCampaignTest, ForkedPagedMatchesMem) {
  ExpectStorageParity(BackendKind::kForked,
                      ::testing::TempDir() + "paged_parity_forked_db");
}

TEST(PagedCampaignTest, ConcurrentPagedMatchesMem) {
  ExpectStorageParity(BackendKind::kConcurrent,
                      ::testing::TempDir() + "paged_parity_concurrent_db");
}

// A statement run straight through database(), not through the backend's
// Execute, is logged like any other: a read-only recovery of the
// directory, which sees only what reached the disk (all a crash would
// leave), finds every such statement's effect.
TEST(PagedCampaignTest, DirectDatabaseStatementsAreLoggedAndRecover) {
  const std::string dir = ::testing::TempDir() + "paged_direct_db";
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  {
    InProcessBackend backend(*profile,
                             PagedOptions(BackendKind::kInProcess, dir));
    backend.Reset();
    auto script = backend.database().ExecuteScript(
        "CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1, 'x');"
        " BEGIN; INSERT INTO t VALUES (2, 'y'); COMMIT;"
        " UPDATE t SET b = 'z' WHERE a = 1;");
    ASSERT_TRUE(script.ok());
    ASSERT_EQ(script->errors, 0);
    EXPECT_EQ(backend.storage_stats().commits, 4u);

    minidb::Database recovered(profile);
    minidb::WalLoadStats wal_stats;
    ASSERT_TRUE(minidb::StorageEngine::RecoverInto(minidb::Env::Posix(), dir,
                                                   &recovered, &wal_stats)
                    .ok());
    EXPECT_EQ(wal_stats.commits, 4u);
    EXPECT_EQ(recovered.catalog().GetTable("t").value()->heap.LiveRowCount(),
              2u);
    EXPECT_EQ(minidb::StateDigest(recovered.catalog()),
              minidb::StateDigest(backend.database().catalog()));
  }
  std::filesystem::remove_all(dir);
}

// A campaign whose dataset exceeds the pool must finish with real eviction
// traffic reported in the telemetry.
TEST(PagedCampaignTest, TinyPoolCampaignReportsEvictions) {
  const std::string dir = ::testing::TempDir() + "paged_tinypool_db";
  BackendOptions backend =
      PagedOptions(BackendKind::kInProcess, dir, /*pool_frames=*/4);

  std::string big_script = "CREATE TABLE big (a INT, b TEXT);";
  const std::string filler(200, 'x');
  for (int i = 0; i < 250; ++i) {
    big_script += " INSERT INTO big VALUES (" + std::to_string(i) + ", '" +
                  filler + "');";
  }
  big_script += " SELECT a FROM big;";

  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  ExecutionHarness harness(*profile, backend);
  ScriptFuzzer fuzzer({big_script});
  CampaignOptions options;
  options.max_executions = 2;
  options.snapshot_every = 0;
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(result.executions, 2);
  EXPECT_EQ(result.crashes_total, 0);
  EXPECT_GT(result.storage.pool_evictions, 0u);
  EXPECT_GT(result.storage.pool_hit_rate(), 0.0);
  EXPECT_GT(result.storage.wal_bytes, 0u);
  EXPECT_GT(result.storage.fsyncs, 0u);
}

// A reset whose ResetFresh fails runs its case unlogged on memory-mode
// heaps; the campaign counts each one. env.write fails every write until the
// first progress call, after 64 executions: each of those resets rewrites
// the MANIFEST, because the reset before it failed, so exactly 64 fail.
TEST(PagedCampaignTest, FailedResetsAreCounted) {
  const std::string dir = ::testing::TempDir() + "paged_reset_fail_db";
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  ExecutionHarness harness(*profile,
                           PagedOptions(BackendKind::kInProcess, dir));
  ScriptFuzzer fuzzer(WorkloadScripts());
  CampaignOptions options;
  options.max_executions = 200;
  options.snapshot_every = 0;
  options.on_progress = [](int64_t) { chaos::DisarmAll(); };
  ASSERT_TRUE(chaos::ArmSpec("env.write=always", /*seed=*/1).ok());
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  chaos::DisarmAll();
  std::filesystem::remove_all(dir);

  EXPECT_EQ(result.executions, 200);
  EXPECT_EQ(result.storage.reset_failures, 64u);
  EXPECT_GT(result.storage.wal_records, 0u);
}

/// One rule-weighted lego campaign with the metamorphic oracles armed:
/// pglite, 2000 executions, snapshots every 200 — the settings of
/// `fuzz_campaign_cli pglite lego 2000 <seed> --oracle=tlp,norec,clause
/// --rule-coverage`.
CampaignResult RunRuleWeightedLego(const BackendOptions& backend,
                                   uint64_t seed) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  EXPECT_NE(profile, nullptr);
  core::LegoOptions lego_options;
  lego_options.rng_seed = seed;
  core::LegoFuzzer fuzzer(*profile, lego_options);
  std::string error;
  auto suite = triage::OracleSuite::FromSpec("tlp,norec,clause", &error);
  EXPECT_NE(suite, nullptr) << error;
  ExecutionHarness harness(*profile, backend);
  harness.set_logic_oracle(suite.get());
  harness.set_rule_coverage(true);
  CampaignOptions options;
  options.max_executions = 2000;
  options.snapshot_every = 200;
  return RunCampaign(&fuzzer, &harness, options);
}

// Golden for the grammar-rule feedback loop: the rule sets the harness
// merges and hands to the corpus, the rarity-weighted seed picks and the
// paged engine's choice between physiological and logical WAL records all
// feed these numbers. The digest is the one the CLI prints for the same
// settings. Re-capture only for an intended change of fuzzing behaviour.
TEST(GoldenCampaignTest, RuleWeightedLegoPgliteMemAndPaged) {
  struct Golden {
    uint64_t seed;
    uint64_t digest;
    uint64_t rules;
    uint64_t corpus_seeds;
    uint64_t wal_records;
    uint64_t wal_bytes;
    uint64_t commits;  // each commit is one fsync
    uint64_t checkpoints;
  };
  // Seed 1 never checkpoints; seed 5 checkpoints often, so most of its
  // per-case resets follow a checkpoint.
  const Golden goldens[] = {
      {1, 0x36f87e36d5647d63ULL, 126, 312, 6355, 372547, 2681, 0},
      {5, 0x75ee0c346e4f9ea3ULL, 126, 270, 6537, 390886, 2724, 192},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    CampaignResult on_mem = RunRuleWeightedLego(BackendOptions{}, g.seed);
    EXPECT_EQ(ResultDigest(on_mem), g.digest);
    EXPECT_EQ(on_mem.rules, g.rules);
    EXPECT_EQ(on_mem.fuzzer_stats.corpus_seeds, g.corpus_seeds);

    const std::string dir = ::testing::TempDir() + "paged_golden_rules_db";
    CampaignResult on_paged = RunRuleWeightedLego(
        PagedOptions(BackendKind::kInProcess, dir, 64), g.seed);
    std::filesystem::remove_all(dir);
    EXPECT_EQ(ResultDigest(on_paged), g.digest);
    EXPECT_EQ(on_paged.rules, g.rules);
    EXPECT_EQ(on_paged.fuzzer_stats.corpus_seeds, g.corpus_seeds);
    EXPECT_EQ(on_paged.storage.wal_records, g.wal_records);
    EXPECT_EQ(on_paged.storage.wal_bytes, g.wal_bytes);
    EXPECT_EQ(on_paged.storage.fsyncs, g.commits);
    EXPECT_EQ(on_paged.storage.commits, g.commits);
    EXPECT_EQ(on_paged.storage.checkpoints, g.checkpoints);
  }
}

}  // namespace
}  // namespace lego::fuzz
