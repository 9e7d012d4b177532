// Campaign-level paged-storage conformance: for every backend kind, a
// campaign on paged storage must land on the same ResultDigest as the same
// campaign on mem storage (the pager is invisible to fuzzing outcomes), the
// storage telemetry must report real pool/WAL traffic without entering the
// digest.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/backend.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "minidb/profile.h"

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

}  // namespace
}  // namespace lego::fuzz
