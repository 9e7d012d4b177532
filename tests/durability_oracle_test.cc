// Durability-oracle conformance: seeded kill:N schedules at every storage
// failpoint site drive real child deaths through a paged forked campaign,
// and the oracle must adjudicate every one of them as the-schedule-working
// (zero DUR-* false positives), byte-identically across reruns. The planted
// skip-fsync defect is the positive control: the same machinery must flag
// it and triage must minimize a DUR-* reproducer.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chaos/failpoint.h"
#include "fuzz/backend.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "minidb/profile.h"
#include "triage/triage.h"

namespace lego::fuzz {
namespace {

/// Deterministic generation-only fuzzer cycling through fixed scripts (no
/// feedback), so campaign outcomes depend only on (scripts, schedule).
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
      "CREATE TABLE v (d INT); INSERT INTO v VALUES (5); CHECKPOINT; "
      "INSERT INTO v VALUES (6); SELECT d FROM v;",
  };
}

/// RAII: no armed schedule may leak into later tests.
class ChaosGuard {
 public:
  ~ChaosGuard() { chaos::DisarmAll(); }
};

size_t CountDurBugs(const CampaignResult& result) {
  size_t n = 0;
  for (const std::string& id : result.bug_ids) {
    if (id.rfind("DUR-", 0) == 0) ++n;
  }
  return n;
}

CampaignResult RunSchedule(const std::string& spec, const std::string& dir,
                           bool planted_skip_fsync, int executions) {
  chaos::DisarmAll();
  if (!spec.empty()) {
    Status armed = chaos::ArmSpec(spec, /*seed=*/11);
    EXPECT_TRUE(armed.ok()) << armed.ToString();
  }
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  EXPECT_NE(profile, nullptr);

  std::filesystem::remove_all(dir);
  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.storage = StorageKind::kPaged;
  backend.db_dir = dir;
  backend.durability_check = true;
  backend.chaos_note = spec;
  backend.planted_skip_fsync = planted_skip_fsync;
  ExecutionHarness harness(*profile, backend);

  ScriptFuzzer fuzzer(WorkloadScripts());
  CampaignOptions options;
  options.max_executions = executions;
  options.snapshot_every = 0;
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  chaos::DisarmAll();
  std::filesystem::remove_all(dir);
  return result;
}

TEST(DurabilityOracleTest, KillScheduleSweepHasZeroFalsePositives) {
  ChaosGuard guard;
  // Every storage site the chaos grammar registers, at early and late hit
  // ordinals; wal.recover is excluded from kill (it also fires in the
  // parent's verification read) and covered by the inconclusive test below.
  const std::vector<std::string> schedules = {
      "env.write=kill:2",   "env.write=kill:9",  "env.sync=kill:1",
      "env.sync=kill:5",    "wal.append=kill:3", "wal.append=kill:14",
      "pager.flush=kill:1",
  };
  const std::string dir = ::testing::TempDir() + "dur_sweep_db";
  for (const std::string& spec : schedules) {
    CampaignResult result = RunSchedule(spec, dir, false, 9);
    EXPECT_EQ(result.executions, 9) << spec;
    // The schedule kills children mid-commit over and over; a correct
    // engine + oracle pair adjudicates every death as injected.
    EXPECT_EQ(CountDurBugs(result), 0u)
        << spec << " produced a durability false positive";
  }
}

TEST(DurabilityOracleTest, SweepRerunsAreByteIdentical) {
  ChaosGuard guard;
  const std::string dir = ::testing::TempDir() + "dur_rerun_db";
  CampaignResult first = RunSchedule("env.sync=kill:4", dir, false, 9);
  CampaignResult second = RunSchedule("env.sync=kill:4", dir, false, 9);
  EXPECT_EQ(ResultDigest(first), ResultDigest(second));
  EXPECT_EQ(first.statements_executed, second.statements_executed);
  EXPECT_EQ(first.statement_errors, second.statement_errors);
}

TEST(DurabilityOracleTest, ArmedRecoveryFaultIsInconclusiveNotFalsePositive) {
  ChaosGuard guard;
  // wal.recover=always makes the parent's own verification read fail for
  // every adjudicated death; those deaths must pass through as ordinary
  // REAL-* crashes, never as DUR-RECOVERY-FAIL.
  chaos::DisarmAll();
  ASSERT_TRUE(chaos::ArmSpec("wal.recover=always", 11).ok());
  ASSERT_TRUE(chaos::ArmSpec("wal.append=kill:6", 11).ok());

  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  const std::string dir = ::testing::TempDir() + "dur_inconclusive_db";
  std::filesystem::remove_all(dir);
  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.storage = StorageKind::kPaged;
  backend.db_dir = dir;
  backend.durability_check = true;
  ExecutionHarness harness(*profile, backend);
  ScriptFuzzer fuzzer(WorkloadScripts());
  CampaignOptions options;
  options.max_executions = 6;
  options.snapshot_every = 0;
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  chaos::DisarmAll();
  std::filesystem::remove_all(dir);

  EXPECT_EQ(CountDurBugs(result), 0u);
}

TEST(DurabilityOracleTest, PlantedSkipFsyncIsCaughtAndTriaged) {
  ChaosGuard guard;
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);

  chaos::DisarmAll();
  // Hit 8 lands inside the first script every time — after three
  // acknowledged (never-synced) commits — so the triage replay of a single
  // captured case reproduces the death from a fresh child.
  ASSERT_TRUE(chaos::ArmSpec("wal.append=kill:8", 11).ok());
  const std::string dir = ::testing::TempDir() + "dur_planted_db";
  std::filesystem::remove_all(dir);
  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.storage = StorageKind::kPaged;
  backend.db_dir = dir;
  backend.durability_check = true;
  backend.planted_skip_fsync = true;
  backend.chaos_note = "wal.append=kill:8";
  ExecutionHarness harness(*profile, backend);
  ScriptFuzzer fuzzer(WorkloadScripts());
  CampaignOptions options;
  options.max_executions = 9;
  options.snapshot_every = 0;
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);

  // Commits were acknowledged without fsync, then the schedule SIGKILLed
  // the child: acknowledged effects are genuinely gone and the oracle must
  // say so.
  ASSERT_GE(CountDurBugs(result), 1u);

  // The finding triages like any other crash: replayed, minimized, and
  // written out with the kill schedule in its artifact.
  const std::string repro_dir = ::testing::TempDir() + "dur_planted_repros";
  std::filesystem::remove_all(repro_dir);
  triage::TriageOptions triage_options;
  triage_options.backend = backend;
  triage_options.repro_dir = repro_dir;
  triage::TriageReport report =
      triage::TriageCampaign(result, *profile, "", triage_options);
  chaos::DisarmAll();

  bool saw_dur = false;
  for (const triage::TriagedBug& bug : report.bugs) {
    if (bug.signature.Key().find("DUR-") != std::string::npos) {
      saw_dur = true;
      EXPECT_FALSE(bug.artifact_path.empty());
    }
  }
  EXPECT_TRUE(saw_dur);
  std::filesystem::remove_all(repro_dir);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lego::fuzz
