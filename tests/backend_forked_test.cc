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
#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "baselines/squirrel_like.h"
#include "minidb/database.h"
#include "minidb/profile.h"
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

}  // namespace
}  // namespace lego::fuzz
