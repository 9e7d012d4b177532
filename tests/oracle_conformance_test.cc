// Oracle conformance harness: every logic oracle (TLP, NoREC, clause-guided)
// must produce ZERO false positives against the clean engine across fuzzed
// workloads on every dialect profile, must be deterministic (byte-identical
// rerun), and must either flag the planted NOT-NULL evaluator defect or be
// explicitly asserted blind to it:
//
//   oracle  | planted NOT-NULL eval bug
//   --------+---------------------------------------------------------------
//   tlp     | CAUGHT  — NULL-phi rows land in both NOT-phi and phi-IS-NULL
//   clause  | CAUGHT  — WHERE slot evaluates NOT p over the query's own p
//   norec   | BLIND   — both sides run p through the same Evaluator, so an
//           |           eval defect distorts them identically (NoREC targets
//           |           optimization asymmetries, e.g. index-path bugs)

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fuzz/backend_inproc.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "minidb/database.h"
#include "minidb/eval.h"
#include "triage/clause_oracle.h"
#include "triage/norec_oracle.h"
#include "triage/oracle_suite.h"
#include "triage/tlp_oracle.h"

namespace lego::triage {
namespace {

constexpr int kCasesPerProfile = 500;
const char* const kProfiles[] = {"pglite", "mylite", "marialite", "comdlite"};
const char* const kOracleSpecs[] = {"tlp", "norec", "clause"};

/// RAII around the eval plant so a failing assertion can't leak the bug
/// into later tests.
class PlantedNotNullBug {
 public:
  PlantedNotNullBug() { minidb::Evaluator::SetNotNullEvalBugForTesting(true); }
  ~PlantedNotNullBug() {
    minidb::Evaluator::SetNotNullEvalBugForTesting(false);
  }
};

/// Backend over a table whose only mentionable column (b) holds NULLs, so
/// any partition predicate over it has UNKNOWN rows to mispartition.
class PopulatedBackend : public fuzz::InProcessBackend {
 public:
  PopulatedBackend()
      : fuzz::InProcessBackend(*minidb::DialectProfile::ByName("pglite")) {
    database().set_fault_hook(nullptr);
    auto r = database().ExecuteScript(
        "CREATE TABLE t0 (a INT, b INT);"
        "INSERT INTO t0 VALUES (1, 0);"
        "INSERT INTO t0 VALUES (2, 5);"
        "INSERT INTO t0 VALUES (3, NULL);"
        "INSERT INTO t0 VALUES (4, NULL);"
        "INSERT INTO t0 VALUES (5, -7);");
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->errors, 0);
    }
  }
};

/// Parses a single statement.
sql::StmtPtr One(const std::string& sql) {
  auto tc = fuzz::TestCase::FromSql(sql);
  EXPECT_TRUE(tc.ok());
  EXPECT_EQ(tc->size(), 1u);
  return std::move((*tc->mutable_statements())[0]);
}

/// A fuzzed campaign with `spec` oracles armed against the clean engine.
fuzz::CampaignResult RunWithOracles(const std::string& profile_name,
                                    const std::string& spec, uint64_t seed) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(profile_name);
  EXPECT_NE(profile, nullptr) << profile_name;
  core::LegoOptions options;
  options.rng_seed = seed;
  core::LegoFuzzer fuzzer(*profile, options);
  fuzz::ExecutionHarness harness(*profile);
  std::string error;
  std::unique_ptr<OracleSuite> suite = OracleSuite::FromSpec(spec, &error);
  EXPECT_NE(suite, nullptr) << error;
  harness.set_logic_oracle(suite.get());
  fuzz::CampaignOptions campaign;
  campaign.max_executions = kCasesPerProfile;
  campaign.snapshot_every = kCasesPerProfile;
  return fuzz::RunCampaign(&fuzzer, &harness, campaign);
}

TEST(OracleConformanceTest, ZeroFalsePositivesOnCleanEngine) {
  // 500 fuzzer-generated cases per (profile, oracle): a clean engine must
  // never be flagged. Injected synthetic crashes still happen on some
  // profiles — those go through the crash oracle and must not bleed into
  // logic findings.
  for (const char* profile : kProfiles) {
    for (const char* spec : kOracleSpecs) {
      fuzz::CampaignResult result = RunWithOracles(profile, spec, 11);
      EXPECT_EQ(result.logic_bugs_total, 0)
          << profile << "/" << spec << ": "
          << (result.captured_logic_bugs.empty()
                  ? std::string("?")
                  : result.captured_logic_bugs[0].detail);
      EXPECT_EQ(result.logic_fingerprints.size(), 0u);
    }
  }
}

TEST(OracleConformanceTest, FullSuiteRerunIsByteIdentical) {
  fuzz::CampaignResult a = RunWithOracles("pglite", "tlp,norec,clause", 29);
  fuzz::CampaignResult b = RunWithOracles("pglite", "tlp,norec,clause", 29);
  EXPECT_EQ(fuzz::ResultDigest(a), fuzz::ResultDigest(b));
  EXPECT_EQ(a.logic_bugs_total, b.logic_bugs_total);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
}

TEST(OracleConformanceTest, TlpCatchesPlantedEvalBug) {
  PopulatedBackend backend;
  TlpOracle oracle;
  PlantedNotNullBug plant;
  sql::StmtPtr stmt = One("SELECT b FROM t0;");
  fuzz::LogicBugInfo info;
  ASSERT_TRUE(oracle.Check(&backend, *stmt, &info));
  EXPECT_EQ(info.check, "tlp");
}

TEST(OracleConformanceTest, ClauseCatchesPlantedEvalBug) {
  // The WHERE slot partitions on the query's own predicate; its NOT-p leg
  // runs straight into the planted NOT(NULL)=TRUE defect.
  PopulatedBackend backend;
  ClauseOracle oracle;
  PlantedNotNullBug plant;
  sql::StmtPtr stmt = One("SELECT b FROM t0 WHERE b < 3;");
  fuzz::LogicBugInfo info;
  ASSERT_TRUE(oracle.Check(&backend, *stmt, &info));
  EXPECT_EQ(info.check, "clause");
  EXPECT_NE(info.detail.find("where slot"), std::string::npos) << info.detail;

  // Deterministic: same query, same verdict and fingerprint.
  fuzz::LogicBugInfo again;
  ASSERT_TRUE(oracle.Check(&backend, *stmt, &again));
  EXPECT_EQ(again.fingerprint, info.fingerprint);
  EXPECT_EQ(again.detail, info.detail);
}

TEST(OracleConformanceTest, NoRecIsDocumentedBlindToEvalBug) {
  // NoREC compares WHERE-filtered counts against the same predicate moved
  // into the projection. Both sides run through one Evaluator, so a pure
  // expression-evaluation defect cancels out — asserted here so the blind
  // spot stays documented rather than silently assumed. Coverage of this
  // defect class comes from TLP and the clause oracle (above).
  PopulatedBackend backend;
  NoRecOracle oracle;
  PlantedNotNullBug plant;
  fuzz::LogicBugInfo info;
  for (const char* q : {
           "SELECT b FROM t0;",
           "SELECT b FROM t0 WHERE b < 3;",
           "SELECT b FROM t0 WHERE NOT (b < 3);",
       }) {
    sql::StmtPtr stmt = One(q);
    EXPECT_FALSE(oracle.Check(&backend, *stmt, &info)) << q;
  }
}

TEST(OracleConformanceTest, SuiteFirstFindingWins) {
  PopulatedBackend backend;
  std::string error;
  std::unique_ptr<OracleSuite> suite =
      OracleSuite::FromSpec("tlp,norec,clause", &error);
  ASSERT_NE(suite, nullptr) << error;
  PlantedNotNullBug plant;
  sql::StmtPtr stmt = One("SELECT b FROM t0;");
  fuzz::LogicBugInfo info;
  ASSERT_TRUE(suite->Check(&backend, *stmt, &info));
  EXPECT_EQ(info.check, "tlp");  // listed first, checked first
}

TEST(OracleConformanceTest, SuiteSpecParsing) {
  std::string error;
  EXPECT_EQ(OracleSuite::FromSpec("", &error), nullptr);
  EXPECT_EQ(OracleSuite::FromSpec("tlp,unknown", &error), nullptr);
  EXPECT_NE(error.find("unknown"), std::string::npos);
  std::unique_ptr<OracleSuite> suite =
      OracleSuite::FromSpec("clause,tlp,clause", &error);
  ASSERT_NE(suite, nullptr);
  EXPECT_EQ(suite->MemberNames(),
            (std::vector<std::string>{"clause", "tlp"}));
}

TEST(OracleConformanceTest, CampaignWithPlantFlagsAtLeastOnce) {
  // The CI planted-defect job runs this same configuration end-to-end via
  // the CLI; keep the in-process pin so budget/seed drift is caught here
  // first.
  PlantedNotNullBug plant;
  fuzz::CampaignResult result = RunWithOracles("pglite", "tlp,clause", 7);
  EXPECT_GE(result.logic_bugs_total, 1)
      << "planted eval defect not flagged by any oracle";
}

}  // namespace
}  // namespace lego::triage
