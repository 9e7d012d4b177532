// TLP metamorphic oracle: a correct engine never trips it; a deliberately
// planted NOT(NULL) evaluation bug (NULL-predicate rows counted in both the
// NOT-phi and phi-IS-NULL partitions) must trip it; ineligible query shapes
// yield no verdict either way. The oracle is driven through the DbBackend
// seam, the same way the harness and triage replay drive it.

#include <gtest/gtest.h>

#include <string>

#include "fuzz/backend_inproc.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "minidb/database.h"
#include "minidb/eval.h"
#include "triage/tlp_oracle.h"

namespace lego::triage {
namespace {

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
/// any synthesized phi over it has UNKNOWN rows to mispartition. The fault
/// hook is disarmed: these tests exercise the logic oracle on a crash-free
/// engine, as the pre-seam direct-Database tests did.
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

TEST(TlpOracleTest, CorrectEngineIsNeverFlagged) {
  PopulatedBackend backend;
  TlpOracle oracle;
  fuzz::LogicBugInfo info;
  for (const char* q :
       {"SELECT a FROM t0 WHERE b < 2;", "SELECT b FROM t0;",
        "SELECT a, b FROM t0 WHERE b > 0;", "SELECT * FROM t0;"}) {
    sql::StmtPtr stmt = One(q);
    EXPECT_FALSE(oracle.Check(&backend, *stmt, &info)) << q;
  }
}

TEST(TlpOracleTest, PlantedNotNullBugIsCaught) {
  PopulatedBackend backend;
  TlpOracle oracle;
  PlantedNotNullBug plant;
  // phi is synthesized over column b (the only column the query mentions);
  // with the plant, the two NULL-b rows satisfy both NOT phi and
  // phi IS NULL, so the partitions sum to more rows than the original.
  sql::StmtPtr stmt = One("SELECT b FROM t0;");
  fuzz::LogicBugInfo info;
  ASSERT_TRUE(oracle.Check(&backend, *stmt, &info));
  EXPECT_EQ(info.check, "tlp");
  EXPECT_NE(info.query.find("FROM t0"), std::string::npos) << info.query;
  EXPECT_NE(info.fingerprint, 0u);
  EXPECT_NE(info.detail.find("mismatch"), std::string::npos);

  // Deterministic: same query, same verdict and fingerprint.
  fuzz::LogicBugInfo again;
  ASSERT_TRUE(oracle.Check(&backend, *stmt, &again));
  EXPECT_EQ(again.fingerprint, info.fingerprint);
  EXPECT_EQ(again.detail, info.detail);
}

TEST(TlpOracleTest, PlantRevertedMeansClean) {
  PopulatedBackend backend;
  TlpOracle oracle;
  fuzz::LogicBugInfo info;
  { PlantedNotNullBug plant; }  // plant and revert
  sql::StmtPtr stmt = One("SELECT b FROM t0;");
  EXPECT_FALSE(oracle.Check(&backend, *stmt, &info));
}

TEST(TlpOracleTest, IneligibleShapesGetNoVerdict) {
  PopulatedBackend backend;
  TlpOracle oracle;
  PlantedNotNullBug plant;  // even with the plant active
  fuzz::LogicBugInfo info;
  for (const char* q : {
           "SELECT COUNT(b) FROM t0;",          // aggregate
           "SELECT DISTINCT b FROM t0;",        // DISTINCT
           "SELECT b FROM t0 GROUP BY b;",      // GROUP BY
           "SELECT b FROM t0 LIMIT 3;",         // LIMIT
           "SELECT b FROM t0 UNION SELECT a FROM t0;",  // compound
           "SELECT 1;",                         // no FROM
       }) {
    sql::StmtPtr stmt = One(q);
    EXPECT_FALSE(oracle.Check(&backend, *stmt, &info)) << q;
  }
}

TEST(TlpOracleTest, LeavesSessionUsable) {
  // The oracle runs extra SELECTs; the session must stay usable and the
  // table contents untouched.
  PopulatedBackend backend;
  TlpOracle oracle;
  fuzz::LogicBugInfo info;
  sql::StmtPtr stmt = One("SELECT b FROM t0;");
  (void)oracle.Check(&backend, *stmt, &info);
  fuzz::StmtOutcome rows =
      backend.Execute(*One("SELECT a FROM t0;"), /*want_rows=*/true);
  ASSERT_EQ(rows.status, fuzz::StmtOutcome::Status::kOk);
  EXPECT_EQ(rows.rows.size(), 5u);
}

}  // namespace
}  // namespace lego::triage
