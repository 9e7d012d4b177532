// Grammar-rule coverage: the parser-production hit-set that serves as the
// campaign's secondary feedback signal. Pinned properties: collection is a
// pure function of the SQL text (parse-twice idempotence, Print→Parse
// fixpoint), the campaign-global rule count is monotone, serde round-trips
// bit-exactly, the signal distinguishes seeds whose engine edge coverage is
// identical, and a serial campaign with the signal disabled is bit-identical
// across runs (the disabled path adds no observable behavior).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "coverage/rule_coverage.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"
#include "persist/io.h"
#include "sql/grammar_coverage.h"

namespace lego::fuzz {
namespace {

const char* const kScript =
    "CREATE TABLE t0 (a INT PRIMARY KEY, b TEXT);"
    "INSERT INTO t0 VALUES (1, 'x');"
    "SELECT a, b FROM t0 WHERE a < 5 ORDER BY a;";

TEST(RuleCoverageTest, CollectTwiceIsIdempotent) {
  cov::RuleMap first;
  cov::RuleMap second;
  ASSERT_TRUE(cov::CollectRules(kScript, &first));
  ASSERT_TRUE(cov::CollectRules(kScript, &second));
  EXPECT_EQ(first.HitRules(), second.HitRules());
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(), cov::RuleMap::size()));
  EXPECT_GT(first.CountNonZero(), 0u);
}

TEST(RuleCoverageTest, CollectFailsOnUnparsableText) {
  cov::RuleMap map;
  EXPECT_FALSE(cov::CollectRules("SELEC chaos FROM;", &map));
}

TEST(RuleCoverageTest, PrintParseRoundTripSameRules) {
  // Printing a parsed script and re-collecting must reach a fixpoint: the
  // printed form's rule set equals the rule set of its own reparse-print.
  // (The harness always collects over tc.ToSql(), i.e. the printed form, so
  // this is exactly the invariant the feedback signal relies on.)
  for (const char* script : {
           kScript,
           "CREATE INDEX i0 ON t0 (a); DROP TABLE IF EXISTS t9;",
           "SELECT t0.a FROM t0 JOIN t0 AS u ON t0.a = u.a WHERE NOT "
           "(t0.a IS NULL) GROUP BY t0.a HAVING COUNT(*) > 0;",
           "INSERT OR IGNORE INTO t0 (a, b) VALUES (2, 'y'); BEGIN; "
           "UPDATE t0 SET b = 'z' WHERE a = 2; COMMIT;",
           "WITH w AS (SELECT a FROM t0) SELECT * FROM w UNION ALL "
           "SELECT a FROM t0 ORDER BY 1 DESC LIMIT 3;",
       }) {
    auto tc = TestCase::FromSql(script);
    ASSERT_TRUE(tc.ok()) << script;
    std::string printed = tc->ToSql();
    auto tc2 = TestCase::FromSql(printed);
    ASSERT_TRUE(tc2.ok()) << printed;
    cov::RuleMap from_printed;
    cov::RuleMap from_reprint;
    ASSERT_TRUE(cov::CollectRules(printed, &from_printed));
    ASSERT_TRUE(cov::CollectRules(tc2->ToSql(), &from_reprint));
    EXPECT_EQ(from_printed.HitRules(), from_reprint.HitRules()) << script;
  }
}

TEST(RuleCoverageTest, MonotoneRuleCountOverCampaign) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  core::LegoOptions options;
  options.rng_seed = 13;
  core::LegoFuzzer fuzzer(*profile, options);
  ExecutionHarness harness(*profile);
  harness.set_rule_coverage(true);
  fuzzer.Prepare(&harness);
  size_t prev = 0;
  for (int i = 0; i < 300; ++i) {
    TestCase tc = fuzzer.Next();
    ExecResult r = harness.Run(tc);
    fuzzer.OnResult(tc, r);
    EXPECT_GE(r.total_rules, prev);
    EXPECT_EQ(r.total_rules, harness.CoveredRules());
    prev = r.total_rules;
  }
  EXPECT_GT(prev, 0u);
  EXPECT_LE(prev, sql::kNumGrammarRules);
}

TEST(RuleCoverageTest, GlobalRuleStateRoundTripsBitExact) {
  cov::GlobalRuleCoverage global;
  cov::RuleMap map;
  ASSERT_TRUE(cov::CollectRules(kScript, &map));
  EXPECT_TRUE(global.MergeDetectNew(map));
  ASSERT_TRUE(cov::CollectRules("ROLLBACK; CHECKPOINT;", &map));
  EXPECT_TRUE(global.MergeDetectNew(map));

  persist::StateWriter w1;
  ASSERT_TRUE(global.SaveState(&w1).ok());
  persist::StateReader r = persist::StateReader::FromPayload(w1.buffer());
  cov::GlobalRuleCoverage loaded;
  ASSERT_TRUE(loaded.LoadState(&r).ok());
  EXPECT_EQ(loaded.CoveredRules(), global.CoveredRules());

  persist::StateWriter w2;
  ASSERT_TRUE(loaded.SaveState(&w2).ok());
  EXPECT_EQ(w1.buffer(), w2.buffer());  // save -> load -> save, byte-equal
}

TEST(RuleCoverageTest, DistinguishesSeedsEdgeCoverageCannot) {
  // Two queries that drive the engine through an identical edge set but
  // different grammar productions: ORDER BY ... DESC only flips a sort
  // comparator flag (no new probe fires), while the parser's OrderByDesc
  // production is new. The rule signal separates what the edge signal
  // cannot.
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ExecutionHarness harness(*profile);
  harness.set_setup_script(
      "CREATE TABLE t0 (a INT, b INT);"
      "INSERT INTO t0 VALUES (1, 2);"
      "INSERT INTO t0 VALUES (3, 4);");
  harness.set_rule_coverage(true);

  auto asc = TestCase::FromSql("SELECT a FROM t0 ORDER BY a;");
  auto desc = TestCase::FromSql("SELECT a FROM t0 ORDER BY a DESC;");
  ASSERT_TRUE(asc.ok());
  ASSERT_TRUE(desc.ok());

  ExecResult first = harness.Run(*asc);
  EXPECT_TRUE(first.new_coverage);
  EXPECT_TRUE(first.new_rules);

  ExecResult second = harness.Run(*desc);
  EXPECT_FALSE(second.new_coverage);  // same engine path: edge-blind
  EXPECT_TRUE(second.new_rules);      // new production: rule-visible
  EXPECT_EQ(second.total_rules, first.total_rules + 1);
}

TEST(RuleCoverageTest, SerialCampaignBitIdenticalWithSignalDisabled) {
  // With rule coverage left off (the default), two fresh serial campaigns
  // produce byte-identical results — the compiled-in signal path must be
  // unobservable until armed.
  auto run = [] {
    const minidb::DialectProfile* profile =
        minidb::DialectProfile::ByName("pglite");
    core::LegoOptions options;
    options.rng_seed = 21;
    core::LegoFuzzer fuzzer(*profile, options);
    ExecutionHarness harness(*profile);
    CampaignOptions campaign;
    campaign.max_executions = 400;
    campaign.snapshot_every = 100;
    return RunCampaign(&fuzzer, &harness, campaign);
  };
  CampaignResult a = run();
  CampaignResult b = run();
  EXPECT_EQ(a.rules, 0u);  // disabled: no rule accounting at all
  EXPECT_EQ(ResultDigest(a), ResultDigest(b));
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
}

}  // namespace
}  // namespace lego::fuzz
