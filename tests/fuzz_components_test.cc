#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "coverage/rule_coverage.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus.h"
#include "fuzz/harness.h"
#include "fuzz/state.h"
#include "fuzz/testcase.h"
#include "minidb/profile.h"

namespace lego::fuzz {
namespace {

TEST(TestCaseTest, FromSqlAndTypeSequence) {
  auto tc = TestCase::FromSql(
      "CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT * FROM t;");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->size(), 3u);
  EXPECT_EQ(tc->TypeSequence(),
            (std::vector<sql::StatementType>{
                sql::StatementType::kCreateTable, sql::StatementType::kInsert,
                sql::StatementType::kSelect}));
}

TEST(TestCaseTest, FromSqlRejectsBrokenScripts) {
  EXPECT_FALSE(TestCase::FromSql("SELECT FROM;").ok());
  EXPECT_FALSE(TestCase::FromSql("NOT SQL AT ALL").ok());
}

TEST(TestCaseTest, ToSqlRoundTrips) {
  auto tc = TestCase::FromSql("SELECT 1; SELECT 2;");
  ASSERT_TRUE(tc.ok());
  auto again = TestCase::FromSql(tc->ToSql());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 2u);
  EXPECT_EQ(again->ToSql(), tc->ToSql());
}

TEST(TestCaseTest, CloneIsDeep) {
  auto tc = TestCase::FromSql("INSERT INTO t VALUES (1);");
  ASSERT_TRUE(tc.ok());
  TestCase copy = tc->Clone();
  static_cast<sql::InsertStmt*>((*copy.mutable_statements())[0].get())
      ->table = "other";
  EXPECT_NE(copy.ToSql(), tc->ToSql());
}

TEST(CorpusTest, AddAndFavoredSelection) {
  Corpus corpus;
  Rng rng(1);
  EXPECT_EQ(corpus.Select(&rng), nullptr);
  corpus.Add(std::move(*TestCase::FromSql("SELECT 1;")));
  corpus.Add(std::move(*TestCase::FromSql("SELECT 2;")));
  // Fresh seeds are served first, oldest first.
  const Seed* first = corpus.Select(&rng);
  const Seed* second = corpus.Select(&rng);
  EXPECT_EQ(first->id, 0);
  EXPECT_EQ(second->id, 1);
  EXPECT_FALSE(first->favored);
  // After the favored pass, selection is weighted but always succeeds.
  for (int i = 0; i < 50; ++i) EXPECT_NE(corpus.Select(&rng), nullptr);
}

TEST(CorpusTest, ProductiveSeedsPreferred) {
  Corpus corpus;
  Rng rng(2);
  const Seed* dull = corpus.Add(std::move(*TestCase::FromSql("SELECT 1;")));
  const Seed* star = corpus.Add(std::move(*TestCase::FromSql("SELECT 2;")));
  corpus.Select(&rng);  // clear favored flags
  corpus.Select(&rng);
  for (int i = 0; i < 50; ++i) corpus.Credit(star);
  int star_picks = 0;
  for (int i = 0; i < 400; ++i) {
    if (corpus.Select(&rng) == star) ++star_picks;
  }
  EXPECT_GT(star_picks, 200) << "productive seed not preferred";
  (void)dull;
}

TEST(CorpusTest, PointersSurviveGrowth) {
  Corpus corpus;
  const Seed* first = corpus.Add(std::move(*TestCase::FromSql("SELECT 1;")));
  std::string before = first->test_case.ToSql();
  for (int i = 0; i < 500; ++i) {
    corpus.Add(std::move(*TestCase::FromSql("SELECT " + std::to_string(i) + ";")));
  }
  // The deque must keep the first pointer valid (the fuzzers hold it across
  // Add calls).
  EXPECT_EQ(first->test_case.ToSql(), before);
  EXPECT_EQ(first->id, 0);
}

/// The scheduler as it was before rarity caching, the favored cursor and
/// the cached weights: a favored scan from the front and every
/// weight, rarity included, recomputed on every pick.
struct ReferenceCorpus {
  struct Entry {
    int times_selected = 0;
    int discoveries = 0;
    bool favored = true;
    std::vector<uint16_t> rules;
  };
  std::vector<Entry> seeds;
  std::vector<std::string> sql;
  bool rule_weighting = false;
  std::vector<uint32_t> holders;

  void Hold(Entry* e, const std::string& text) {
    cov::RuleMap map;
    cov::CollectRules(text, &map);
    e->rules = map.HitRules();
    holders.resize(cov::RuleMap::size(), 0);
    for (uint16_t r : e->rules) ++holders[r];
  }
  void Add(const std::string& text) {
    seeds.emplace_back();
    sql.push_back(text);
    if (rule_weighting) Hold(&seeds.back(), text);
  }
  void SetRuleWeighting(bool enabled) {
    if (enabled == rule_weighting) return;
    rule_weighting = enabled;
    holders.clear();
    for (Entry& e : seeds) e.rules.clear();
    if (enabled) {
      for (size_t i = 0; i < seeds.size(); ++i) Hold(&seeds[i], sql[i]);
    }
  }
  int Select(Rng* rng) {
    if (seeds.empty()) return -1;
    for (size_t i = 0; i < seeds.size(); ++i) {
      if (seeds[i].favored) {
        seeds[i].favored = false;
        ++seeds[i].times_selected;
        return static_cast<int>(i);
      }
    }
    std::vector<double> weights(seeds.size());
    double total = 0.0;
    for (size_t i = 0; i < seeds.size(); ++i) {
      const Entry& s = seeds[i];
      double w = 1.0 + 2.0 * s.discoveries;
      w /= 1.0 + 0.25 * s.times_selected;
      if (rule_weighting) {
        double rarity = 0.0;
        for (uint16_t r : s.rules) rarity += 1.0 / holders[r];
        w *= 1.0 + rarity;
      }
      weights[i] = w;
      total += w;
    }
    double pick = rng->NextDouble() * total;
    for (size_t i = 0; i < seeds.size(); ++i) {
      pick -= weights[i];
      if (pick <= 0.0) {
        ++seeds[i].times_selected;
        return static_cast<int>(i);
      }
    }
    ++seeds.back().times_selected;
    return static_cast<int>(seeds.size()) - 1;
  }
};

TEST(CorpusTest, SelectMatchesTheUncachedScheduler) {
  // Random admissions (with and without the harness's rule set), picks,
  // discoveries, weighting toggles and state rewinds: the corpus must pick
  // the same seed as the reference at every step.
  const std::vector<std::string> pool = {
      "SELECT 1;",
      "CREATE TABLE t0 (a INT PRIMARY KEY, b TEXT);",
      "INSERT INTO t0 VALUES (1, 'x'); SELECT a FROM t0 ORDER BY a DESC;",
      "CREATE INDEX i0 ON t0 (a); DROP TABLE IF EXISTS t9;",
      "BEGIN; UPDATE t0 SET b = 'z' WHERE a = 2; COMMIT;",
      "WITH w AS (SELECT a FROM t0) SELECT * FROM w UNION ALL SELECT 2;",
      "DELETE FROM t0 WHERE a > 3; SELECT COUNT(*) FROM t0 GROUP BY b;",
      "SELECT t0.a FROM t0 JOIN t0 AS u ON t0.a = u.a WHERE NOT "
      "(t0.a IS NULL);",
  };
  for (bool weighting : {true, false}) {
    Corpus corpus;
    ReferenceCorpus ref;
    corpus.set_rule_weighting(weighting);
    ref.SetRuleWeighting(weighting);
    Rng steps(weighting ? 31 : 32);
    Rng pick_rng(7);
    Rng ref_rng(7);
    std::string saved;
    ReferenceCorpus ref_saved;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = steps.NextBelow(100);
      if (op < 20) {
        const std::string& text = pool[steps.NextBelow(pool.size())];
        auto tc = TestCase::FromSql(text);
        ASSERT_TRUE(tc.ok());
        const std::string printed = tc->ToSql();
        if (steps.NextBool()) {
          cov::RuleMap map;
          cov::CollectRules(printed, &map);
          const cov::RuleSet rules(map);
          corpus.Add(std::move(*tc), &rules);
        } else {
          corpus.Add(std::move(*tc));
        }
        ref.Add(printed);
      } else if (op < 85) {
        const Seed* got = corpus.Select(&pick_rng);
        ASSERT_EQ(corpus.IndexOf(got), ref.Select(&ref_rng)) << step;
      } else if (op < 93) {
        if (ref.seeds.empty()) continue;
        const size_t i = steps.NextBelow(ref.seeds.size());
        corpus.Credit(corpus.at(i));
        ++ref.seeds[i].discoveries;
      } else if (op < 96) {
        const bool on = !corpus.rule_weighting();
        corpus.set_rule_weighting(on);
        ref.SetRuleWeighting(on);
      } else if (op < 98) {
        persist::StateWriter w;
        ASSERT_TRUE(corpus.SaveState(&w).ok());
        saved = w.buffer();
        ref_saved = ref;
      } else if (!saved.empty()) {
        // Rewind to the saved pool: older favored seeds come back.
        persist::StateReader r = persist::StateReader::FromPayload(saved);
        ASSERT_TRUE(corpus.LoadState(&r).ok());
        const bool on = ref.rule_weighting;
        ref = ref_saved;
        ref.SetRuleWeighting(on);
      }
    }
    EXPECT_GT(corpus.size(), 100u);
  }
}

TEST(CorpusTest, LoadRejectsIdsThatAreNotPositions) {
  // Credit() finds a seed by its id, so a pool whose ids are not its
  // positions (a corrupt or foreign state) must not load.
  auto corpus_state = [](int64_t next_id, int64_t seed_id) {
    persist::StateWriter w;
    w.BeginChunk(persist::ChunkTag("CORP"));
    w.WriteI64(next_id);
    w.WriteU64(1);
    SaveTestCase(*TestCase::FromSql("SELECT 1;"), &w);
    w.WriteI64(seed_id);
    w.WriteI64(0);  // times_selected
    w.WriteI64(0);  // discoveries
    w.WriteBool(true);
    w.EndChunk();
    return w.buffer();
  };
  Corpus corpus;
  persist::StateReader good =
      persist::StateReader::FromPayload(corpus_state(1, 0));
  ASSERT_TRUE(corpus.LoadState(&good).ok());
  EXPECT_EQ(corpus.size(), 1u);
  for (auto [next_id, seed_id] : {std::pair<int64_t, int64_t>{1, 3}, {2, 0}}) {
    persist::StateReader bad =
        persist::StateReader::FromPayload(corpus_state(next_id, seed_id));
    EXPECT_FALSE(corpus.LoadState(&bad).ok()) << next_id << " " << seed_id;
  }
}

TEST(HarnessTest, CrashStopsTheScript) {
  ExecutionHarness harness(minidb::DialectProfile::MyLite());
  // The Fig. 3 sequence triggers MY-AUTH-02; the SELECT after it never runs.
  auto tc = TestCase::FromSql(
      "CREATE TABLE v0 (v1 INT);"
      "INSERT INTO v0 VALUES (1);"
      "CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW "
      "INSERT INTO v0 VALUES (2);"
      "SELECT * FROM v0;"
      "SELECT 1;");
  ASSERT_TRUE(tc.ok());
  ExecResult result = harness.Run(*tc);
  EXPECT_TRUE(result.crashed);
  EXPECT_EQ(result.crash.bug_id, "MY-AUTH-02");
  EXPECT_EQ(result.executed, 3);  // crash consumed the 4th statement
}

TEST(HarnessTest, CrashReproducesAcrossRuns) {
  ExecutionHarness harness(minidb::DialectProfile::MyLite());
  auto tc = TestCase::FromSql(
      "CREATE TABLE v0 (v1 INT);"
      "INSERT INTO v0 VALUES (1);"
      "CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW "
      "INSERT INTO v0 VALUES (2);"
      "SELECT * FROM v0;");
  ASSERT_TRUE(tc.ok());
  ExecResult first = harness.Run(*tc);
  ExecResult second = harness.Run(*tc);
  EXPECT_TRUE(first.crashed);
  EXPECT_TRUE(second.crashed);
  EXPECT_EQ(first.crash.stack_hash, second.crash.stack_hash);
}

TEST(HarnessTest, SetupScriptIsInvisibleToTheOracle) {
  ExecutionHarness harness(minidb::DialectProfile::MyLite());
  // A setup script that would itself trigger MY-AUTH-02 must not count.
  harness.set_setup_script(
      "CREATE TABLE v0 (v1 INT);"
      "INSERT INTO v0 VALUES (1);"
      "CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW "
      "INSERT INTO v0 VALUES (2);"
      "SELECT * FROM v0;");
  auto probe = TestCase::FromSql("SELECT 1;");
  ASSERT_TRUE(probe.ok());
  ExecResult result = harness.Run(*probe);
  EXPECT_FALSE(result.crashed);
  EXPECT_EQ(result.executed, 1);
}

TEST(HarnessTest, SetupSchemaVisibleToTestCases) {
  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  harness.set_setup_script("CREATE TABLE pre (x INT);"
                           "INSERT INTO pre VALUES (5);");
  auto tc = TestCase::FromSql("SELECT x FROM pre;");
  ASSERT_TRUE(tc.ok());
  ExecResult result = harness.Run(*tc);
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.executed, 1);
}

TEST(CampaignTest, AccountingAddsUp) {
  ExecutionHarness harness(minidb::DialectProfile::PgLite());

  // A fixed-script fuzzer for deterministic accounting.
  class FixedFuzzer : public Fuzzer {
   public:
    std::string name() const override { return "fixed"; }
    void Prepare(ExecutionHarness*) override {}
    TestCase Next() override {
      return std::move(*TestCase::FromSql(
          "CREATE TABLE t (x INT); INSERT INTO t VALUES (1);"
          "SELECT * FROM nonexistent; SELECT * FROM t;"));
    }
    void OnResult(const TestCase&, const ExecResult&) override {}
  };

  FixedFuzzer fuzzer;
  CampaignOptions options;
  options.max_executions = 10;
  options.snapshot_every = 5;
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  EXPECT_EQ(result.executions, 10);
  EXPECT_EQ(result.statements_executed, 30);  // 3 ok per run
  EXPECT_EQ(result.statement_errors, 10);     // 1 rejected per run
  EXPECT_EQ(result.coverage_curve.size(), 2u);
  // Affinities of the fixed script: CT->INS, INS->SEL, SEL->SEL skipped.
  EXPECT_EQ(result.affinities.size(), 2u);
  EXPECT_TRUE(result.bug_ids.empty());
}

TEST(CampaignTest, StatementBudgetStopsEarly) {
  ExecutionHarness harness(minidb::DialectProfile::PgLite());
  class OneLiner : public Fuzzer {
   public:
    std::string name() const override { return "oneliner"; }
    void Prepare(ExecutionHarness*) override {}
    TestCase Next() override {
      return std::move(*TestCase::FromSql("SELECT 1; SELECT 2;"));
    }
    void OnResult(const TestCase&, const ExecResult&) override {}
  };
  OneLiner fuzzer;
  CampaignOptions options;
  options.max_executions = 1000;
  options.max_statements = 20;
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  EXPECT_EQ(result.executions, 10);  // 2 statements per execution
}

}  // namespace
}  // namespace lego::fuzz
