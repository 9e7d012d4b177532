#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fuzz/testcase.h"
#include "lego/affinity.h"
#include "lego/ast_library.h"
#include "lego/generator.h"
#include "lego/instantiator.h"
#include "lego/mutation.h"
#include "lego/synthesis.h"
#include "minidb/database.h"
#include "sql/parser.h"

namespace lego::core {
namespace {

using sql::StatementType;

// ---------------------------------------------------------------------------
// Algorithm 2: type-affinity analysis
// ---------------------------------------------------------------------------

TEST(AffinityTest, AnalyzeRecordsAdjacentDistinctPairs) {
  TypeAffinityMap map;
  auto found = map.Analyze({StatementType::kCreateTable,
                            StatementType::kInsert, StatementType::kInsert,
                            StatementType::kSelect});
  // Fig. 1 sequence: CT->INSERT and INSERT->SELECT; the INSERT->INSERT
  // repetition is skipped per Algorithm 2 lines 5-7.
  ASSERT_EQ(found.size(), 2u);
  EXPECT_TRUE(map.Contains(StatementType::kCreateTable,
                           StatementType::kInsert));
  EXPECT_TRUE(map.Contains(StatementType::kInsert, StatementType::kSelect));
  EXPECT_FALSE(map.Contains(StatementType::kInsert, StatementType::kInsert));
  EXPECT_EQ(map.Count(), 2u);
}

TEST(AffinityTest, AnalyzeIsIdempotent) {
  TypeAffinityMap map;
  std::vector<StatementType> seq = {StatementType::kCreateTable,
                                    StatementType::kInsert};
  EXPECT_EQ(map.Analyze(seq).size(), 1u);
  EXPECT_EQ(map.Analyze(seq).size(), 0u);  // nothing new the second time
  EXPECT_EQ(map.Count(), 1u);
}

TEST(AffinityTest, DirectionMatters) {
  TypeAffinityMap map;
  map.Add(StatementType::kInsert, StatementType::kSelect);
  EXPECT_TRUE(map.Contains(StatementType::kInsert, StatementType::kSelect));
  EXPECT_FALSE(map.Contains(StatementType::kSelect, StatementType::kInsert));
}

TEST(AffinityTest, EmptyAndSingletonSequences) {
  TypeAffinityMap map;
  EXPECT_TRUE(map.Analyze({}).empty());
  EXPECT_TRUE(map.Analyze({StatementType::kSelect}).empty());
  EXPECT_EQ(map.Count(), 0u);
}

TEST(AffinityTest, AllReturnsEveryPair) {
  TypeAffinityMap map;
  map.Add(StatementType::kCreateTable, StatementType::kInsert);
  map.Add(StatementType::kCreateTable, StatementType::kSelect);
  map.Add(StatementType::kInsert, StatementType::kSelect);
  EXPECT_EQ(map.All().size(), 3u);
  map.Clear();
  EXPECT_EQ(map.Count(), 0u);
  EXPECT_TRUE(map.All().empty());
}

// ---------------------------------------------------------------------------
// Algorithm 3: progressive sequence synthesis
// ---------------------------------------------------------------------------

TEST(SynthesisTest, PaperExampleLengthTwo) {
  // Paper §III-B: target length 2, current "CREATE TABLE", affinity
  // CREATE TABLE -> {INSERT, SELECT} yields both length-2 sequences.
  TypeAffinityMap map;
  SequenceSynthesizer synth(/*max_len=*/2);
  synth.AddStartType(StatementType::kCreateTable);

  map.Add(StatementType::kCreateTable, StatementType::kInsert);
  auto first = synth.OnNewAffinity(StatementType::kCreateTable,
                                   StatementType::kInsert, map);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0],
            (std::vector<StatementType>{StatementType::kCreateTable,
                                        StatementType::kInsert}));

  map.Add(StatementType::kCreateTable, StatementType::kSelect);
  auto second = synth.OnNewAffinity(StatementType::kCreateTable,
                                    StatementType::kSelect, map);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0],
            (std::vector<StatementType>{StatementType::kCreateTable,
                                        StatementType::kSelect}));
}

TEST(SynthesisTest, OnlyNewSequencesAreGenerated) {
  // Fig. 6: when affinity 4->6 arrives, only sequences containing it are
  // enumerated — everything produced must contain the new pair.
  TypeAffinityMap map;
  SequenceSynthesizer synth(/*max_len=*/4);
  for (auto t : {StatementType::kCreateTable, StatementType::kInsert,
                 StatementType::kSelect, StatementType::kUpdate}) {
    synth.AddStartType(t);
  }
  map.Add(StatementType::kCreateTable, StatementType::kInsert);
  synth.OnNewAffinity(StatementType::kCreateTable, StatementType::kInsert,
                      map);
  map.Add(StatementType::kInsert, StatementType::kSelect);
  synth.OnNewAffinity(StatementType::kInsert, StatementType::kSelect, map);

  map.Add(StatementType::kSelect, StatementType::kUpdate);
  auto fresh = synth.OnNewAffinity(StatementType::kSelect,
                                   StatementType::kUpdate, map);
  ASSERT_FALSE(fresh.empty());
  for (const auto& seq : fresh) {
    bool contains = false;
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      if (seq[i] == StatementType::kSelect &&
          seq[i + 1] == StatementType::kUpdate) {
        contains = true;
      }
    }
    EXPECT_TRUE(contains) << "sequence missing the new affinity";
    EXPECT_LE(seq.size(), 4u);
    EXPECT_GE(seq.size(), 2u);
  }
}

TEST(SynthesisTest, TransitiveExpansionReachesMaxLen) {
  // A -> B then B -> C: synthesizing on B -> C must produce A,B,C.
  TypeAffinityMap map;
  SequenceSynthesizer synth(/*max_len=*/3);
  synth.AddStartType(StatementType::kCreateTable);
  synth.AddStartType(StatementType::kInsert);

  map.Add(StatementType::kCreateTable, StatementType::kInsert);
  synth.OnNewAffinity(StatementType::kCreateTable, StatementType::kInsert,
                      map);
  map.Add(StatementType::kInsert, StatementType::kSelect);
  auto fresh = synth.OnNewAffinity(StatementType::kInsert,
                                   StatementType::kSelect, map);
  std::vector<StatementType> want = {StatementType::kCreateTable,
                                     StatementType::kInsert,
                                     StatementType::kSelect};
  EXPECT_NE(std::find(fresh.begin(), fresh.end(), want), fresh.end());
}

TEST(SynthesisTest, NoDuplicateSequences) {
  TypeAffinityMap map;
  SequenceSynthesizer synth(/*max_len=*/4);
  std::vector<StatementType> types = {
      StatementType::kCreateTable, StatementType::kInsert,
      StatementType::kSelect, StatementType::kUpdate,
      StatementType::kDelete};
  for (auto t : types) synth.AddStartType(t);
  for (auto t1 : types) {
    for (auto t2 : types) {
      if (t1 == t2) continue;
      if (map.Add(t1, t2)) synth.OnNewAffinity(t1, t2, map);
    }
  }
  std::set<std::vector<StatementType>> unique(synth.sequences().begin(),
                                              synth.sequences().end());
  EXPECT_EQ(unique.size(), synth.sequences().size())
      << "synthesizer produced duplicate sequences";
}

TEST(SynthesisTest, EverySequenceRespectsAffinities) {
  TypeAffinityMap map;
  SequenceSynthesizer synth(/*max_len=*/5);
  std::vector<StatementType> types = {
      StatementType::kCreateTable, StatementType::kInsert,
      StatementType::kSelect, StatementType::kUpdate};
  for (auto t : types) synth.AddStartType(t);
  map.Add(StatementType::kCreateTable, StatementType::kInsert);
  synth.OnNewAffinity(StatementType::kCreateTable, StatementType::kInsert,
                      map);
  map.Add(StatementType::kInsert, StatementType::kSelect);
  synth.OnNewAffinity(StatementType::kInsert, StatementType::kSelect, map);
  map.Add(StatementType::kSelect, StatementType::kUpdate);
  synth.OnNewAffinity(StatementType::kSelect, StatementType::kUpdate, map);

  for (const auto& seq : synth.sequences()) {
    for (size_t i = 0; i + 1 < seq.size(); ++i) {
      EXPECT_TRUE(map.Contains(seq[i], seq[i + 1]))
          << "adjacent pair not licensed by an affinity";
    }
  }
}

TEST(SynthesisTest, CapBoundsTotalSequences) {
  TypeAffinityMap map;
  SequenceSynthesizer synth(/*max_len=*/8);
  // Dense affinity graph over many types would explode without the cap.
  for (int i = 0; i < 20; ++i) synth.AddStartType(static_cast<StatementType>(i));
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      if (i == j) continue;
      auto t1 = static_cast<StatementType>(i);
      auto t2 = static_cast<StatementType>(j);
      if (map.Add(t1, t2)) synth.OnNewAffinity(t1, t2, map);
      if (synth.TotalSequences() >= SequenceSynthesizer::kMaxSequences) break;
    }
  }
  EXPECT_LE(synth.TotalSequences(), SequenceSynthesizer::kMaxSequences);
}

// ---------------------------------------------------------------------------
// AST library, schema context, generator, instantiator
// ---------------------------------------------------------------------------

TEST(AstLibraryTest, StoresAndSamplesByType) {
  AstLibrary library;
  auto tc = fuzz::TestCase::FromSql(
      "CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT * FROM t;");
  ASSERT_TRUE(tc.ok());
  library.AddTestCase(*tc);
  EXPECT_EQ(library.TotalCount(), 3u);
  EXPECT_EQ(library.CountFor(StatementType::kInsert), 1u);

  Rng rng(1);
  sql::StmtPtr sampled = library.Sample(StatementType::kInsert, &rng);
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->type(), StatementType::kInsert);
  EXPECT_EQ(library.Sample(StatementType::kGrant, &rng), nullptr);
}

TEST(AstLibraryTest, SamplesAreIndependentCopies) {
  AstLibrary library;
  auto tc = fuzz::TestCase::FromSql("INSERT INTO t VALUES (1);");
  ASSERT_TRUE(tc.ok());
  library.AddTestCase(*tc);
  Rng rng(1);
  auto a = library.Sample(StatementType::kInsert, &rng);
  auto b = library.Sample(StatementType::kInsert, &rng);
  EXPECT_NE(a.get(), b.get());
  static_cast<sql::InsertStmt*>(a.get())->table = "changed";
  EXPECT_EQ(static_cast<sql::InsertStmt*>(b.get())->table, "t");
}

TEST(AstLibraryTest, CapTriggersRingReplacement) {
  AstLibrary library(/*cap_per_type=*/4);
  for (int i = 0; i < 10; ++i) {
    auto tc = fuzz::TestCase::FromSql(
        "INSERT INTO t" + std::to_string(i) + " VALUES (1);");
    ASSERT_TRUE(tc.ok());
    library.AddTestCase(*tc);
  }
  EXPECT_EQ(library.CountFor(StatementType::kInsert), 4u);
}

/// Adds `INSERT INTO t<i> VALUES (1)` for i in [from, to).
void AddInserts(AstLibrary* library, int from, int to) {
  for (int i = from; i < to; ++i) {
    auto tc = fuzz::TestCase::FromSql("INSERT INTO t" + std::to_string(i) +
                                      " VALUES (1);");
    ASSERT_TRUE(tc.ok());
    library->AddTestCase(*tc);
  }
}

/// The SQL of `draws` INSERT samples from `library` under Rng(seed).
std::vector<std::string> InsertDraws(const AstLibrary& library,
                                     uint64_t seed, int draws = 40) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < draws; ++i) {
    sql::StmtPtr stmt = library.Sample(StatementType::kInsert, &rng);
    out.push_back(stmt == nullptr ? "<none>" : sql::ToSql(*stmt));
  }
  return out;
}

TEST(AstLibraryTest, SnapshotSamplesWhatTheLibraryHeldWhenTaken) {
  // Reference libraries receive the same statements but are never
  // snapshotted: a snapshot must draw exactly what they draw, and the live
  // library must keep drawing what an unshared library would.
  AstLibrary library(/*cap_per_type=*/4);
  AstLibrary ref_partial(4);
  AstLibrary ref_full(4);
  AstLibrary ref_live(4);
  AddInserts(&library, 0, 3);
  AddInserts(&ref_partial, 0, 3);
  auto partial = library.Snapshot();  // t0..t2, bucket below cap
  AddInserts(&library, 3, 4);
  AddInserts(&ref_full, 0, 4);
  auto full = library.Snapshot();  // t0..t3, bucket at cap
  AddInserts(&library, 4, 10);     // six ring replacements
  AddInserts(&ref_live, 0, 10);

  EXPECT_EQ(partial->CountFor(StatementType::kInsert), 3u);
  EXPECT_EQ(full->CountFor(StatementType::kInsert), 4u);
  EXPECT_EQ(library.CountFor(StatementType::kInsert), 4u);
  for (uint64_t seed : {1u, 2u, 3u}) {
    EXPECT_EQ(InsertDraws(*partial, seed), InsertDraws(ref_partial, seed));
    EXPECT_EQ(InsertDraws(*full, seed), InsertDraws(ref_full, seed));
    EXPECT_EQ(InsertDraws(library, seed), InsertDraws(ref_live, seed));
  }
  std::set<std::string> held;
  for (const std::string& sql : InsertDraws(*full, 9, 200)) held.insert(sql);
  std::set<std::string> first_four;
  for (int i = 0; i < 4; ++i) {
    auto tc = fuzz::TestCase::FromSql("INSERT INTO t" + std::to_string(i) +
                                      " VALUES (1);");
    ASSERT_TRUE(tc.ok());
    first_four.insert(sql::ToSql(*tc->statements()[0]));
  }
  EXPECT_EQ(held, first_four);
  EXPECT_EQ(partial->CountFor(StatementType::kSelect), 0u);
}

TEST(SchemaContextTest, TracksDdlEffects) {
  SchemaContext ctx;
  auto apply = [&](const std::string& text) {
    auto stmt = sql::Parser::ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    ctx.Apply(**stmt);
  };
  apply("CREATE TABLE t (a INT, b TEXT)");
  ASSERT_NE(ctx.Find("t"), nullptr);
  EXPECT_EQ(ctx.Find("t")->columns.size(), 2u);

  apply("ALTER TABLE t ADD COLUMN c REAL");
  EXPECT_EQ(ctx.Find("t")->columns.size(), 3u);
  apply("ALTER TABLE t DROP COLUMN b");
  EXPECT_EQ(ctx.Find("t")->columns.size(), 2u);
  apply("ALTER TABLE t RENAME COLUMN a TO z");
  EXPECT_EQ(ctx.Find("t")->columns[0].name, "z");
  apply("ALTER TABLE t RENAME TO u");
  EXPECT_EQ(ctx.Find("t"), nullptr);
  ASSERT_NE(ctx.Find("u"), nullptr);

  apply("CREATE VIEW v AS SELECT z FROM u");
  EXPECT_TRUE(ctx.Find("v")->is_view);
  apply("DROP VIEW v");
  EXPECT_EQ(ctx.Find("v"), nullptr);
  apply("DROP TABLE u");
  EXPECT_EQ(ctx.Find("u"), nullptr);

  apply("BEGIN");
  EXPECT_TRUE(ctx.in_transaction());
  apply("SAVEPOINT sp");
  EXPECT_EQ(ctx.savepoints().size(), 1u);
  apply("COMMIT");
  EXPECT_FALSE(ctx.in_transaction());
  EXPECT_TRUE(ctx.savepoints().empty());
}

// Property sweep: every statement the generator emits must round-trip
// through the parser (syntactic validity, the paper's baseline bar), on
// every dialect profile.
class GeneratorSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorSweepTest, GeneratesEveryEnabledTypeParseably) {
  Rng rng(77);
  const auto& profile = *minidb::DialectProfile::ByName(GetParam());
  StatementGenerator generator(&profile, &rng);
  SchemaContext ctx;
  // Prepare some schema so table-dependent statements have targets.
  auto seeded = sql::Parser::ParseScript(
      "CREATE TABLE g1 (a INT, b TEXT); CREATE TABLE g2 (x REAL);"
      "CREATE USER u1; CREATE SEQUENCE s1;");
  for (const auto& stmt : *seeded) ctx.Apply(*stmt);

  for (StatementType type : profile.EnabledTypes()) {
    for (int i = 0; i < 20; ++i) {
      sql::StmtPtr stmt = generator.Generate(type, &ctx);
      ASSERT_NE(stmt, nullptr);
      EXPECT_EQ(stmt->type(), type);
      std::string text = sql::ToSql(*stmt);
      auto reparsed = sql::Parser::ParseStatement(text);
      ASSERT_TRUE(reparsed.ok())
          << sql::StatementTypeName(type) << ": " << text << " -> "
          << reparsed.status().ToString();
      EXPECT_EQ((*reparsed)->type(), type) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, GeneratorSweepTest,
                         ::testing::Values("pglite", "mylite", "marialite",
                                           "comdlite"));

TEST(InstantiatorTest, SequencesInstantiateWithMatchingTypes) {
  Rng rng(5);
  AstLibrary library;
  Instantiator instantiator(&minidb::DialectProfile::PgLite(), &library,
                            &rng);
  std::vector<StatementType> seq = {
      StatementType::kCreateTable, StatementType::kCreateIndex,
      StatementType::kInsert, StatementType::kUpdate,
      StatementType::kSelect};
  for (int i = 0; i < 30; ++i) {
    fuzz::TestCase tc = instantiator.Instantiate(seq);
    ASSERT_EQ(tc.TypeSequence(), seq);
  }
}

TEST(InstantiatorTest, SemanticValidityIsHigh) {
  // The dependency analysis + refill step should make most instantiated
  // statements execute cleanly (paper §III-B instantiation/validation).
  Rng rng(6);
  AstLibrary library;
  Instantiator instantiator(&minidb::DialectProfile::PgLite(), &library,
                            &rng);
  minidb::Database db(&minidb::DialectProfile::PgLite());
  std::vector<StatementType> seq = {
      StatementType::kCreateTable, StatementType::kInsert,
      StatementType::kInsert, StatementType::kUpdate,
      StatementType::kDelete, StatementType::kSelect};
  int executed = 0;
  int errors = 0;
  for (int i = 0; i < 60; ++i) {
    fuzz::TestCase tc = instantiator.Instantiate(seq);
    db.ResetAll();
    auto result = db.ExecuteScript(tc.ToSql());
    ASSERT_TRUE(result.ok()) << tc.ToSql();
    executed += result->executed;
    errors += result->errors;
  }
  double validity =
      static_cast<double>(executed) / static_cast<double>(executed + errors);
  EXPECT_GT(validity, 0.85) << "semantic validity too low: " << validity;
}

TEST(InstantiatorTest, DeferredEntryIgnoresLaterAdmissions) {
  // A queued entry materializes to the same SQL whether it is dequeued at
  // once or after further seeds were admitted to the library, and to the
  // SQL an eager Instantiator over the library of that moment produced.
  const minidb::DialectProfile& profile = minidb::DialectProfile::PgLite();
  AstLibrary library(/*cap_per_type=*/4);
  auto seed_case = fuzz::TestCase::FromSql(
      "CREATE TABLE t (x INT, y TEXT); INSERT INTO t VALUES (1, 'a');"
      "UPDATE t SET x = 2 WHERE y = 'a'; SELECT x FROM t WHERE x > 0;");
  ASSERT_TRUE(seed_case.ok());
  library.AddTestCase(*seed_case);
  std::vector<StatementType> seq = {
      StatementType::kCreateTable, StatementType::kInsert,
      StatementType::kUpdate, StatementType::kSelect};

  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    DeferredInstantiation entry{seq, seed, library.Snapshot()};
    Rng rng(seed);
    const std::string eager =
        Instantiator(&profile, &library, &rng).Instantiate(seq).ToSql();
    const std::string at_once = entry.Instantiate(profile).ToSql();
    EXPECT_EQ(at_once, eager);

    for (int i = 0; i < 6; ++i) {
      auto later = fuzz::TestCase::FromSql(
          "CREATE TABLE u" + std::to_string(seed) + "_" + std::to_string(i) +
          " (z TEXT); INSERT INTO u VALUES ('q'); DELETE FROM u;"
          "UPDATE u SET z = 'r'; SELECT COUNT(*) FROM u;");
      ASSERT_TRUE(later.ok());
      library.AddTestCase(*later);
    }
    EXPECT_EQ(entry.Instantiate(profile).ToSql(), at_once);
  }
}

TEST(InstantiatorTest, FixesDanglingReferences) {
  Rng rng(7);
  AstLibrary library;
  // Donate a skeleton whose table does not exist in the new context.
  auto donor = fuzz::TestCase::FromSql(
      "INSERT INTO elsewhere (q, r) VALUES (1, 2);");
  ASSERT_TRUE(donor.ok());
  for (int i = 0; i < 8; ++i) library.AddTestCase(*donor);

  Instantiator instantiator(&minidb::DialectProfile::PgLite(), &library,
                            &rng);
  std::vector<StatementType> seq = {StatementType::kCreateTable,
                                    StatementType::kInsert};
  minidb::Database db(&minidb::DialectProfile::PgLite());
  int clean = 0;
  for (int i = 0; i < 40; ++i) {
    fuzz::TestCase tc = instantiator.Instantiate(seq);
    db.ResetAll();
    auto result = db.ExecuteScript(tc.ToSql());
    ASSERT_TRUE(result.ok());
    if (result->errors == 0) ++clean;
  }
  EXPECT_GT(clean, 30) << "refill failed to re-target the donor skeleton";
}

// ---------------------------------------------------------------------------
// Algorithm 1: sequence-oriented mutation
// ---------------------------------------------------------------------------

class MutationTest : public ::testing::Test {
 protected:
  MutationTest()
      : rng_(11),
        instantiator_(&minidb::DialectProfile::PgLite(), &library_, &rng_),
        mutator_(&minidb::DialectProfile::PgLite(), &instantiator_, &rng_) {}

  fuzz::TestCase Seed() {
    auto tc = fuzz::TestCase::FromSql(
        "CREATE TABLE t1 (v1 INT, v2 INT);"
        "INSERT INTO t1 VALUES (1, 1);"
        "INSERT INTO t1 VALUES (2, 1);"
        "UPDATE t1 SET v1 = 1;"
        "SELECT * FROM t1 ORDER BY v1;");
    return std::move(*tc);
  }

  Rng rng_;
  AstLibrary library_;
  Instantiator instantiator_;
  SequenceMutator mutator_;
};

TEST_F(MutationTest, ProducesSubstitutionInsertionDeletion) {
  fuzz::TestCase seed = Seed();
  auto mutants = mutator_.SequenceOrientedMutants(seed, 3);
  ASSERT_EQ(mutants.size(), 3u);
  // Substitution keeps length, changes the type at position 3.
  EXPECT_EQ(mutants[0].size(), seed.size());
  EXPECT_NE(mutants[0].TypeSequence()[3], StatementType::kUpdate);
  // Insertion adds one statement after position 3.
  EXPECT_EQ(mutants[1].size(), seed.size() + 1);
  auto ins_types = mutants[1].TypeSequence();
  EXPECT_EQ(ins_types[3], StatementType::kUpdate);
  // Deletion removes position 3.
  EXPECT_EQ(mutants[2].size(), seed.size() - 1);
  EXPECT_EQ(mutants[2].TypeSequence()[3], StatementType::kSelect);
}

TEST_F(MutationTest, MutantsRemainParseable) {
  fuzz::TestCase seed = Seed();
  for (size_t pos = 0; pos < seed.size(); ++pos) {
    for (auto& mutant : mutator_.SequenceOrientedMutants(seed, pos)) {
      auto reparsed = fuzz::TestCase::FromSql(mutant.ToSql());
      EXPECT_TRUE(reparsed.ok()) << mutant.ToSql();
    }
  }
}

TEST_F(MutationTest, OutOfRangePositionYieldsNothing) {
  fuzz::TestCase seed = Seed();
  EXPECT_TRUE(mutator_.SequenceOrientedMutants(seed, 99).empty());
  fuzz::TestCase empty;
  EXPECT_TRUE(mutator_.SequenceOrientedMutants(empty, 0).empty());
}

TEST_F(MutationTest, ConventionalMutationPreservesTypeSequence) {
  fuzz::TestCase seed = Seed();
  auto expected = seed.TypeSequence();
  for (int i = 0; i < 50; ++i) {
    fuzz::TestCase mutant = mutator_.ConventionalMutate(seed);
    EXPECT_EQ(mutant.TypeSequence(), expected) << "iteration " << i;
  }
}

TEST_F(MutationTest, DeletionOfOnlyStatementIsSkipped) {
  auto tc = fuzz::TestCase::FromSql("SELECT 1;");
  ASSERT_TRUE(tc.ok());
  auto mutants = mutator_.SequenceOrientedMutants(*tc, 0);
  // Substitution + insertion, but no deletion of the only statement.
  EXPECT_EQ(mutants.size(), 2u);
}

}  // namespace
}  // namespace lego::core
