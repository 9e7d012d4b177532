// Microbenchmarks for LEGO's core algorithms plus the ablation the design
// calls out: progressive synthesis (Algorithm 3 with the Prefix Sequence
// index) versus naive full re-enumeration on every new affinity, and
// instantiation with dependency refill (reporting the semantic-validity rate
// it buys).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "fuzz/seeds.h"
#include "lego/affinity.h"
#include "lego/ast_library.h"
#include "lego/instantiator.h"
#include "lego/synthesis.h"
#include "minidb/database.h"

namespace {

using lego::Rng;
using lego::bench::Repeated;
using lego::core::SequenceSynthesizer;
using lego::core::TypeAffinityMap;
using lego::sql::StatementType;

std::vector<std::pair<StatementType, StatementType>> RandomAffinities(
    int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<StatementType, StatementType>> out;
  while (static_cast<int>(out.size()) < count) {
    auto t1 = static_cast<StatementType>(
        rng.NextBelow(lego::sql::kNumStatementTypes));
    auto t2 = static_cast<StatementType>(
        rng.NextBelow(lego::sql::kNumStatementTypes));
    if (t1 == t2) continue;
    out.emplace_back(t1, t2);
  }
  return out;
}

void BM_AffinityAnalyze(benchmark::State& state) {
  Rng rng(5);
  std::vector<StatementType> sequence;
  for (int i = 0; i < 64; ++i) {
    sequence.push_back(static_cast<StatementType>(
        rng.NextBelow(lego::sql::kNumStatementTypes)));
  }
  for (auto _ : state) {
    TypeAffinityMap map;
    auto found = map.Analyze(sequence);
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AffinityAnalyze)->Apply(Repeated);

// Algorithm 3: only sequences containing the new affinity are enumerated.
void BM_ProgressiveSynthesis(benchmark::State& state) {
  auto affinities = RandomAffinities(static_cast<int>(state.range(0)), 9);
  for (auto _ : state) {
    TypeAffinityMap map;
    SequenceSynthesizer synthesizer(/*max_len=*/4);
    for (const auto& [t1, t2] : affinities) {
      synthesizer.AddStartType(t1);
      synthesizer.AddStartType(t2);
    }
    size_t produced = 0;
    for (const auto& [t1, t2] : affinities) {
      if (!map.Add(t1, t2)) continue;
      produced += synthesizer.OnNewAffinity(t1, t2, map);
    }
    benchmark::DoNotOptimize(produced);
  }
}
BENCHMARK(BM_ProgressiveSynthesis)->Arg(16)->Arg(48)->Apply(Repeated);

// Ablation: rebuild every sequence from scratch after each new affinity
// (what the Prefix Sequence index avoids). Same output set, much more work.
void BM_FullReenumeration(benchmark::State& state) {
  auto affinities = RandomAffinities(static_cast<int>(state.range(0)), 9);
  for (auto _ : state) {
    TypeAffinityMap map;
    size_t produced = 0;
    for (const auto& [t1, t2] : affinities) {
      if (!map.Add(t1, t2)) continue;
      // Re-enumerate everything reachable with the full map each time.
      SequenceSynthesizer fresh(/*max_len=*/4);
      for (const auto& [a, b] : affinities) {
        fresh.AddStartType(a);
        fresh.AddStartType(b);
      }
      TypeAffinityMap rebuild;
      for (const auto& [a, b] : map.All()) {
        if (rebuild.Add(a, b)) {
          produced += fresh.OnNewAffinity(a, b, rebuild);
        }
      }
    }
    benchmark::DoNotOptimize(produced);
  }
}
BENCHMARK(BM_FullReenumeration)->Arg(16)->Arg(48)->Apply(Repeated);

// Instantiation throughput + semantic-validity rate of the dependency
// refill (executed against a fresh database; errors counted).
void BM_InstantiateAndExecute(benchmark::State& state) {
  Rng rng(21);
  lego::core::AstLibrary library;
  for (const auto& script : lego::fuzz::SeedScriptsFor("pglite")) {
    auto tc = lego::fuzz::TestCase::FromSql(script);
    if (tc.ok()) library.AddTestCase(*tc);
  }
  lego::core::Instantiator instantiator(
      &lego::minidb::DialectProfile::PgLite(), &library, &rng);
  lego::minidb::Database db(&lego::minidb::DialectProfile::PgLite());

  const std::vector<StatementType> sequence = {
      StatementType::kCreateTable, StatementType::kInsert,
      StatementType::kCreateIndex, StatementType::kUpdate,
      StatementType::kSelect};

  int64_t statements = 0;
  int64_t errors = 0;
  for (auto _ : state) {
    auto tc = instantiator.Instantiate(sequence);
    db.ResetAll();
    auto run = db.ExecuteScript(tc.ToSql());
    if (run.ok()) {
      statements += run->executed + run->errors;
      errors += run->errors;
    }
    benchmark::DoNotOptimize(tc);
  }
  state.SetItemsProcessed(state.iterations());
  if (statements > 0) {
    state.counters["semantic_validity"] =
        1.0 - static_cast<double>(errors) / static_cast<double>(statements);
  }
}
BENCHMARK(BM_InstantiateAndExecute)->Apply(Repeated);

}  // namespace

BENCHMARK_MAIN();
