// Microbenchmarks for the minidb substrate: storage, index, executor, the
// harness hot loop (executions/second is the fuzzing budget currency), and
// corpus distillation.
//
// Every benchmark runs 5 repetitions and reports only their mean, median,
// stddev and cv: one run on a shared machine can be off by a third, so
// compare two builds by the medians and read the spread next to them.
//
//   ./bench/micro_engine --benchmark_min_time=0.05

#include <time.h>

#include <benchmark/benchmark.h>

#include <vector>

#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "fuzz/distill.h"
#include "fuzz/harness.h"
#include "minidb/btree.h"
#include "minidb/database.h"
#include "sql/parser.h"

namespace {

using lego::minidb::BTreeIndex;
using lego::minidb::Database;
using lego::minidb::RowId;
using lego::minidb::Value;

void Repeated(benchmark::internal::Benchmark* b) {
  b->Repetitions(5)->DisplayAggregatesOnly(true);
}

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    BTreeIndex tree;
    for (int64_t i = 0; i < state.range(0); ++i) {
      tree.Insert(Value::Int(i * 2654435761 % 100000),
                  RowId{0, static_cast<uint32_t>(i)});
    }
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Apply(Repeated);

void BM_BTreeFind(benchmark::State& state) {
  BTreeIndex tree;
  for (int64_t i = 0; i < state.range(0); ++i) {
    tree.Insert(Value::Int(i), RowId{0, static_cast<uint32_t>(i)});
  }
  int64_t probe = 0;
  for (auto _ : state) {
    auto rids = tree.Find(Value::Int(probe++ % state.range(0)));
    benchmark::DoNotOptimize(rids);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeFind)->Arg(10000)->Apply(Repeated);

void BM_InsertStatement(benchmark::State& state) {
  Database db;
  (void)db.ExecuteScript("CREATE TABLE t (a INT, b TEXT);");
  auto insert =
      lego::sql::Parser::ParseStatement("INSERT INTO t VALUES (1, 'x')");
  for (auto _ : state) {
    auto result = db.Execute(**insert);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertStatement)->Apply(Repeated);

void BM_SelectSeqScan(benchmark::State& state) {
  Database db;
  (void)db.ExecuteScript("CREATE TABLE t (a INT, b INT);");
  for (int i = 0; i < state.range(0); ++i) {
    (void)db.ExecuteScript("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 0);");
  }
  auto select =
      lego::sql::Parser::ParseStatement("SELECT a FROM t WHERE b = 1");
  for (auto _ : state) {
    auto result = db.Execute(**select);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectSeqScan)->Arg(256)->Apply(Repeated);

void BM_SelectIndexScan(benchmark::State& state) {
  Database db;
  (void)db.ExecuteScript(
      "CREATE TABLE t (a INT, b INT); CREATE INDEX ta ON t (a);");
  for (int i = 0; i < state.range(0); ++i) {
    (void)db.ExecuteScript("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 0);");
  }
  auto select =
      lego::sql::Parser::ParseStatement("SELECT b FROM t WHERE a = 77");
  for (auto _ : state) {
    auto result = db.Execute(**select);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectIndexScan)->Arg(256)->Apply(Repeated);

void BM_TransactionSnapshotRoundtrip(benchmark::State& state) {
  Database db;
  (void)db.ExecuteScript("CREATE TABLE t (a INT);");
  for (int i = 0; i < 64; ++i) {
    (void)db.ExecuteScript("INSERT INTO t VALUES (1);");
  }
  for (auto _ : state) {
    auto result = db.ExecuteScript(
        "BEGIN; INSERT INTO t VALUES (2); ROLLBACK;");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransactionSnapshotRoundtrip)->Apply(Repeated);

void BM_HarnessRunTestCase(benchmark::State& state) {
  lego::fuzz::ExecutionHarness harness(
      lego::minidb::DialectProfile::PgLite());
  auto tc = lego::fuzz::TestCase::FromSql(
      "CREATE TABLE t1 (v1 INT, v2 INT);"
      "INSERT INTO t1 VALUES (1, 1);"
      "INSERT INTO t1 VALUES (2, 1);"
      "SELECT * FROM t1 ORDER BY v1;"
      "SELECT v2 FROM t1 WHERE v1 = 1;");
  for (auto _ : state) {
    auto result = harness.Run(*tc);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["execs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HarnessRunTestCase)->Apply(Repeated);

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A fixed donor corpus, shaped like one fleet generation: the exports of
/// four 1500-execution pglite LEGO campaigns (seeds 1-4), concatenated, so
/// it carries the overlap a distill removes.
const std::vector<lego::fuzz::TestCase>& DonorCorpus() {
  static const std::vector<lego::fuzz::TestCase> donor = [] {
    using namespace lego;  // NOLINT(build/namespaces)
    const auto& profile = minidb::DialectProfile::PgLite();
    std::vector<fuzz::TestCase> merged;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      auto fuzzer = fleet::MakeFleetFuzzer("lego", profile, seed);
      fuzz::ExecutionHarness harness(profile);
      fuzz::CampaignOptions options;
      options.max_executions = 1500;
      options.export_corpus = true;
      for (fuzz::TestCase& tc :
           fuzz::RunCampaign(fuzzer.get(), &harness, options).corpus_export) {
        merged.push_back(std::move(tc));
      }
    }
    return merged;
  }();
  return donor;
}

/// DistillCorpus over the donor on a fresh harness, as the fleet distills.
/// `cpu_us_per_case` is thread CPU per input case, so it moves with the
/// number of replays each case costs (`replays_per_case`).
void BM_DistillCorpus(benchmark::State& state) {
  using namespace lego;  // NOLINT(build/namespaces)
  const std::vector<fuzz::TestCase>& donor = DonorCorpus();
  fuzz::DistillStats stats;
  const double cpu_start = ThreadCpuSeconds();
  for (auto _ : state) {
    fuzz::ExecutionHarness harness(minidb::DialectProfile::PgLite());
    auto kept = fuzz::DistillCorpus(donor, &harness, &stats);
    benchmark::DoNotOptimize(kept);
  }
  const double cases =
      static_cast<double>(state.iterations()) * static_cast<double>(donor.size());
  state.SetItemsProcessed(static_cast<int64_t>(cases));
  state.counters["cpu_us_per_case"] =
      cases > 0 ? (ThreadCpuSeconds() - cpu_start) * 1e6 / cases : 0.0;
  state.counters["replays_per_case"] =
      static_cast<double>(stats.replays) / static_cast<double>(donor.size());
  state.counters["kept_cases"] = static_cast<double>(stats.kept_cases);
}
BENCHMARK(BM_DistillCorpus)->Unit(benchmark::kMillisecond)->Apply(Repeated);

}  // namespace

BENCHMARK_MAIN();
