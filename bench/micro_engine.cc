// Microbenchmarks for the minidb substrate: storage, index, executor, the
// paged engine's cold recovery, scans of a heap larger than its buffer pool
// and statement bracket, the harness hot loop (executions/second is the
// fuzzing budget currency), and corpus distillation.
//
// Every benchmark runs 5 repetitions and reports only their mean, median,
// stddev and cv (bench_util.h's Repeated).
//
//   ./bench/micro_engine --benchmark_min_time=0.05

#include <time.h>

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "fuzz/distill.h"
#include "fuzz/harness.h"
#include "minidb/btree.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/storage_engine.h"
#include "sql/parser.h"

namespace {

using lego::bench::Repeated;
using lego::bench::ScratchDir;
using lego::minidb::BTreeIndex;
using lego::minidb::Database;
using lego::minidb::RowId;
using lego::minidb::StorageEngine;
using lego::minidb::Value;

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

StorageEngine::Options PagedOptions(const std::string& dir) {
  StorageEngine::Options options;
  options.dir = dir;
  options.pool_frames = 64;
  // One explicit checkpoint: an automatic one mid-load would shrink the WAL
  // tail that recovery replays.
  options.checkpoint_every_commits = 1u << 30;
  return options;
}

void RunSql(Database* db, const std::string& sql) {
  if (!db->ExecuteScript(sql + ";").ok()) std::abort();
}

/// Loads rows 0..rows-1 into a new table t(a INT, b TEXT), each with a
/// `pad_bytes` text, in commits of 250 rows.
void BulkLoad(Database* db, int rows, size_t pad_bytes) {
  RunSql(db, "CREATE TABLE t (a INT, b TEXT)");
  const std::string pad(pad_bytes, 'x');
  constexpr int kBatch = 250;
  for (int base = 0; base < rows; base += kBatch) {
    RunSql(db, "BEGIN");
    for (int i = base; i < base + kBatch && i < rows; ++i) {
      RunSql(db, "INSERT INTO t VALUES (" + std::to_string(i) + ", '" + pad +
                     "')");
    }
    RunSql(db, "COMMIT");
  }
}

/// A paged database directory for cold recovery, written once per process:
/// 4000 rows of about 2 KB, a CHECKPOINT, then 400 autocommit inserts that
/// recovery replays over the snapshot.
struct RecoveryImage {
  RecoveryImage() {
    StorageEngine engine(PagedOptions(dir.path()));
    Database db(&lego::minidb::DialectProfile::PgLite());
    if (!engine.ResetFresh(&db).ok()) std::abort();
    BulkLoad(&db, 4000, 2000);
    RunSql(&db, "CHECKPOINT");
    for (int i = 0; i < 400; ++i) {
      RunSql(&db, "INSERT INTO t VALUES (" + std::to_string(4000 + i) +
                      ", 'tail')");
    }
  }
  ScratchDir dir{"lego_bench_recovery"};
};

/// Cold recovery: snapshot load plus WAL-tail replay. Recovery leaves the
/// directory as it found it, so every iteration replays the same records.
void BM_ColdRecovery(benchmark::State& state) {
  static const RecoveryImage image;
  uint64_t replayed = 0;
  for (auto _ : state) {
    StorageEngine engine(PagedOptions(image.dir.path()));
    Database db(&lego::minidb::DialectProfile::PgLite());
    if (!engine.OpenOrRecover(&db).ok()) {
      state.SkipWithError("recovery failed");
      break;
    }
    const uint64_t records = engine.stats().recovered_records;
    if (replayed != 0 && records != replayed) {
      state.SkipWithError("recovery changed the directory it recovered");
      break;
    }
    replayed = records;
  }
  uint64_t snapshot_bytes = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(image.dir.path())) {
    if (entry.path().filename().string().rfind("snap.", 0) == 0) {
      snapshot_bytes += entry.file_size();
    }
  }
  state.counters["replayed_records"] = static_cast<double>(replayed);
  state.counters["snapshot_pages"] =
      static_cast<double>(snapshot_bytes / lego::minidb::kPageSize);
}
BENCHMARK(BM_ColdRecovery)->Unit(benchmark::kMillisecond)->Apply(Repeated);

/// 10000 rows of about 200 bytes in a paged database kept open, a heap
/// about four times its 64-frame pool. Loaded once per process.
struct LargeHeap {
  static constexpr int kRows = 10000;
  LargeHeap() : engine(PagedOptions(dir.path())) {
    if (!engine.ResetFresh(&db).ok()) std::abort();
    BulkLoad(&db, kRows, 180);
  }
  ScratchDir dir{"lego_bench_scan"};
  StorageEngine engine;
  Database db{&lego::minidb::DialectProfile::PgLite()};
};

/// Full scans of LargeHeap: every pass re-faults evicted pages through the
/// Env. The empty result keeps the figure pager throughput, not row copying.
void BM_ScanLargerThanPool(benchmark::State& state) {
  static LargeHeap heap;
  auto scan = lego::sql::Parser::ParseStatement("SELECT a FROM t WHERE a < 0");
  const StorageEngine::Stats before = heap.engine.stats();
  for (auto _ : state) {
    auto result = heap.db.Execute(**scan);
    benchmark::DoNotOptimize(result);
  }
  const StorageEngine::Stats after = heap.engine.stats();
  const double hits = static_cast<double>(after.pool.hits - before.pool.hits);
  const double misses =
      static_cast<double>(after.pool.misses - before.pool.misses);
  state.SetItemsProcessed(state.iterations() * LargeHeap::kRows);
  state.counters["pool_hit_rate"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  state.counters["evictions_per_scan"] = benchmark::Counter(
      static_cast<double>(after.pool.evictions - before.pool.evictions),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ScanLargerThanPool)
    ->Unit(benchmark::kMillisecond)
    ->Apply(Repeated);

/// Table t<i> of BracketDb.
std::string TableName(int i) {
  char name[16];
  std::snprintf(name, sizeof(name), "t%d", i);
  return name;
}

/// `pattern` with each %s replaced by `name` (at most two).
std::string WithName(const char* pattern, const std::string& name) {
  char sql[128];
  std::snprintf(sql, sizeof(sql), pattern, name.c_str(), name.c_str());
  return sql;
}

/// A paged database on a MemEnv, kept open, whose catalog is shaped like a
/// grown fuzzing case: tables t0..t15 (a INT, b INT, c TEXT), each with an
/// index on a and 8 rows, 4 sequences, a view and a trigger. It checkpoints
/// every 128 commits, as a campaign's engine does, which also keeps the
/// MemEnv log short. Built once per process.
struct BracketDb {
  static constexpr int kTables = 16;
  BracketDb() : engine([this] {
          StorageEngine::Options options;
          options.env = &env;
          options.dir = "bracket";
          return options;
        }()) {
    if (!engine.ResetFresh(&db).ok()) std::abort();
    for (int t = 0; t < kTables; ++t) {
      const std::string name = TableName(t);
      RunSql(&db, WithName("CREATE TABLE %s (a INT, b INT, c TEXT)", name));
      RunSql(&db, WithName("CREATE INDEX %s_a ON %s (a)", name));
      for (int i = 0; i < 8; ++i) {
        RunSql(&db, WithName("INSERT INTO %s VALUES (", name) +
                        std::to_string(i) + ", 0, 'row')");
      }
    }
    for (const char* seq : {"s0", "s1", "s2", "s3"}) {
      RunSql(&db, WithName("CREATE SEQUENCE %s", seq));
    }
    RunSql(&db, "CREATE VIEW v AS SELECT a, b FROM t0 WHERE b > 0");
    RunSql(&db, "CREATE TRIGGER tg AFTER UPDATE ON t15 FOR EACH ROW "
                "UPDATE t14 SET b = b + 1 WHERE a = 0");
  }
  lego::minidb::MemEnv env;
  StorageEngine engine;
  Database db{&lego::minidb::DialectProfile::PgLite()};
};

/// The paged engine's per-statement cost on statements that change no
/// schema: one autocommit statement per iteration, cycling INSERT, UPDATE,
/// SELECT and DELETE over the tables of BracketDb (the DELETE removes the
/// INSERT's row, so the tables keep their size). `cpu_us_per_stmt` is
/// thread CPU per statement; `fingerprints_per_stmt` counts the schema
/// fingerprints the statement bracket took.
void BM_StatementBracket(benchmark::State& state) {
  static BracketDb bracket;
  std::vector<lego::sql::StmtPtr> cycle;
  for (int t = 0; t < BracketDb::kTables; ++t) {
    const std::string name = TableName(t);
    for (const char* pattern :
         {"INSERT INTO %s VALUES (100, 1, 'new')",
          "UPDATE %s SET b = b + 1 WHERE a = 3", "SELECT b FROM %s WHERE a = 3",
          "DELETE FROM %s WHERE a = 100"}) {
      auto stmt = lego::sql::Parser::ParseStatement(WithName(pattern, name));
      if (!stmt.ok()) std::abort();
      cycle.push_back(std::move(stmt).ValueOrDie());
    }
  }
  const uint64_t fingerprints = bracket.engine.stats().schema_fingerprints;
  size_t next = 0;
  const double cpu_start = ThreadCpuSeconds();
  for (auto _ : state) {
    auto result = bracket.db.Execute(*cycle[next]);
    benchmark::DoNotOptimize(result);
    next = (next + 1) % cycle.size();
  }
  const double statements = static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
  state.counters["cpu_us_per_stmt"] =
      statements > 0 ? (ThreadCpuSeconds() - cpu_start) * 1e6 / statements
                     : 0.0;
  state.counters["fingerprints_per_stmt"] =
      statements > 0
          ? static_cast<double>(bracket.engine.stats().schema_fingerprints -
                                fingerprints) /
                statements
          : 0.0;
}
BENCHMARK(BM_StatementBracket)->Apply(Repeated);

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
