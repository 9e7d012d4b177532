// One-shot benchmark sweep writing a machine-readable BENCH_<date>.json:
// campaign throughput (execs/sec) and coverage per fuzzer/profile, per-oracle
// overhead against a no-oracle baseline, rule-coverage feedback overhead,
// concurrent-backend throughput at 1/2/4 sessions (scheduler overhead vs the
// serial in-process baseline), and raw parser throughput with the
// grammar-rule probes detached vs armed.
//
//   ./bench/bench_all [--quick] [--out FILE]
//
// The storage section times a paged-storage campaign against the in-memory
// baseline (WAL bytes/fsyncs from the Env counters), reports the buffer
// pool's hit rate under a bulk-load workload, and measures cold recovery
// (snapshot load + WAL replay) of a multi-thousand-page database.
//
// The fleet section shards one campaign across 1/2/4 worker processes via
// the fleet coordinator: aggregate execs/sec per worker count, the
// coordination tax (1-worker fleet vs the same shards run serially
// in-process), and distill-cycle latency for corpus redistribution.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "coverage/rule_coverage.h"
#include "fleet/fleet.h"
#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "fuzz/harness.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/storage_engine.h"
#include "sql/grammar_coverage.h"
#include "sql/parser.h"
#include "triage/oracle_suite.h"
#include "util/flags.h"

namespace lego::bench {
namespace {

constexpr uint64_t kSeed = 7;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct CampaignRow {
  std::string fuzzer;
  std::string profile;
  int executions = 0;
  double seconds = 0;
  size_t edges = 0;
  size_t rules = 0;
  int crashes = 0;
  int logic_flags = 0;
};

/// One serial campaign with optional oracle spec / rule feedback, timed.
CampaignRow TimedCampaign(const std::string& fuzzer_name,
                          const std::string& profile_name, int executions,
                          const std::string& oracle_spec, bool rule_coverage,
                          const fuzz::BackendOptions& backend = {}) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(profile_name);
  auto fuzzer = fleet::MakeFleetFuzzer(fuzzer_name, *profile, kSeed);
  fuzz::ExecutionHarness harness(*profile, backend);
  std::unique_ptr<triage::OracleSuite> suite;
  if (!oracle_spec.empty()) {
    std::string error;
    suite = triage::OracleSuite::FromSpec(oracle_spec, &error);
    if (suite != nullptr) harness.set_logic_oracle(suite.get());
  }
  harness.set_rule_coverage(rule_coverage);
  fuzz::CampaignOptions options;
  options.max_executions = executions;
  options.snapshot_every = executions;
  auto t0 = std::chrono::steady_clock::now();
  fuzz::CampaignResult result =
      fuzz::RunCampaign(fuzzer.get(), &harness, options);
  CampaignRow row;
  row.fuzzer = fuzzer_name;
  row.profile = profile_name;
  row.executions = result.executions;
  row.seconds = SecondsSince(t0);
  row.edges = result.edges;
  row.rules = result.rules;
  row.crashes = result.crashes_total;
  row.logic_flags = result.logic_bugs_total;
  return row;
}

double ExecsPerSec(const CampaignRow& row) {
  return row.seconds > 0 ? row.executions / row.seconds : 0;
}

/// Parses `script` `iters` times; returns wall seconds. With `armed`, a
/// grammar-coverage scope is attached, which is the instrumented-parser
/// worst case (every probe performs its store); detached is the default
/// campaign configuration for everything except the rule-signal reparse.
double ParseLoopSeconds(const std::string& script, int iters, bool armed) {
  cov::RuleMap map;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    if (armed) {
      sql::GrammarCoverageScope scope(map.data());
      auto parsed = sql::Parser::ParseScript(script);
      if (!parsed.ok()) std::abort();
    } else {
      auto parsed = sql::Parser::ParseScript(script);
      if (!parsed.ok()) std::abort();
    }
  }
  return SecondsSince(t0);
}

/// Runs a script through the storage engine's statement bracket, the way
/// the paged backends drive it.
void BracketedExec(minidb::StorageEngine* engine, minidb::Database* db,
                   const std::string& sql) {
  auto stmts = sql::Parser::ParseScript(sql + ";");
  if (!stmts.ok()) std::abort();
  for (const sql::StmtPtr& stmt : stmts.value()) {
    engine->BeginStatement(db);
    Status st = db->Execute(*stmt).status();
    (void)engine->EndStatement(db, *stmt, st.ok());
  }
}

struct RecoveryBench {
  int rows = 0;
  uint64_t snapshot_pages = 0;
  uint64_t replayed_records = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  double load_seconds = 0;
  double recovery_seconds = 0;
};

/// Bulk-loads `rows` padded rows through the paged engine (batched commits),
/// checkpoints, appends a post-checkpoint WAL tail, then times a cold
/// OpenOrRecover of the resulting directory.
RecoveryBench TimedRecovery(int rows) {
  RecoveryBench bench;
  bench.rows = rows;
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  const std::string dir = "bench_recovery_db";
  minidb::StorageEngine::Options sopts;
  sopts.dir = dir;
  sopts.pool_frames = 64;
  // The bulk load would auto-checkpoint mid-way and shrink the WAL tail
  // we want to replay; keep the single explicit checkpoint authoritative.
  sopts.checkpoint_every_commits = 1u << 30;

  auto t0 = std::chrono::steady_clock::now();
  {
    minidb::StorageEngine engine(sopts);
    minidb::Database db(profile);
    if (!engine.ResetFresh(&db).ok()) std::abort();
    BracketedExec(&engine, &db, "CREATE TABLE t (a INT, b TEXT)");
    // ~2KB per row: 40k rows put the snapshot at the 10k-page mark the
    // recovery figure is quoted against.
    const std::string pad(2000, 'x');
    constexpr int kBatch = 250;
    for (int base = 0; base < rows; base += kBatch) {
      BracketedExec(&engine, &db, "BEGIN");
      for (int i = base; i < base + kBatch && i < rows; ++i) {
        BracketedExec(&engine, &db,
                      "INSERT INTO t VALUES (" + std::to_string(i) + ", '" +
                          pad + "')");
      }
      BracketedExec(&engine, &db, "COMMIT");
    }
    BracketedExec(&engine, &db, "CHECKPOINT");
    // Post-checkpoint tail: recovery replays these on top of the snapshot.
    // Autocommit inserts, one fsync each — bounded so the bench stays
    // seconds, not minutes, on a real disk.
    const int tail = rows / 10 < 500 ? rows / 10 : 500;
    for (int i = 0; i < tail; ++i) {
      BracketedExec(&engine, &db,
                    "INSERT INTO t VALUES (" + std::to_string(rows + i) +
                        ", 'tail')");
    }
    bench.pool_hits = engine.stats().pool.hits;
    bench.pool_misses = engine.stats().pool.misses;
  }
  bench.load_seconds = SecondsSince(t0);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap.", 0) == 0) {
      bench.snapshot_pages = std::filesystem::file_size(entry.path()) /
                             minidb::kPageSize;
    }
  }

  t0 = std::chrono::steady_clock::now();
  {
    minidb::StorageEngine engine(sopts);
    minidb::Database db(profile);
    if (!engine.OpenOrRecover(&db).ok()) std::abort();
    bench.replayed_records = engine.stats().recovered_records;
  }
  bench.recovery_seconds = SecondsSince(t0);
  (void)minidb::Env::Posix()->RemoveDirRecursive(dir);
  return bench;
}

struct LargerThanRamBench {
  int rows = 0;
  size_t pool_frames = 0;
  int scans = 0;
  double load_seconds = 0;
  double scan_rows_per_sec = 0;
  double scan_hit_rate_pct = 0;
  uint64_t scan_evictions = 0;
  double recovery_seconds = 0;
};

/// The paged-source-of-truth workload: a heap several times larger than
/// the pool, full-scanned repeatedly so every pass re-faults evicted pages
/// through Env, then cold-recovered. Scan throughput, the pool hit rate
/// under that pressure, and recovery time are the numbers the pager trades
/// against the mem path's free reads.
LargerThanRamBench TimedLargerThanRam(int rows, int scans) {
  LargerThanRamBench bench;
  bench.rows = rows;
  bench.scans = scans;
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  const std::string dir = "bench_ltr_db";
  minidb::StorageEngine::Options sopts;
  sopts.dir = dir;
  sopts.pool_frames = 64;
  sopts.checkpoint_every_commits = 1u << 30;
  bench.pool_frames = sopts.pool_frames;

  auto t0 = std::chrono::steady_clock::now();
  {
    minidb::StorageEngine engine(sopts);
    minidb::Database db(profile);
    if (!engine.ResetFresh(&db).ok()) std::abort();
    BracketedExec(&engine, &db, "CREATE TABLE t (a INT, b TEXT)");
    // ~200B per row: 10k rows ≈ 2MB of heap against a 512KB pool.
    const std::string pad(180, 'x');
    constexpr int kBatch = 250;
    for (int base = 0; base < rows; base += kBatch) {
      BracketedExec(&engine, &db, "BEGIN");
      for (int i = base; i < base + kBatch && i < rows; ++i) {
        BracketedExec(&engine, &db,
                      "INSERT INTO t VALUES (" + std::to_string(i) + ", '" +
                          pad + "')");
      }
      BracketedExec(&engine, &db, "COMMIT");
    }
    bench.load_seconds = SecondsSince(t0);

    const minidb::StorageEngine::Stats before = engine.stats();
    t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < scans; ++s) {
      // Full scan, empty result set: every row is decoded, nothing is
      // materialized, so the figure is pager throughput, not row copying.
      BracketedExec(&engine, &db, "SELECT a FROM t WHERE a < 0");
    }
    const double scan_seconds = SecondsSince(t0);
    const minidb::StorageEngine::Stats after = engine.stats();
    const uint64_t hits = after.pool.hits - before.pool.hits;
    const uint64_t misses = after.pool.misses - before.pool.misses;
    bench.scan_evictions = after.pool.evictions - before.pool.evictions;
    bench.scan_hit_rate_pct =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses) *
                  100.0
            : 0;
    bench.scan_rows_per_sec =
        scan_seconds > 0
            ? static_cast<double>(rows) * scans / scan_seconds
            : 0;
    BracketedExec(&engine, &db, "CHECKPOINT");
  }

  t0 = std::chrono::steady_clock::now();
  {
    minidb::StorageEngine engine(sopts);
    minidb::Database db(profile);
    if (!engine.OpenOrRecover(&db).ok()) std::abort();
  }
  bench.recovery_seconds = SecondsSince(t0);
  (void)minidb::Env::Posix()->RemoveDirRecursive(dir);
  return bench;
}

// --- fleet coordinator ----------------------------------------------------

struct FleetBenchRow {
  int workers = 0;
  double seconds = 0;
  int64_t executions = 0;
  int distill_cycles = 0;
  double distill_seconds = 0;
};

fleet::FleetConfig FleetBenchConfig(int shards, int budget, int distill_every) {
  fleet::FleetConfig config;
  config.profile = "pglite";
  config.fuzzer = "lego";
  config.base_seed = kSeed;
  config.num_shards = shards;
  config.shard_budget = budget;
  config.distill_every = distill_every;
  return config;
}

FleetBenchRow TimedFleet(int workers, int shards, int budget,
                         int distill_every) {
  fleet::FleetOptions options;
  options.config = FleetBenchConfig(shards, budget, distill_every);
  options.num_workers = workers;
  options.fleet_dir = "bench_fleet_w" + std::to_string(workers) + "_d" +
                      std::to_string(distill_every);
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
  fleet::FleetResult result = fleet::RunFleet(options);
  FleetBenchRow row;
  row.workers = workers;
  row.seconds = result.elapsed_seconds;
  row.executions = result.executions;
  row.distill_cycles = result.distill_cycles;
  row.distill_seconds = result.distill_seconds;
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
  return row;
}

}  // namespace
}  // namespace lego::bench

int main(int argc, char** argv) {
  using namespace lego::bench;  // NOLINT(build/namespaces)

  bool quick = false;
  std::string out_path;
  const lego::flags::CommandLine cli = {
      "bench_all [--quick] [--out FILE]",
      {{"quick", &quick, "",
        "CI budgets (500 execs per campaign instead of 5000)"},
       {"out", &out_path, "FILE",
        "output path (default BENCH_<YYYY-MM-DD>.json in the CWD)"}}};
  const std::vector<std::string> pos = cli.ParseOrExit(argc, argv);
  if (!pos.empty()) {
    cli.Fail(lego::Status::InvalidArgument("unexpected positional '" +
                                           pos[0] + "'"));
  }

  char date[16];
  std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  std::strftime(date, sizeof(date), "%Y-%m-%d", &tm_buf);
  if (out_path.empty()) out_path = std::string("BENCH_") + date + ".json";

  const int execs = quick ? 500 : 5000;
  std::printf("bench_all: %d executions per campaign%s -> %s\n", execs,
              quick ? " (--quick)" : "", out_path.c_str());

  // Campaign throughput + coverage across fuzzers/profiles.
  std::vector<CampaignRow> campaigns;
  for (const auto& [fuzzer, profile] :
       std::vector<std::pair<std::string, std::string>>{
           {"lego", "pglite"},
           {"lego", "marialite"},
           {"squirrel", "marialite"},
           {"sqlancer", "mylite"},
           {"sqlsmith", "comdlite"},
       }) {
    CampaignRow row = TimedCampaign(fuzzer, profile, execs, "", false);
    std::printf("  %-9s %-9s %7.0f execs/s  %4zu edges  %3d crashes\n",
                row.fuzzer.c_str(), row.profile.c_str(), ExecsPerSec(row),
                row.edges, row.crashes);
    campaigns.push_back(row);
  }

  // Per-oracle overhead vs a no-oracle baseline (same fuzzer/profile/seed).
  CampaignRow baseline = TimedCampaign("lego", "pglite", execs, "", false);
  std::vector<std::pair<std::string, CampaignRow>> oracle_rows;
  for (const char* spec : {"tlp", "norec", "clause", "tlp,norec,clause"}) {
    CampaignRow row = TimedCampaign("lego", "pglite", execs, spec, false);
    double overhead =
        baseline.seconds > 0
            ? (row.seconds - baseline.seconds) / baseline.seconds * 100.0
            : 0;
    std::printf("  oracle %-18s %7.0f execs/s  (%+.1f%% vs none, %d flags)\n",
                spec, ExecsPerSec(row), overhead, row.logic_flags);
    oracle_rows.emplace_back(spec, row);
  }

  // Concurrent backend: throughput at 1/2/4 sessions plus the
  // scheduler/locking overhead against the serial in-process baseline.
  // sessions=1 routes through the plain serial path, so its delta isolates
  // backend-construction cost; 2/4 add epoch scheduling, row locks, and the
  // history log.
  std::vector<std::pair<int, CampaignRow>> concurrent_rows;
  for (int sessions : {1, 2, 4}) {
    lego::fuzz::BackendOptions copts;
    copts.kind = lego::fuzz::BackendKind::kConcurrent;
    copts.sessions = sessions;
    copts.concurrency_seed = kSeed;
    CampaignRow row = TimedCampaign("lego", "pglite", execs, "", false, copts);
    double overhead =
        baseline.seconds > 0
            ? (row.seconds - baseline.seconds) / baseline.seconds * 100.0
            : 0;
    std::printf(
        "  concurrent x%-2d       %7.0f execs/s  (%+.1f%% vs serial, "
        "%zu edges)\n",
        sessions, ExecsPerSec(row), overhead, row.edges);
    concurrent_rows.emplace_back(sessions, row);
  }

  // Paged storage vs the in-memory baseline: same campaign, WAL+pool
  // underneath, with WAL traffic read off the process-wide Env counters.
  lego::fuzz::BackendOptions paged_opts;
  paged_opts.storage = lego::fuzz::StorageKind::kPaged;
  paged_opts.db_dir = "bench_paged_db";
  const lego::minidb::EnvStats env_before = lego::minidb::Env::Posix()->stats();
  CampaignRow paged_row =
      TimedCampaign("lego", "pglite", execs, "", false, paged_opts);
  const lego::minidb::EnvStats env_after = lego::minidb::Env::Posix()->stats();
  (void)lego::minidb::Env::Posix()->RemoveDirRecursive(paged_opts.db_dir);
  const uint64_t wal_bytes = env_after.bytes_written - env_before.bytes_written;
  const uint64_t wal_fsyncs = env_after.syncs - env_before.syncs;
  double paged_overhead =
      baseline.seconds > 0
          ? (paged_row.seconds - baseline.seconds) / baseline.seconds * 100.0
          : 0;
  std::printf(
      "  storage paged        %7.0f execs/s  (%+.1f%% vs mem, %llu WAL "
      "bytes, %llu fsyncs)\n",
      ExecsPerSec(paged_row), paged_overhead,
      static_cast<unsigned long long>(wal_bytes),
      static_cast<unsigned long long>(wal_fsyncs));

  // Cold recovery of a bulk-loaded paged database (snapshot + WAL tail).
  RecoveryBench recovery = TimedRecovery(quick ? 2000 : 40000);
  const uint64_t pool_lookups = recovery.pool_hits + recovery.pool_misses;
  const double pool_hit_rate =
      pool_lookups > 0
          ? static_cast<double>(recovery.pool_hits) / pool_lookups * 100.0
          : 0;
  std::printf(
      "  recovery             %6.3f s for %d rows (%llu snapshot pages, "
      "%llu WAL records, pool hit rate %.1f%%)\n",
      recovery.recovery_seconds, recovery.rows,
      static_cast<unsigned long long>(recovery.snapshot_pages),
      static_cast<unsigned long long>(recovery.replayed_records),
      pool_hit_rate);

  // Larger-than-RAM: repeated full scans of a heap ~4x the pool, then a
  // cold recovery of the checkpointed result.
  // 64 frames hold ~512KB; even the quick row count must overflow that or
  // the scan figure silently degrades to an all-hits cache benchmark.
  LargerThanRamBench ltr =
      TimedLargerThanRam(quick ? 4000 : 10000, quick ? 3 : 10);
  std::printf(
      "  larger-than-RAM      %7.0f rows/s scanned at %zu frames "
      "(hit rate %.1f%%, %llu evictions, recovery %.3f s)\n",
      ltr.scan_rows_per_sec, ltr.pool_frames, ltr.scan_hit_rate_pct,
      static_cast<unsigned long long>(ltr.scan_evictions),
      ltr.recovery_seconds);

  // Rule-coverage feedback overhead (same baseline).
  CampaignRow rules_on = TimedCampaign("lego", "pglite", execs, "", true);
  double rules_overhead =
      baseline.seconds > 0
          ? (rules_on.seconds - baseline.seconds) / baseline.seconds * 100.0
          : 0;
  std::printf("  rule-coverage        %7.0f execs/s  (%+.1f%%, %zu rules)\n",
              ExecsPerSec(rules_on), rules_overhead, rules_on.rules);

  // Raw parser throughput: probes detached (micro_parser configuration,
  // must stay ~free) vs armed (the rule-signal reparse itself).
  const std::string script =
      "CREATE TABLE t0 (a INT PRIMARY KEY, b TEXT, c REAL);"
      "CREATE INDEX i0 ON t0 (b);"
      "INSERT INTO t0 (a, b, c) VALUES (1, 'x', 2.5);"
      "SELECT t0.a, COUNT(*) FROM t0 JOIN t0 AS u ON t0.a = u.a "
      "WHERE t0.b LIKE 'x%' AND t0.c BETWEEN 0 AND 9 "
      "GROUP BY t0.a HAVING COUNT(*) > 0 ORDER BY t0.a DESC LIMIT 5;"
      "UPDATE t0 SET c = c + 1 WHERE a IN (SELECT a FROM t0);"
      "DROP TABLE IF EXISTS t0;";
  const int iters = quick ? 2000 : 20000;
  double detached = ParseLoopSeconds(script, iters, /*armed=*/false);
  double armed = ParseLoopSeconds(script, iters, /*armed=*/true);
  double probe_overhead =
      detached > 0 ? (armed - detached) / detached * 100.0 : 0;
  std::printf("  parser %.0f scripts/s detached, %.0f armed (%+.1f%%)\n",
              iters / detached, iters / armed, probe_overhead);

  // Fleet coordinator: the same shard set run serially in-process is the
  // zero-coordination baseline; a 1-worker fleet adds fork + pipes + journal
  // (the coordination tax), and 2/4 workers show aggregate scaling.
  const int fleet_shards = 8;
  const int fleet_budget = quick ? 250 : 1000;
  double serial_shards_seconds = 0;
  {
    lego::fleet::FleetConfig config =
        FleetBenchConfig(fleet_shards, fleet_budget, 0);
    std::vector<lego::fuzz::TestCase> pool;
    auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < fleet_shards; ++s) {
      auto outcome = lego::fleet::ExecuteShard(config, s, pool, nullptr, {});
      if (!outcome.ok()) {
        std::fprintf(stderr, "fleet bench shard failed: %s\n",
                     outcome.status().ToString().c_str());
        return 1;
      }
    }
    serial_shards_seconds = SecondsSince(t0);
  }
  std::vector<FleetBenchRow> fleet_rows;
  for (int workers : {1, 2, 4}) {
    FleetBenchRow row =
        TimedFleet(workers, fleet_shards, fleet_budget, /*distill_every=*/0);
    double rate = row.seconds > 0
                      ? static_cast<double>(row.executions) / row.seconds
                      : 0;
    double speedup = !fleet_rows.empty() && row.seconds > 0
                         ? fleet_rows.front().seconds / row.seconds
                         : 1.0;
    std::printf("  fleet x%-2d workers    %7.0f execs/s  (%.2fx vs 1 worker)\n",
                workers, rate, speedup);
    fleet_rows.push_back(row);
  }
  const double coordinator_overhead_pct =
      serial_shards_seconds > 0
          ? (fleet_rows.front().seconds - serial_shards_seconds) /
                serial_shards_seconds * 100.0
          : 0;
  FleetBenchRow fleet_distill =
      TimedFleet(1, fleet_shards, fleet_budget, /*distill_every=*/2);
  const double distill_cycle_seconds =
      fleet_distill.distill_cycles > 0
          ? fleet_distill.distill_seconds / fleet_distill.distill_cycles
          : 0;
  std::printf(
      "  fleet coordination   %+6.1f%% vs serial shards; distill %d cycles, "
      "%.3f s/cycle\n",
      coordinator_overhead_pct, fleet_distill.distill_cycles,
      distill_cycle_seconds);

  // Machine-readable dump.
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"date\": \"%s\",\n  \"quick\": %s,\n", date,
               quick ? "true" : "false");
  std::fprintf(f, "  \"executions_per_campaign\": %d,\n", execs);
  std::fprintf(f, "  \"campaigns\": [\n");
  for (size_t i = 0; i < campaigns.size(); ++i) {
    const CampaignRow& r = campaigns[i];
    std::fprintf(f,
                 "    {\"fuzzer\": \"%s\", \"profile\": \"%s\", "
                 "\"executions\": %d, \"seconds\": %.3f, "
                 "\"execs_per_sec\": %.1f, \"edges\": %zu, \"crashes\": %d}%s\n",
                 r.fuzzer.c_str(), r.profile.c_str(), r.executions, r.seconds,
                 ExecsPerSec(r), r.edges, r.crashes,
                 i + 1 < campaigns.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"oracle_overhead\": [\n");
  std::fprintf(f,
               "    {\"oracle\": \"none\", \"seconds\": %.3f, "
               "\"execs_per_sec\": %.1f, \"overhead_pct\": 0.0, "
               "\"logic_flags\": %d},\n",
               baseline.seconds, ExecsPerSec(baseline), baseline.logic_flags);
  for (size_t i = 0; i < oracle_rows.size(); ++i) {
    const auto& [spec, r] = oracle_rows[i];
    double overhead =
        baseline.seconds > 0
            ? (r.seconds - baseline.seconds) / baseline.seconds * 100.0
            : 0;
    std::fprintf(f,
                 "    {\"oracle\": \"%s\", \"seconds\": %.3f, "
                 "\"execs_per_sec\": %.1f, \"overhead_pct\": %.1f, "
                 "\"logic_flags\": %d}%s\n",
                 spec.c_str(), r.seconds, ExecsPerSec(r), overhead,
                 r.logic_flags, i + 1 < oracle_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"concurrent\": [\n");
  for (size_t i = 0; i < concurrent_rows.size(); ++i) {
    const auto& [sessions, r] = concurrent_rows[i];
    double overhead =
        baseline.seconds > 0
            ? (r.seconds - baseline.seconds) / baseline.seconds * 100.0
            : 0;
    std::fprintf(f,
                 "    {\"sessions\": %d, \"seconds\": %.3f, "
                 "\"execs_per_sec\": %.1f, \"scheduler_overhead_pct\": "
                 "%.1f, \"edges\": %zu}%s\n",
                 sessions, r.seconds, ExecsPerSec(r), overhead, r.edges,
                 i + 1 < concurrent_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"storage\": {\n"
               "    \"mem_execs_per_sec\": %.1f,\n"
               "    \"paged_execs_per_sec\": %.1f,\n"
               "    \"paged_overhead_pct\": %.1f,\n"
               "    \"wal_bytes\": %llu,\n"
               "    \"wal_fsyncs\": %llu,\n"
               "    \"pool_hit_rate_pct\": %.1f,\n"
               "    \"pool_hits\": %llu,\n"
               "    \"pool_misses\": %llu,\n"
               "    \"recovery\": {\"rows\": %d, \"snapshot_pages\": %llu, "
               "\"wal_records\": %llu, \"load_seconds\": %.3f, "
               "\"seconds\": %.3f}\n"
               "  },\n",
               ExecsPerSec(baseline), ExecsPerSec(paged_row), paged_overhead,
               static_cast<unsigned long long>(wal_bytes),
               static_cast<unsigned long long>(wal_fsyncs), pool_hit_rate,
               static_cast<unsigned long long>(recovery.pool_hits),
               static_cast<unsigned long long>(recovery.pool_misses),
               recovery.rows,
               static_cast<unsigned long long>(recovery.snapshot_pages),
               static_cast<unsigned long long>(recovery.replayed_records),
               recovery.load_seconds, recovery.recovery_seconds);
  std::fprintf(f,
               "  \"larger_than_ram\": {\"rows\": %d, \"pool_frames\": %zu, "
               "\"scans\": %d, \"scan_rows_per_sec\": %.0f, "
               "\"scan_pool_hit_rate_pct\": %.1f, \"scan_evictions\": %llu, "
               "\"load_seconds\": %.3f, \"recovery_seconds\": %.3f},\n",
               ltr.rows, ltr.pool_frames, ltr.scans, ltr.scan_rows_per_sec,
               ltr.scan_hit_rate_pct,
               static_cast<unsigned long long>(ltr.scan_evictions),
               ltr.load_seconds, ltr.recovery_seconds);
  std::fprintf(f,
               "  \"rule_coverage\": {\"off_execs_per_sec\": %.1f, "
               "\"on_execs_per_sec\": %.1f, \"overhead_pct\": %.1f, "
               "\"rules_covered\": %zu, \"rules_total\": %zu},\n",
               ExecsPerSec(baseline), ExecsPerSec(rules_on), rules_overhead,
               rules_on.rules, lego::cov::RuleMap::size());
  std::fprintf(f,
               "  \"parser_probes\": {\"iters\": %d, "
               "\"detached_scripts_per_sec\": %.1f, "
               "\"armed_scripts_per_sec\": %.1f, \"overhead_pct\": %.1f},\n",
               iters, iters / detached, iters / armed, probe_overhead);
  std::fprintf(f,
               "  \"fleet\": {\n"
               "    \"shards\": %d,\n"
               "    \"shard_budget\": %d,\n"
               "    \"serial_shards_seconds\": %.3f,\n"
               "    \"coordinator_overhead_pct\": %.1f,\n"
               "    \"workers\": [\n",
               fleet_shards, fleet_budget, serial_shards_seconds,
               coordinator_overhead_pct);
  for (size_t i = 0; i < fleet_rows.size(); ++i) {
    const FleetBenchRow& r = fleet_rows[i];
    std::fprintf(
        f,
        "      {\"workers\": %d, \"seconds\": %.3f, \"execs_per_sec\": "
        "%.1f, \"speedup_vs_1\": %.2f}%s\n",
        r.workers, r.seconds,
        r.seconds > 0 ? static_cast<double>(r.executions) / r.seconds : 0.0,
        r.seconds > 0 ? fleet_rows.front().seconds / r.seconds : 1.0,
        i + 1 < fleet_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n"
               "    \"distill\": {\"every\": 2, \"cycles\": %d, "
               "\"total_seconds\": %.3f, \"seconds_per_cycle\": %.3f}\n"
               "  }\n",
               fleet_distill.distill_cycles, fleet_distill.distill_seconds,
               distill_cycle_seconds);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
