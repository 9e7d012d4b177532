// Configured campaigns: one case per configuration the evaluation compares,
// each a fleet shard (fleet::ExecuteShard) of 2000 executions run in this
// process, plus the fleet itself at 1, 2 and 4 workers beside the same
// shards run one after another in this process, the zero-coordination
// baseline.
//
// BM_Campaign/lego_pglite is the no-oracle, in-process, mem-storage
// baseline; every case after the fuzzer/profile pairs changes one thing
// against it: an oracle spec, rule feedback, the backend or the storage.
//
// Every case reports `cpu_us_per_exec`, the CPU of this process and of its
// reaped children (fork servers, fleet workers) per execution, and `edges`,
// which depends only on the configuration and seed. Compare configurations
// by the CPU counter: wall time swings several-fold for the forked and
// fleet runs on a shared machine.
//
//   ./bench/micro_backend --benchmark_min_time=0.05
//   ./bench/micro_backend --benchmark_format=json   # machine-readable

#include <sys/resource.h>

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>

#include "bench_util.h"
#include "fleet/fleet.h"

namespace {

using lego::bench::Repeated;
using lego::bench::ScratchDir;
using lego::fleet::FleetConfig;

constexpr uint64_t kSeed = 7;
// Small: the forked backend runs every statement through a pipe
// round-trip, so a campaign is several times slower per execution.
constexpr int kBudget = 2000;
constexpr int kFleetShards = 8;
constexpr int kFleetBudget = 1000;

/// User+sys CPU of this process and of its reaped children, in seconds.
double CpuSecondsWithChildren() {
  auto sum = [](int who) {
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
  };
  return sum(RUSAGE_SELF) + sum(RUSAGE_CHILDREN);
}

void Report(benchmark::State& state, double cpu_start, int64_t execs_per_iter,
            size_t edges) {
  const int64_t execs = state.iterations() * execs_per_iter;
  state.SetItemsProcessed(execs);
  if (execs > 0) {
    state.counters["cpu_us_per_exec"] =
        (CpuSecondsWithChildren() - cpu_start) * 1e6 /
        static_cast<double>(execs);
  }
  state.counters["edges"] = static_cast<double>(edges);
}

FleetConfig Campaign(const char* fuzzer, const char* profile) {
  FleetConfig config;
  config.fuzzer = fuzzer;
  config.profile = profile;
  config.base_seed = kSeed;
  config.num_shards = 1;
  config.shard_budget = kBudget;
  return config;
}

FleetConfig WithOracle(const char* spec) {
  FleetConfig config = Campaign("lego", "pglite");
  config.oracle_spec = spec;
  return config;
}

FleetConfig WithRuleFeedback() {
  FleetConfig config = Campaign("lego", "pglite");
  config.rule_coverage = true;
  return config;
}

/// `sessions` 1 routes through the serial path, so its delta against the
/// baseline is the backend's construction cost; 2 and 4 add epoch
/// scheduling, row locks and the history log.
FleetConfig WithSessions(int sessions) {
  FleetConfig config = Campaign("lego", "pglite");
  config.backend.kind = lego::fuzz::BackendKind::kConcurrent;
  config.backend.sessions = sessions;
  return config;
}

/// Every statement crosses a pipe to a fork-server child and is parsed
/// again there.
FleetConfig WithForkedBackend() {
  FleetConfig config = Campaign("lego", "pglite");
  config.backend.kind = lego::fuzz::BackendKind::kForked;
  return config;
}

/// Paged storage logs every statement and resets the heap file per case;
/// its WAL and pool counters are the campaign's own.
FleetConfig WithPagedStorage() {
  FleetConfig config = Campaign("lego", "pglite");
  config.backend.storage = lego::fuzz::StorageKind::kPaged;
  return config;
}

FleetConfig FleetShards() {
  FleetConfig config = Campaign("lego", "pglite");
  config.num_shards = kFleetShards;
  config.shard_budget = kFleetBudget;
  return config;
}

void BM_Campaign(benchmark::State& state, FleetConfig config) {
  using namespace lego;  // NOLINT(build/namespaces)
  std::unique_ptr<ScratchDir> db_dir;
  if (config.backend.storage == fuzz::StorageKind::kPaged) {
    db_dir = std::make_unique<ScratchDir>("lego_bench_paged");
    config.backend.db_dir = db_dir->path();
  }
  fuzz::CampaignResult result;
  const double cpu_start = CpuSecondsWithChildren();
  for (auto _ : state) {
    auto outcome = fleet::ExecuteShard(config, 0, {}, nullptr, {});
    if (!outcome.ok() || !outcome->complete) {
      state.SkipWithError("shard did not exhaust its budget");
      break;
    }
    result = std::move(outcome->result);
    benchmark::DoNotOptimize(result.edges);
  }
  Report(state, cpu_start, config.shard_budget, result.edges);
  if (config.rule_coverage) {
    state.counters["rules"] = static_cast<double>(result.rules);
  }
  if (db_dir != nullptr) {
    const fuzz::BackendStorageStats& storage = result.storage;
    const double execs = config.shard_budget;
    state.counters["wal_records_per_exec"] =
        static_cast<double>(storage.wal_records) / execs;
    state.counters["wal_bytes_per_exec"] =
        static_cast<double>(storage.wal_bytes) / execs;
    state.counters["fsyncs_per_exec"] =
        static_cast<double>(storage.fsyncs) / execs;
    state.counters["pool_hit_rate"] = storage.pool_hit_rate();
  }
}

void CampaignCase(benchmark::internal::Benchmark* b) {
  b->Unit(benchmark::kMillisecond)->UseRealTime();
  Repeated(b);
}

BENCHMARK_CAPTURE(BM_Campaign, lego_pglite, Campaign("lego", "pglite"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, lego_marialite, Campaign("lego", "marialite"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, squirrel_marialite,
                  Campaign("squirrel", "marialite"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, sqlancer_mylite, Campaign("sqlancer", "mylite"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, sqlsmith_comdlite,
                  Campaign("sqlsmith", "comdlite"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, oracle_tlp, WithOracle("tlp"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, oracle_norec, WithOracle("norec"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, oracle_clause, WithOracle("clause"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, oracle_all, WithOracle("tlp,norec,clause"))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, rule_feedback, WithRuleFeedback())
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, concurrent_1, WithSessions(1))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, concurrent_2, WithSessions(2))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, concurrent_4, WithSessions(4))
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, paged, WithPagedStorage())
    ->Apply(CampaignCase);
BENCHMARK_CAPTURE(BM_Campaign, forked, WithForkedBackend())
    ->Apply(CampaignCase);

/// The fleet's shards run one after another in this process: what the
/// fleet would cost with no fork, pipes, leases or journal.
void BM_FleetShardsInProcess(benchmark::State& state) {
  using namespace lego;  // NOLINT(build/namespaces)
  const FleetConfig config = FleetShards();
  size_t edges = 0;
  const double cpu_start = CpuSecondsWithChildren();
  for (auto _ : state) {
    cov::GlobalCoverage coverage;
    for (int shard = 0; shard < config.num_shards; ++shard) {
      auto outcome = fleet::ExecuteShard(config, shard, {}, nullptr, {});
      if (!outcome.ok() || !outcome->complete) {
        state.SkipWithError("shard did not exhaust its budget");
        return;
      }
      coverage.MergeFrom(outcome->coverage);
    }
    edges = coverage.CoveredEdges();
  }
  Report(state, cpu_start, int64_t{config.num_shards} * config.shard_budget,
         edges);
}

/// The same shards through fleet::RunFleet with range(0) worker processes
/// and no corpus redistribution, so `edges` equals the in-process run's.
void BM_Fleet(benchmark::State& state) {
  using namespace lego;  // NOLINT(build/namespaces)
  ScratchDir fleet_dir("lego_bench_fleet");
  fleet::FleetOptions options;
  options.config = FleetShards();
  options.num_workers = static_cast<int>(state.range(0));
  options.fleet_dir = fleet_dir.path();
  size_t edges = 0;
  const double cpu_start = CpuSecondsWithChildren();
  for (auto _ : state) {
    fleet::FleetResult result = fleet::RunFleet(options);
    if (!result.status.ok() ||
        static_cast<int>(result.shards_done.size()) !=
            options.config.num_shards) {
      state.SkipWithError("fleet did not complete every shard");
      break;
    }
    edges = result.edges();
  }
  Report(state, cpu_start,
         int64_t{options.config.num_shards} * options.config.shard_budget,
         edges);
}

}  // namespace

BENCHMARK(BM_FleetShardsInProcess)->Apply(CampaignCase);
BENCHMARK(BM_Fleet)->Arg(1)->Arg(2)->Arg(4)->Apply(CampaignCase);

BENCHMARK_MAIN();
