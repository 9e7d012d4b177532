// Chaos/governance overhead pricing.
//
// 1. Failpoint check: the cost of one LEGO_FAILPOINT site when the registry
//    is disarmed (one relaxed atomic load + branch — must be nanoseconds;
//    the acceptance bar is <1% on any hot path) vs armed-but-never-firing
//    (registry scan + seeded draw — still cheap, only paid in chaos runs).
// 2. Campaign with all failpoints armed at probability 0 vs disarmed: the
//    end-to-end cost of *carrying* the chaos layer through a real workload.
// 3. Governed vs ungoverned forked campaigns: what the
//    per-child rlimit caps (setrlimit at spawn) cost in practice.
//
//   ./bench/micro_chaos

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "chaos/failpoint.h"

namespace {

void BM_FailpointCheck_Disabled(benchmark::State& state) {
  lego::chaos::DisarmAll();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LEGO_FAILPOINT("minidb.insert_alloc"));
  }
}

void BM_FailpointCheck_ArmedNeverFiring(benchmark::State& state) {
  lego::chaos::ArmAll(/*seed=*/1, /*probability=*/0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LEGO_FAILPOINT("minidb.insert_alloc"));
  }
  lego::chaos::DisarmAll();
}

constexpr int kBudget = 2000;

void RunChaosCampaign(benchmark::State& state, bool armed) {
  using namespace lego;  // NOLINT(build/namespaces)
  const auto& profile = minidb::DialectProfile::PgLite();
  if (armed) {
    chaos::ArmAll(/*seed=*/1, /*probability=*/0.0);  // full cost, no faults
  } else {
    chaos::DisarmAll();
  }
  for (auto _ : state) {
    auto fuzzer = fleet::MakeFleetFuzzer("lego", profile, /*seed=*/1);
    fuzz::ExecutionHarness harness(profile);
    fuzz::CampaignOptions options;
    options.max_executions = kBudget;
    options.snapshot_every = kBudget;
    fuzz::CampaignResult result =
        fuzz::RunCampaign(fuzzer.get(), &harness, options);
    benchmark::DoNotOptimize(result.edges);
    if (result.executions != kBudget) {
      state.SkipWithError("campaign did not exhaust its budget");
      break;
    }
  }
  chaos::DisarmAll();
  state.SetItemsProcessed(state.iterations() * kBudget);
}

void BM_Campaign_ChaosDisarmed(benchmark::State& state) {
  RunChaosCampaign(state, /*armed=*/false);
}

void BM_Campaign_ChaosArmedNeverFiring(benchmark::State& state) {
  RunChaosCampaign(state, /*armed=*/true);
}

void RunGovernedCampaign(benchmark::State& state, bool governed) {
  using namespace lego;  // NOLINT(build/namespaces)
  const auto& profile = minidb::DialectProfile::PgLite();
  fuzz::BackendOptions backend;
  backend.kind = fuzz::BackendKind::kForked;
  if (governed) {
    backend.max_child_mem_mb = 512;
    backend.max_child_cpu_s = 60;
    backend.max_child_fsize_mb = 64;
  }
  for (auto _ : state) {
    auto fuzzer = fleet::MakeFleetFuzzer("lego", profile, /*seed=*/1);
    fuzz::ExecutionHarness harness(profile, backend);
    fuzz::CampaignOptions options;
    options.max_executions = kBudget;
    options.snapshot_every = kBudget;
    fuzz::CampaignResult result =
        fuzz::RunCampaign(fuzzer.get(), &harness, options);
    benchmark::DoNotOptimize(result.edges);
    if (result.executions != kBudget) {
      state.SkipWithError("campaign did not exhaust its budget");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * kBudget);
}

void BM_ForkedCampaign_Ungoverned(benchmark::State& state) {
  RunGovernedCampaign(state, /*governed=*/false);
}

void BM_ForkedCampaign_Governed(benchmark::State& state) {
  RunGovernedCampaign(state, /*governed=*/true);
}

}  // namespace

BENCHMARK(BM_FailpointCheck_Disabled)->Apply(lego::bench::Repeated);
BENCHMARK(BM_FailpointCheck_ArmedNeverFiring)
    ->Apply(lego::bench::Repeated);
BENCHMARK(BM_Campaign_ChaosDisarmed)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(lego::bench::Repeated);
BENCHMARK(BM_Campaign_ChaosArmedNeverFiring)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(lego::bench::Repeated);
BENCHMARK(BM_ForkedCampaign_Ungoverned)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(lego::bench::Repeated);
BENCHMARK(BM_ForkedCampaign_Governed)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(lego::bench::Repeated);

BENCHMARK_MAIN();
