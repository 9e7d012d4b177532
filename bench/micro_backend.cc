// Execution-backend overhead: execs/sec of the in-process engine vs the
// forked crash-isolated child, same budget. The gap is
// the price of the pipe round-trip + child-side re-parse per statement —
// the figure that tells you what crash isolation costs on this machine.
//
//   ./bench/micro_backend

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

// Small: the forked backend runs every statement through a pipe
// round-trip, so a campaign is several times slower per execution.
constexpr int kBudget = 2000;

void RunBackendCampaign(benchmark::State& state,
                        lego::fuzz::BackendKind kind) {
  using namespace lego;  // NOLINT(build/namespaces)
  const auto& profile = minidb::DialectProfile::PgLite();
  fuzz::BackendOptions backend;
  backend.kind = kind;
  for (auto _ : state) {
    auto fuzzer = fleet::MakeFleetFuzzer("lego", profile, /*seed=*/1);
    fuzz::ExecutionHarness harness(profile, backend);
    fuzz::CampaignOptions options;
    options.max_executions = kBudget;
    options.snapshot_every = kBudget;  // curve bookkeeping off the hot path
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

void BM_InProcessBackend(benchmark::State& state) {
  RunBackendCampaign(state, lego::fuzz::BackendKind::kInProcess);
}

void BM_ForkedBackend(benchmark::State& state) {
  RunBackendCampaign(state, lego::fuzz::BackendKind::kForked);
}

}  // namespace

BENCHMARK(BM_InProcessBackend)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ForkedBackend)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK_MAIN();
