// Execution-backend overhead: execs/sec of the in-process engine vs the
// forked crash-isolated child, same budget. The gap is
// the price of the pipe round-trip + child-side re-parse per statement —
// the figure that tells you what crash isolation costs on this machine.
//
// Wall time on a shared machine swings widely for the forked run, whose
// child's CPU the CPU column never sees. The `cpu_us_per_exec` counter adds
// the CPU of reaped children (each iteration's harness reaps its fork
// server when it is destroyed), so it compares the two backends by the work
// they do.
//
//   ./bench/micro_backend

#include <sys/resource.h>

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

// Small: the forked backend runs every statement through a pipe
// round-trip, so a campaign is several times slower per execution.
constexpr int kBudget = 2000;

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

void RunBackendCampaign(benchmark::State& state,
                        lego::fuzz::BackendKind kind) {
  using namespace lego;  // NOLINT(build/namespaces)
  const auto& profile = minidb::DialectProfile::PgLite();
  fuzz::BackendOptions backend;
  backend.kind = kind;
  const double cpu_start = CpuSecondsWithChildren();
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
  const double execs = static_cast<double>(state.iterations()) * kBudget;
  state.SetItemsProcessed(state.iterations() * kBudget);
  if (execs > 0) {
    state.counters["cpu_us_per_exec"] =
        (CpuSecondsWithChildren() - cpu_start) * 1e6 / execs;
  }
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
