// Checkpointing overhead: campaign execs/sec with persistence off vs
// checkpointing every 1k / 10k executions, plus the
// latency of a single full state save. The execs/sec deltas between the
// `ckpt` rows and their `off` baseline are the cost of durability; the
// save-latency row bounds the stall a serial campaign sees per checkpoint.
//
//   ./bench/micro_checkpoint

#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"
#include "fuzz/checkpoint.h"
#include "persist/io.h"

namespace {

// Big enough that the 10k-interval rows actually checkpoint mid-run.
constexpr int kBudget = 20000;

/// One campaign per iteration; range(0) = checkpoint interval (0 =
/// persistence off entirely).
void BM_CampaignCheckpoint(benchmark::State& state) {
  using namespace lego;  // NOLINT(build/namespaces)
  const int interval = static_cast<int>(state.range(0));
  const auto& profile = minidb::DialectProfile::PgLite();
  const lego::bench::ScratchDir dir("lego_bench_ckpt");
  for (auto _ : state) {
    auto fuzzer = fleet::MakeFleetFuzzer("lego", profile, /*seed=*/1);
    fuzz::ExecutionHarness harness(profile);
    fuzz::CampaignOptions options;
    options.max_executions = kBudget;
    options.snapshot_every = kBudget;
    if (interval > 0) {
      options.state_dir = dir.path();
      options.checkpoint_every = interval;
    }
    fuzz::CampaignResult result =
        fuzz::RunCampaign(fuzzer.get(), &harness, options);
    benchmark::DoNotOptimize(result.edges);
    if (!result.state_status.ok()) {
      state.SkipWithError(result.state_status.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * kBudget);
  state.counters["ckpt_every"] = interval;
}

/// Latency of one serial checkpoint: serialize a mid-campaign fuzzer +
/// harness + result and write the atomic state file.
void BM_StateSaveLatency(benchmark::State& state) {
  using namespace lego;  // NOLINT(build/namespaces)
  const auto& profile = minidb::DialectProfile::PgLite();
  auto fuzzer = fleet::MakeFleetFuzzer("lego", profile, /*seed=*/1);
  fuzz::ExecutionHarness harness(profile);
  fuzz::CampaignOptions options;
  options.max_executions = static_cast<int>(state.range(0));
  options.snapshot_every = options.max_executions;
  fuzz::CampaignResult result =
      fuzz::RunCampaign(fuzzer.get(), &harness, options);

  const bench::ScratchDir dir("lego_bench_ckpt");
  const std::string path = fuzz::SerialStatePath(dir.path());
  size_t bytes = 0;
  for (auto _ : state) {
    persist::StateWriter w;
    fuzz::WriteCampaignFingerprint(fuzzer->name(), profile.name, options, &w);
    if (!fuzz::SaveCampaignResult(result, &w).ok() ||
        !fuzzer->SaveState(&w).ok() || !harness.SaveState(&w).ok() ||
        !w.WriteFileAtomic(path).ok()) {
      state.SkipWithError("state save failed");
      break;
    }
    bytes = w.buffer().size();
  }
  state.counters["state_bytes"] = static_cast<double>(bytes);
}

}  // namespace

BENCHMARK(BM_CampaignCheckpoint)
    ->Arg(0)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(lego::bench::Repeated);

BENCHMARK(BM_StateSaveLatency)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMicrosecond)
    ->Apply(lego::bench::Repeated);

BENCHMARK_MAIN();
