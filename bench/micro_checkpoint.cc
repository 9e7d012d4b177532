// Checkpointing overhead: campaign execs/sec with persistence off vs
// checkpointing every 1k / 10k executions, plus the
// latency of a single full state save. The execs/sec deltas between the
// `ckpt` rows and their `off` baseline are the cost of durability; the
// save-latency row bounds the stall a serial campaign sees per checkpoint.
// BM_FleetJournal is the fleet coordinator's counterpart: the journal
// writes of one fleet, with a snapshot per accepted shard against a
// snapshot plus appended records.
//
//   ./bench/micro_checkpoint

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "fleet/journal.h"
#include "fleet/shard.h"
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

/// A fleet-2-shaped run, recorded once: 12 pglite LEGO shards of 2000
/// executions with one distill after the last. Holds each shard's result
/// envelope as a worker sends it, and the merged state after the last
/// shard, whose acceptance distills.
struct RecordedFleet {
  lego::fleet::FleetConfig config;
  std::vector<std::string> envelopes;
  lego::fleet::FleetResult last;
};

const RecordedFleet& Recorded() {
  static const RecordedFleet* recorded = [] {
    using namespace lego;  // NOLINT(build/namespaces)
    auto* r = new RecordedFleet;
    r->config.num_shards = 12;
    r->config.shard_budget = 2000;
    r->config.distill_every = 12;
    for (int shard = 0; shard < r->config.num_shards; ++shard) {
      auto outcome = fleet::ExecuteShard(r->config, shard, {}, nullptr, {});
      if (!outcome.ok()) break;
      r->envelopes.push_back(fleet::EncodeShardOutcome(*outcome));
      (void)fleet::AcceptShard(r->config, std::move(*outcome), "w0", &r->last);
    }
    return r;
  }();
  return *recorded;
}

double FileBytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path));
}

/// The journal writes of one fleet, shard results already in hand: the
/// setup snapshot, then per accepted shard a snapshot (range(0) = 0, the
/// layout before records) or a record (1), and a snapshot for the last
/// shard, whose acceptance distills. Decoding and merging the results is
/// not timed. Time is per fleet; `written_kb` and `serialized_kb` are the
/// bytes per fleet that reach the file and that SaveJournal serializes.
void BM_FleetJournal(benchmark::State& state) {
  using namespace lego;  // NOLINT(build/namespaces)
  const bool append = state.range(0) != 0;
  const RecordedFleet& rec = Recorded();
  if (rec.envelopes.size() != static_cast<size_t>(rec.config.num_shards)) {
    state.SkipWithError("recording the fleet failed");
    return;
  }
  const bench::ScratchDir dir("lego_bench_fleet_journal");
  const std::string path = fleet::JournalPath(dir.path());
  double written = 0, serialized = 0;
  for (auto _ : state) {
    state.PauseTiming();
    fleet::FleetResult live;
    state.ResumeTiming();
    Status st = fleet::SaveJournal(dir.path(), rec.config, live);
    written = serialized = FileBytes(path);
    for (size_t shard = 0; st.ok() && shard + 1 < rec.envelopes.size();
         ++shard) {
      state.PauseTiming();
      auto outcome = fleet::DecodeShardOutcome(rec.envelopes[shard]);
      if (outcome.ok()) {
        (void)fleet::AcceptShard(rec.config, std::move(*outcome), "w0", &live);
      }
      state.ResumeTiming();
      const double before = FileBytes(path);
      st = append ? fleet::AppendJournal(dir.path(), static_cast<int>(shard),
                                         rec.envelopes[shard], "w0", live)
                  : fleet::SaveJournal(dir.path(), rec.config, live);
      const double after = FileBytes(path);
      written += append ? after - before : after;
      if (!append) serialized += after;
    }
    if (st.ok()) st = fleet::SaveJournal(dir.path(), rec.config, rec.last);
    const double last = FileBytes(path);
    written += last;
    serialized += last;
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * rec.config.num_shards);
  state.counters["written_kb"] = written / 1024;
  state.counters["serialized_kb"] = serialized / 1024;
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

BENCHMARK(BM_FleetJournal)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Apply(lego::bench::Repeated);

BENCHMARK_MAIN();
