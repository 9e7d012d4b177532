#ifndef LEGO_FLEET_SHARD_H_
#define LEGO_FLEET_SHARD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "minidb/profile.h"
#include "triage/oracle_suite.h"
#include "util/flags.h"

namespace lego::fleet {

/// What one worker ships home for one completed (or drained) lease.
struct ShardOutcome {
  int shard_id = 0;
  /// False when the shard was cut short by a drain (SIGTERM): the
  /// coordinator re-queues the shard instead of merging a partial result,
  /// keeping "merged state == union of complete shards" exact.
  bool complete = false;
  fuzz::CampaignResult result;
  /// The shard harness's full edge bitmap — merged coordinator-side for the
  /// exact fleet-wide union.
  cov::GlobalCoverage coverage;
};

/// Deterministic per-shard campaign seed: HashMix(base_seed, shard + 1).
/// Mixed rather than added: with base_seed + shard, shard 1 of seed 3 would
/// replay shard 0 of seed 4.
uint64_t ShardSeed(const FleetConfig& config, int shard_id);

/// The one fuzzer factory: builds a fuzzer by name ("lego", "lego-" for
/// the ablation, "squirrel", "sqlancer", "sqlsmith") seeded with `seed`.
/// Fleet shards, fuzz_campaign_cli, the benches and the tests all build
/// fuzzers here. Null on an unknown name.
std::unique_ptr<fuzz::Fuzzer> MakeFleetFuzzer(
    const std::string& name, const minidb::DialectProfile& profile,
    uint64_t seed);

/// The rows both campaign CLIs take: fuzz::CampaignBackendFlags, --oracle
/// and --rule-coverage. A repeated --oracle appends with a comma.
std::vector<flags::Flag> CampaignFlags(FleetConfig* config);

/// Refuses, before anything is built or forked, an unknown profile or
/// fuzzer, an unparseable oracle spec, or backend options that
/// fuzz::CheckBackendOptions refuses for the spec's durability request.
Status CheckCampaign(const FleetConfig& config);

/// A campaign as RunCampaign takes it.
struct Campaign {
  const minidb::DialectProfile* profile = nullptr;
  std::unique_ptr<fuzz::Fuzzer> fuzzer;
  /// Null for an empty spec; armed on the harness only with members (a
  /// "dur"-only suite is the backend's durability check). Declared before
  /// the harness, which points at it and so must be destroyed first.
  std::unique_ptr<triage::OracleSuite> suite;
  std::unique_ptr<fuzz::ExecutionHarness> harness;
};

/// The one campaign builder: CheckCampaign, then the fuzzer seeded `seed`
/// and the harness on config.backend with concurrency_seed = `seed`, so
/// concurrent interleavings follow the campaign seed. A forked backend
/// forks its child here: arm planted defects and failpoints first.
StatusOr<Campaign> BuildCampaign(const FleetConfig& config, uint64_t seed);

/// Runs one shard to completion in the calling process: a serial
/// RunCampaign of config.shard_budget executions seeded ShardSeed(shard_id)
/// with `pool` imported as the starting corpus. Pure function of
/// (config, shard_id, pool) — a re-queued shard replayed anywhere
/// reproduces the same outcome. `progress` (optional) receives the running
/// execution count as CampaignOptions::on_progress does; `stop` drains
/// cooperatively (outcome.complete turns false).
StatusOr<ShardOutcome> ExecuteShard(
    const FleetConfig& config, int shard_id,
    const std::vector<fuzz::TestCase>& pool, const std::atomic<bool>* stop,
    std::function<void(int64_t)> progress);

/// Serializes an outcome into persist-enveloped bytes (magic + version +
/// checksum), so the coordinator can ProbeEnvelope() a result frame and
/// reject torn/poisoned payloads before parsing: the CampaignResult in the
/// checkpoint's layout (SaveCampaignResult), then the corpus export, the
/// storage counters and the coverage bitmap. Decode mirrors; any
/// structural damage surfaces as a non-OK status.
std::string EncodeShardOutcome(const ShardOutcome& outcome);
StatusOr<ShardOutcome> DecodeShardOutcome(const std::string& bytes);

/// Serializes a corpus pool for a lease grant ("POOL" chunk, enveloped).
std::string EncodePool(const std::vector<fuzz::TestCase>& pool);
StatusOr<std::vector<fuzz::TestCase>> DecodePool(const std::string& bytes);

}  // namespace lego::fleet

#endif  // LEGO_FLEET_SHARD_H_
