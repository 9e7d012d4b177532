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
#include "minidb/profile.h"

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

/// Runs one shard to completion in the calling process: a serial
/// RunCampaign of config.shard_budget executions seeded ShardSeed(shard_id)
/// with `pool` imported as the starting corpus. Pure function of
/// (config, shard_id, pool) — a re-queued shard replayed anywhere
/// reproduces the same outcome. `progress` (optional) receives the running
/// execution count every config.progress_every executions; `stop` drains
/// cooperatively (outcome.complete turns false).
StatusOr<ShardOutcome> ExecuteShard(
    const FleetConfig& config, int shard_id,
    const std::vector<fuzz::TestCase>& pool, const std::atomic<bool>* stop,
    std::function<void(int64_t)> progress);

/// Serializes an outcome into persist-enveloped bytes (magic + version +
/// checksum), so the coordinator can ProbeEnvelope() a result frame and
/// reject torn/poisoned payloads before parsing. Decode mirrors; any
/// structural damage surfaces as a non-OK status.
std::string EncodeShardOutcome(const ShardOutcome& outcome);
StatusOr<ShardOutcome> DecodeShardOutcome(const std::string& bytes);

/// Serializes a corpus pool for a lease grant ("POOL" chunk, enveloped).
std::string EncodePool(const std::vector<fuzz::TestCase>& pool);
StatusOr<std::vector<fuzz::TestCase>> DecodePool(const std::string& bytes);

}  // namespace lego::fleet

#endif  // LEGO_FLEET_SHARD_H_
