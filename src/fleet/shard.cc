#include "fleet/shard.h"

#include <utility>

#include "baselines/sqlancer_like.h"
#include "baselines/sqlsmith_like.h"
#include "baselines/squirrel_like.h"
#include "fuzz/checkpoint.h"
#include "fuzz/state.h"
#include "lego/lego_fuzzer.h"
#include "persist/io.h"
#include "util/hash.h"

namespace lego::fleet {
namespace {

// Shard payload layout version-stamped by the persist envelope; the chunk
// tag guards against feeding some other enveloped file into the decoder.
constexpr char kShardChunk[5] = "SHRD";
constexpr char kPoolChunk[5] = "POOL";

}  // namespace

uint64_t ShardSeed(const FleetConfig& config, int shard_id) {
  // +1 keeps shard 0 off the raw base seed, which serial campaigns use.
  return HashMix(config.base_seed, static_cast<uint64_t>(shard_id) + 1);
}

std::unique_ptr<fuzz::Fuzzer> MakeFleetFuzzer(
    const std::string& name, const minidb::DialectProfile& profile,
    uint64_t seed) {
  if (name == "lego" || name == "lego-") {
    core::LegoOptions options;
    options.sequence_algorithms_enabled = (name == "lego");
    options.rng_seed = seed;
    return std::make_unique<core::LegoFuzzer>(profile, options);
  }
  if (name == "squirrel") {
    return std::make_unique<baselines::SquirrelLikeFuzzer>(profile, seed);
  }
  if (name == "sqlancer") {
    return std::make_unique<baselines::SqlancerLikeFuzzer>(profile, seed);
  }
  if (name == "sqlsmith") {
    return std::make_unique<baselines::SqlsmithLikeFuzzer>(profile, seed);
  }
  return nullptr;
}

std::vector<flags::Flag> CampaignFlags(FleetConfig* config) {
  std::vector<flags::Flag> table = fuzz::CampaignBackendFlags(&config->backend);
  table.insert(
      table.end(),
      {
          {"oracle",
           [config](std::string_view value) {
             if (!config->oracle_spec.empty()) config->oracle_spec += ',';
             config->oracle_spec += value;
             return Status::OK();
           },
           "LIST",
           "logic oracles from tlp,norec,clause,iso,dur; dur needs forked + "
           "paged (repeatable)"},
          {"rule-coverage", &config->rule_coverage, "",
           "grammar-rule coverage as a secondary feedback signal"},
      });
  return table;
}

Status CheckCampaign(const FleetConfig& config) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(config.profile);
  if (profile == nullptr) {
    return Status::InvalidArgument("unknown profile '" + config.profile + "'");
  }
  if (MakeFleetFuzzer(config.fuzzer, *profile, 0) == nullptr) {
    return Status::InvalidArgument("unknown fuzzer '" + config.fuzzer + "'");
  }
  bool durability = false;
  if (!config.oracle_spec.empty()) {
    std::string error;
    auto suite = triage::OracleSuite::FromSpec(config.oracle_spec, &error);
    if (suite == nullptr) {
      return Status::InvalidArgument("bad --oracle '" + config.oracle_spec +
                                     "': " + error);
    }
    durability = suite->durability_requested();
  }
  return fuzz::CheckBackendOptions(config.backend, durability);
}

StatusOr<Campaign> BuildCampaign(const FleetConfig& config, uint64_t seed) {
  LEGO_RETURN_IF_ERROR(CheckCampaign(config));
  Campaign campaign;
  campaign.profile = minidb::DialectProfile::ByName(config.profile);
  campaign.fuzzer = MakeFleetFuzzer(config.fuzzer, *campaign.profile, seed);
  fuzz::BackendOptions backend = config.backend;
  // Interleavings are part of the campaign's deterministic identity: the
  // concurrent backend derives each case's scheduler seed from this.
  backend.concurrency_seed = seed;
  if (!config.oracle_spec.empty()) {
    campaign.suite = triage::OracleSuite::FromSpec(config.oracle_spec, nullptr);
    if (campaign.suite->durability_requested()) backend.durability_check = true;
  }
  campaign.harness =
      std::make_unique<fuzz::ExecutionHarness>(*campaign.profile, backend);
  campaign.harness->set_rule_coverage(config.rule_coverage);
  if (campaign.suite != nullptr && !campaign.suite->MemberNames().empty()) {
    campaign.harness->set_logic_oracle(campaign.suite.get());
  }
  return campaign;
}

StatusOr<ShardOutcome> ExecuteShard(
    const FleetConfig& config, int shard_id,
    const std::vector<fuzz::TestCase>& pool, const std::atomic<bool>* stop,
    std::function<void(int64_t)> progress) {
  auto campaign = BuildCampaign(config, ShardSeed(config, shard_id));
  if (!campaign.ok()) return campaign.status();

  fuzz::CampaignOptions options;
  options.max_executions = config.shard_budget;
  options.snapshot_every = 0;
  options.export_corpus = true;
  if (!pool.empty()) options.import_seeds = &pool;
  options.stop_flag = stop;
  options.on_progress = std::move(progress);

  ShardOutcome outcome;
  outcome.shard_id = shard_id;
  outcome.result = fuzz::RunCampaign(campaign->fuzzer.get(),
                                     campaign->harness.get(), options);
  outcome.complete = !outcome.result.stopped_early &&
                     outcome.result.executions >= config.shard_budget;
  outcome.coverage = campaign->harness->global_coverage();
  if (!outcome.result.state_status.ok()) {
    return outcome.result.state_status;
  }
  return outcome;
}

std::string EncodeShardOutcome(const ShardOutcome& outcome) {
  persist::StateWriter w;
  w.BeginChunk(persist::ChunkTag(kShardChunk));
  w.WriteU32(static_cast<uint32_t>(outcome.shard_id));
  w.WriteBool(outcome.complete);
  // Fails only on a result whose captures are out of step; the empty
  // payload is then refused by the decoder like any poisoned one.
  if (!fuzz::SaveCampaignResult(outcome.result, &w).ok()) return {};
  fuzz::SaveTestCases(outcome.result.corpus_export, &w);
  fuzz::SaveStorageStats(outcome.result.storage, &w);
  w.EndChunk();
  (void)outcome.coverage.SaveState(&w);
  return w.EnvelopedBytes();
}

StatusOr<ShardOutcome> DecodeShardOutcome(const std::string& bytes) {
  auto reader = persist::StateReader::FromEnvelope(bytes);
  if (!reader.ok()) return reader.status();
  persist::StateReader& r = *reader;
  LEGO_RETURN_IF_ERROR(r.EnterChunk(persist::ChunkTag(kShardChunk)));

  ShardOutcome outcome;
  outcome.shard_id = static_cast<int>(r.ReadU32());
  outcome.complete = r.ReadBool();
  fuzz::CampaignResult& res = outcome.result;
  LEGO_RETURN_IF_ERROR(fuzz::LoadCampaignResult(&r, &res));
  LEGO_RETURN_IF_ERROR(fuzz::LoadTestCases(&r, &res.corpus_export));
  res.storage = fuzz::LoadStorageStats(&r);
  LEGO_RETURN_IF_ERROR(r.ExitChunk());
  LEGO_RETURN_IF_ERROR(outcome.coverage.LoadState(&r));
  if (!r.ok()) return r.status();
  return outcome;
}

std::string EncodePool(const std::vector<fuzz::TestCase>& pool) {
  persist::StateWriter w;
  w.BeginChunk(persist::ChunkTag(kPoolChunk));
  fuzz::SaveTestCases(pool, &w);
  w.EndChunk();
  return w.EnvelopedBytes();
}

StatusOr<std::vector<fuzz::TestCase>> DecodePool(const std::string& bytes) {
  auto reader = persist::StateReader::FromEnvelope(bytes);
  if (!reader.ok()) return reader.status();
  persist::StateReader& r = *reader;
  LEGO_RETURN_IF_ERROR(r.EnterChunk(persist::ChunkTag(kPoolChunk)));
  std::vector<fuzz::TestCase> pool;
  LEGO_RETURN_IF_ERROR(fuzz::LoadTestCases(&r, &pool));
  LEGO_RETURN_IF_ERROR(r.ExitChunk());
  if (!r.ok()) return r.status();
  return pool;
}

}  // namespace lego::fleet
