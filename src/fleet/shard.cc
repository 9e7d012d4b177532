#include "fleet/shard.h"

#include <utility>

#include "baselines/sqlancer_like.h"
#include "baselines/sqlsmith_like.h"
#include "baselines/squirrel_like.h"
#include "fuzz/harness.h"
#include "fuzz/state.h"
#include "lego/lego_fuzzer.h"
#include "persist/io.h"
#include "triage/oracle_suite.h"
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

StatusOr<ShardOutcome> ExecuteShard(
    const FleetConfig& config, int shard_id,
    const std::vector<fuzz::TestCase>& pool, const std::atomic<bool>* stop,
    std::function<void(int64_t)> progress) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(config.profile);
  if (profile == nullptr) {
    return Status::InvalidArgument("fleet: unknown profile '" +
                                   config.profile + "'");
  }
  auto fuzzer = MakeFleetFuzzer(config.fuzzer, *profile, 0);
  if (fuzzer == nullptr) {
    return Status::InvalidArgument("fleet: unknown fuzzer '" + config.fuzzer +
                                   "'");
  }
  // Rebuild with the shard seed (the probe above only validated the name).
  fuzzer = MakeFleetFuzzer(config.fuzzer, *profile, ShardSeed(config, shard_id));

  std::unique_ptr<triage::OracleSuite> suite;
  fuzz::BackendOptions backend = config.backend;
  if (!config.oracle_spec.empty()) {
    std::string error;
    suite = triage::OracleSuite::FromSpec(config.oracle_spec, &error);
    if (suite == nullptr) {
      return Status::InvalidArgument("fleet: bad oracle spec: " + error);
    }
    if (suite->durability_requested()) backend.durability_check = true;
  }

  fuzz::ExecutionHarness harness(*profile, backend);
  harness.set_rule_coverage(config.rule_coverage);
  if (suite != nullptr) harness.set_logic_oracle(suite.get());

  fuzz::CampaignOptions options;
  options.max_executions = config.shard_budget;
  options.snapshot_every = 0;
  options.export_corpus = true;
  if (!pool.empty()) options.import_seeds = &pool;
  options.stop_flag = stop;
  options.on_progress = std::move(progress);
  options.progress_every = config.progress_every;

  ShardOutcome outcome;
  outcome.shard_id = shard_id;
  outcome.result = fuzz::RunCampaign(fuzzer.get(), &harness, options);
  outcome.complete = !outcome.result.stopped_early &&
                     outcome.result.executions >= config.shard_budget;
  outcome.coverage = harness.global_coverage();
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
  const fuzz::CampaignResult& r = outcome.result;
  w.WriteI64(r.executions);
  w.WriteI64(r.statements_executed);
  w.WriteI64(r.statement_errors);
  w.WriteI64(r.crashes_total);
  w.WriteI64(r.logic_bugs_total);
  w.WriteU64(r.rules);
  w.WriteU64(r.fuzzer_stats.corpus_seeds);

  w.WriteU64(r.captured_cases.size());
  for (size_t i = 0; i < r.captured_cases.size(); ++i) {
    fuzz::SaveCrashInfo(r.captured_crashes[i], &w);
    fuzz::SaveTestCase(r.captured_cases[i], &w);
  }
  w.WriteU64(r.captured_logic_cases.size());
  for (size_t i = 0; i < r.captured_logic_cases.size(); ++i) {
    fuzz::SaveLogicBug(r.captured_logic_bugs[i], &w);
    fuzz::SaveTestCase(r.captured_logic_cases[i], &w);
  }
  fuzz::SaveTestCases(r.corpus_export, &w);
  fuzz::SaveStorageStats(r.storage, &w);
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
  res.executions = static_cast<int>(r.ReadI64());
  res.statements_executed = static_cast<int>(r.ReadI64());
  res.statement_errors = static_cast<int>(r.ReadI64());
  res.crashes_total = static_cast<int>(r.ReadI64());
  res.logic_bugs_total = static_cast<int>(r.ReadI64());
  res.rules = r.ReadU64();
  res.fuzzer_stats.corpus_seeds = r.ReadU64();

  const uint64_t crash_count = r.ReadU64();
  if (!r.CheckCount(crash_count, 1)) {
    return Status::Internal("fleet shard: corrupt crash count");
  }
  for (uint64_t i = 0; i < crash_count; ++i) {
    minidb::CrashInfo crash = fuzz::LoadCrashInfo(&r);
    auto tc = fuzz::LoadTestCase(&r);
    if (!tc.ok()) return tc.status();
    res.crash_hashes.insert(crash.stack_hash);
    res.bug_ids.insert(crash.bug_id);
    res.captured_crashes.push_back(std::move(crash));
    res.captured_cases.push_back(std::move(*tc));
  }
  const uint64_t logic_count = r.ReadU64();
  if (!r.CheckCount(logic_count, 1)) {
    return Status::Internal("fleet shard: corrupt logic count");
  }
  for (uint64_t i = 0; i < logic_count; ++i) {
    fuzz::LogicBugInfo bug = fuzz::LoadLogicBug(&r);
    auto tc = fuzz::LoadTestCase(&r);
    if (!tc.ok()) return tc.status();
    res.logic_fingerprints.insert(bug.fingerprint);
    res.captured_logic_bugs.push_back(std::move(bug));
    res.captured_logic_cases.push_back(std::move(*tc));
  }
  LEGO_RETURN_IF_ERROR(fuzz::LoadTestCases(&r, &res.corpus_export));
  res.storage = fuzz::LoadStorageStats(&r);
  LEGO_RETURN_IF_ERROR(r.ExitChunk());
  LEGO_RETURN_IF_ERROR(outcome.coverage.LoadState(&r));
  if (!r.ok()) return r.status();
  res.edges = outcome.coverage.CoveredEdges();
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
