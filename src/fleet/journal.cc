#include "fleet/journal.h"

#include <unistd.h>

#include <utility>

#include "chaos/failpoint.h"
#include "fuzz/state.h"
#include "persist/io.h"

namespace lego::fleet {
namespace {

constexpr char kFingerprintChunk[5] = "FLFP";
constexpr char kDataChunk[5] = "FLET";
/// Journal layout version, first in the fingerprint. 2 added the capture
/// shard of every finding and the held (not yet pooled) shard exports; 3
/// dropped the heartbeat cadence from the fingerprint and added the failed
/// reset count to the storage counters; 4 seeds each shard's concurrent
/// interleavings from its shard seed, so a concurrent fleet's shards from
/// before it must not merge with shards run since.
constexpr uint32_t kJournalVersion = 4;

void SaveFingerprint(const FleetConfig& config, persist::StateWriter* w) {
  w->BeginChunk(persist::ChunkTag(kFingerprintChunk));
  w->WriteU32(kJournalVersion);
  w->WriteString(config.profile);
  w->WriteString(config.fuzzer);
  w->WriteU64(config.base_seed);
  w->WriteU32(static_cast<uint32_t>(config.num_shards));
  w->WriteU32(static_cast<uint32_t>(config.shard_budget));
  w->WriteString(config.oracle_spec);
  w->WriteBool(config.rule_coverage);
  w->WriteString(std::string(fuzz::BackendKindName(config.backend.kind)));
  w->WriteString(std::string(fuzz::StorageKindName(config.backend.storage)));
  w->WriteU32(static_cast<uint32_t>(config.distill_every));
  w->EndChunk();
}

Status CheckFingerprint(const FleetConfig& config, persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(persist::ChunkTag(kFingerprintChunk)));
  const uint32_t version = r->ReadU32();
  if (r->ok() && version != kJournalVersion) {
    return Status::Unsupported("fleet journal: layout version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kJournalVersion) + ")");
  }
  const std::string profile = r->ReadString();
  const std::string fuzzer = r->ReadString();
  const uint64_t base_seed = r->ReadU64();
  const int num_shards = static_cast<int>(r->ReadU32());
  const int shard_budget = static_cast<int>(r->ReadU32());
  const std::string oracle_spec = r->ReadString();
  const bool rule_coverage = r->ReadBool();
  const std::string backend = r->ReadString();
  const std::string storage = r->ReadString();
  const int distill_every = static_cast<int>(r->ReadU32());
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  if (!r->ok()) return r->status();
  if (profile != config.profile || fuzzer != config.fuzzer ||
      base_seed != config.base_seed || num_shards != config.num_shards ||
      shard_budget != config.shard_budget ||
      oracle_spec != config.oracle_spec ||
      rule_coverage != config.rule_coverage ||
      backend != fuzz::BackendKindName(config.backend.kind) ||
      storage != fuzz::StorageKindName(config.backend.storage) ||
      distill_every != config.distill_every) {
    return Status::InvalidArgument(
        "fleet journal: campaign fingerprint mismatch (journal is from "
        "profile=" +
        profile + " fuzzer=" + fuzzer + " seed=" + std::to_string(base_seed) +
        " shards=" + std::to_string(num_shards) + ")");
  }
  return Status::OK();
}

/// One finding map (crashes by stack hash, logic bugs by fingerprint) with
/// its captures: count, then per finding its key, the finding, the origin
/// ("" when none), the capture shard (0 when the merge recorded none) and
/// the captured case.
template <typename Finding>
void SaveFindings(const std::map<uint64_t, Finding>& findings,
                  const std::map<uint64_t, fuzz::TestCase>& cases,
                  const std::map<uint64_t, std::string>& origins,
                  const std::map<uint64_t, int>& shards,
                  void (*save)(const Finding&, persist::StateWriter*),
                  persist::StateWriter* w) {
  w->WriteU64(findings.size());
  for (const auto& [key, finding] : findings) {
    w->WriteU64(key);
    save(finding, w);
    auto origin = origins.find(key);
    w->WriteString(origin == origins.end() ? std::string() : origin->second);
    auto shard = shards.find(key);
    w->WriteU32(static_cast<uint32_t>(shard == shards.end() ? 0
                                                             : shard->second));
    fuzz::SaveTestCase(cases.at(key), w);
  }
}

template <typename Finding>
Status LoadFindings(persist::StateReader* r,
                    Finding (*load)(persist::StateReader*),
                    std::map<uint64_t, Finding>* findings,
                    std::map<uint64_t, fuzz::TestCase>* cases,
                    std::map<uint64_t, std::string>* origins,
                    std::map<uint64_t, int>* shards) {
  const uint64_t count = r->ReadU64();
  if (!r->CheckCount(count, 8)) {
    return Status::Internal("fleet journal: corrupt finding map");
  }
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t key = r->ReadU64();
    Finding finding = load(r);
    const std::string origin = r->ReadString();
    const int shard = static_cast<int>(r->ReadU32());
    auto tc = fuzz::LoadTestCase(r);
    if (!tc.ok()) return tc.status();
    findings->emplace(key, std::move(finding));
    cases->emplace(key, std::move(*tc));
    shards->emplace(key, shard);
    if (!origin.empty()) origins->emplace(key, origin);
  }
  return Status::OK();
}

}  // namespace

std::string JournalPath(const std::string& fleet_dir) {
  return fleet_dir + "/" + kJournalFile;
}

Status SaveJournal(const std::string& fleet_dir, const FleetConfig& config,
                   const FleetResult& result) {
  // The failpoint sits before serialization so `kill:N` models a coordinator
  // lost at its most vulnerable moment: state assembled, nothing durable yet.
  if (LEGO_FAILPOINT("fleet.journal_write")) {
    return Status::Internal("fleet journal: injected write failure");
  }
  persist::StateWriter w;
  SaveFingerprint(config, &w);
  w.BeginChunk(persist::ChunkTag(kDataChunk));
  w.WriteU64(result.shards_done.size());
  for (int shard : result.shards_done) {
    w.WriteU32(static_cast<uint32_t>(shard));
  }
  w.WriteI64(result.executions);
  w.WriteI64(result.statements_executed);
  w.WriteI64(result.statement_errors);
  w.WriteI64(static_cast<int64_t>(result.crashes_total));
  w.WriteI64(static_cast<int64_t>(result.logic_bugs_total));
  w.WriteU64(result.rules);
  w.WriteU32(static_cast<uint32_t>(result.shards_requeued));
  w.WriteU32(static_cast<uint32_t>(result.leases_expired));
  w.WriteU32(static_cast<uint32_t>(result.results_rejected));
  w.WriteU32(static_cast<uint32_t>(result.duplicate_results));
  w.WriteU32(static_cast<uint32_t>(result.distill_cycles));
  w.WriteDouble(result.distill_seconds);
  SaveFindings(result.crashes, result.crash_cases, result.crash_origins,
               result.crash_shards, fuzz::SaveCrashInfo, &w);
  SaveFindings(result.logic, result.logic_cases, result.logic_origins,
               result.logic_shards, fuzz::SaveLogicBug, &w);
  fuzz::SaveTestCases(result.corpus, &w);
  fuzz::SaveTestCases(result.corpus_pending, &w);
  w.WriteU64(result.held_exports.size());
  for (const auto& [shard, cases] : result.held_exports) {
    w.WriteU32(static_cast<uint32_t>(shard));
    fuzz::SaveTestCases(cases, &w);
  }
  fuzz::SaveStorageStats(result.storage, &w);
  w.EndChunk();
  LEGO_RETURN_IF_ERROR(result.coverage.SaveState(&w));
  return w.WriteFileAtomic(JournalPath(fleet_dir));
}

Status LoadJournal(const std::string& fleet_dir, const FleetConfig& config,
                   FleetResult* result) {
  const std::string path = JournalPath(fleet_dir);
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("fleet journal: no " + path);
  }
  auto reader = persist::StateReader::FromFile(path);
  if (!reader.ok()) return reader.status();
  persist::StateReader& r = *reader;
  LEGO_RETURN_IF_ERROR(CheckFingerprint(config, &r));
  LEGO_RETURN_IF_ERROR(r.EnterChunk(persist::ChunkTag(kDataChunk)));
  const uint64_t done_count = r.ReadU64();
  if (!r.CheckCount(done_count, 4)) {
    return Status::Internal("fleet journal: corrupt done-set");
  }
  for (uint64_t i = 0; i < done_count; ++i) {
    result->shards_done.insert(static_cast<int>(r.ReadU32()));
  }
  result->executions = r.ReadI64();
  result->statements_executed = r.ReadI64();
  result->statement_errors = r.ReadI64();
  result->crashes_total = static_cast<int>(r.ReadI64());
  result->logic_bugs_total = static_cast<int>(r.ReadI64());
  result->rules = r.ReadU64();
  result->shards_requeued = static_cast<int>(r.ReadU32());
  result->leases_expired = static_cast<int>(r.ReadU32());
  result->results_rejected = static_cast<int>(r.ReadU32());
  result->duplicate_results = static_cast<int>(r.ReadU32());
  result->distill_cycles = static_cast<int>(r.ReadU32());
  result->distill_seconds = r.ReadDouble();
  LEGO_RETURN_IF_ERROR(LoadFindings(&r, fuzz::LoadCrashInfo, &result->crashes,
                                   &result->crash_cases,
                                   &result->crash_origins,
                                   &result->crash_shards));
  LEGO_RETURN_IF_ERROR(LoadFindings(&r, fuzz::LoadLogicBug, &result->logic,
                                   &result->logic_cases,
                                   &result->logic_origins,
                                   &result->logic_shards));
  LEGO_RETURN_IF_ERROR(fuzz::LoadTestCases(&r, &result->corpus));
  LEGO_RETURN_IF_ERROR(fuzz::LoadTestCases(&r, &result->corpus_pending));
  const uint64_t held_count = r.ReadU64();
  if (!r.CheckCount(held_count, 12)) {
    return Status::Internal("fleet journal: corrupt held exports");
  }
  for (uint64_t i = 0; i < held_count; ++i) {
    const int shard = static_cast<int>(r.ReadU32());
    LEGO_RETURN_IF_ERROR(
        fuzz::LoadTestCases(&r, &result->held_exports[shard]));
  }
  result->storage = fuzz::LoadStorageStats(&r);
  LEGO_RETURN_IF_ERROR(r.ExitChunk());
  LEGO_RETURN_IF_ERROR(result->coverage.LoadState(&r));
  if (!r.ok()) return r.status();
  return Status::OK();
}

}  // namespace lego::fleet
