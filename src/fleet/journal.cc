#include "fleet/journal.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "chaos/failpoint.h"
#include "fleet/shard.h"
#include "fuzz/state.h"
#include "minidb/env.h"
#include "persist/io.h"

namespace lego::fleet {
namespace {

constexpr char kFingerprintChunk[5] = "FLFP";
constexpr char kDataChunk[5] = "FLET";
constexpr char kRecordChunk[5] = "FLRC";
/// Journal layout version, first in the fingerprint. 2 added the capture
/// shard of every finding and the held (not yet pooled) shard exports; 3
/// dropped the heartbeat cadence from the fingerprint and added the failed
/// reset count to the storage counters; 4 seeds each shard's concurrent
/// interleavings from its shard seed, so a concurrent fleet's shards from
/// before it must not merge with shards run since; 5 appends a record per
/// accepted shard after the snapshot.
constexpr uint32_t kJournalVersion = 5;

/// The journaled coordinator counters that no shard outcome carries: the
/// snapshot holds them, and each record holds them as of its acceptance.
struct Counters {
  int requeued = 0;
  int expired = 0;
  int rejected = 0;
  int duplicates = 0;
  int distill_cycles = 0;
  double distill_seconds = 0.0;

  static Counters Of(const FleetResult& result) {
    return {result.shards_requeued,   result.leases_expired,
            result.results_rejected,  result.duplicate_results,
            result.distill_cycles,    result.distill_seconds};
  }
  void ApplyTo(FleetResult* result) const {
    result->shards_requeued = requeued;
    result->leases_expired = expired;
    result->results_rejected = rejected;
    result->duplicate_results = duplicates;
    result->distill_cycles = distill_cycles;
    result->distill_seconds = distill_seconds;
  }
  void Save(persist::StateWriter* w) const {
    for (int v : {requeued, expired, rejected, duplicates, distill_cycles}) {
      w->WriteU32(static_cast<uint32_t>(v));
    }
    w->WriteDouble(distill_seconds);
  }
  void Load(persist::StateReader* r) {
    for (int* v : {&requeued, &expired, &rejected, &duplicates,
                   &distill_cycles}) {
      *v = static_cast<int>(r->ReadU32());
    }
    distill_seconds = r->ReadDouble();
  }
};

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

/// One record's header: the FLRC chunk AppendJournal writes.
struct RecordHeader {
  int shard = 0;
  std::string origin;
  Counters counters;
};

bool ReadRecordHeader(std::string_view envelope, RecordHeader* header) {
  auto reader = persist::StateReader::FromEnvelope(std::string(envelope));
  if (!reader.ok()) return false;
  persist::StateReader& r = *reader;
  if (!r.EnterChunk(persist::ChunkTag(kRecordChunk)).ok()) return false;
  header->shard = static_cast<int>(r.ReadU32());
  header->origin = r.ReadString();
  header->counters.Load(&r);
  return r.ExitChunk().ok() && r.ok();
}

/// Replays the records after the snapshot through the live path's merge.
/// The log ends at the first record that is torn, fails its checksum, or
/// claims a distill cycle, which no appended record may hold.
void ReplayRecords(const FleetConfig& config, std::string_view log,
                   FleetResult* result) {
  while (!log.empty()) {
    const size_t header_size = persist::LeadingEnvelopeSize(log);
    RecordHeader header;
    if (header_size == 0 ||
        !ReadRecordHeader(log.substr(0, header_size), &header)) {
      return;
    }
    const std::string_view rest = log.substr(header_size);
    const size_t outcome_size = persist::LeadingEnvelopeSize(rest);
    if (outcome_size == 0) return;
    auto outcome =
        DecodeShardOutcome(std::string(rest.substr(0, outcome_size)));
    if (!outcome.ok() || outcome->shard_id != header.shard ||
        !outcome->complete) {
      return;
    }
    log = rest.substr(outcome_size);
    if (result->shards_done.count(header.shard) != 0) continue;
    if (header.counters.distill_cycles != result->distill_cycles) return;
    (void)AcceptShard(config, std::move(*outcome), header.origin, result);
    header.counters.ApplyTo(result);
  }
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("fleet journal: write " + path + ": " +
                              std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
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
  Counters::Of(result).Save(&w);
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

Status AppendJournal(const std::string& fleet_dir, int shard,
                     std::string_view outcome_envelope,
                     const std::string& origin, const FleetResult& result) {
  if (LEGO_FAILPOINT("fleet.journal_write")) {
    return Status::Internal("fleet journal: injected write failure");
  }
  persist::StateWriter w;
  w.BeginChunk(persist::ChunkTag(kRecordChunk));
  w.WriteU32(static_cast<uint32_t>(shard));
  w.WriteString(origin);
  Counters::Of(result).Save(&w);
  w.EndChunk();
  const std::string path = JournalPath(fleet_dir);
  // No O_CREAT: a record means nothing without the snapshot before it.
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::Internal("fleet journal: open " + path + ": " +
                            std::strerror(errno));
  }
  Status st = WriteAll(fd, w.EnvelopedBytes(), path);
  if (st.ok()) st = WriteAll(fd, outcome_envelope, path);
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::Internal("fleet journal: fsync " + path + ": " +
                          std::strerror(errno));
  }
  ::close(fd);
  return st;
}

Status LoadJournal(const std::string& fleet_dir, const FleetConfig& config,
                   FleetResult* result) {
  const std::string path = JournalPath(fleet_dir);
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("fleet journal: no " + path);
  }
  auto bytes = minidb::Env::Posix()->ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  const std::string_view file = *bytes;
  // A snapshot that is not whole is refused like any corrupt state file.
  size_t snapshot_size = persist::LeadingEnvelopeSize(file);
  if (snapshot_size == 0) snapshot_size = file.size();
  auto reader = persist::StateReader::FromEnvelope(
      std::string(file.substr(0, snapshot_size)));
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
  Counters counters;
  counters.Load(&r);
  counters.ApplyTo(result);
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
  ReplayRecords(config, file.substr(snapshot_size), result);
  return Status::OK();
}

}  // namespace lego::fleet
