#include "fuzz/checkpoint.h"

#include <filesystem>

#include "fuzz/state.h"
#include "util/hash.h"

namespace lego::fuzz {

namespace {

constexpr uint32_t kFingerprintTag = persist::ChunkTag("CFGF");
constexpr uint32_t kResultTag = persist::ChunkTag("RSLT");
/// State layout version, first in the fingerprint. 2 dropped the
/// thread-pool fields (worker count, sync cadence) that version 1 carried;
/// 3 writes a captured logic bug's session count as U32, the layout the
/// fleet shares.
constexpr uint32_t kFingerprintVersion = 3;

Status Mismatch(const std::string& what) {
  return Status::InvalidArgument("campaign state saved under a different " +
                                 what);
}

}  // namespace

void WriteCampaignFingerprint(const std::string& fuzzer_name,
                              const std::string& profile_name,
                              const CampaignOptions& options,
                              persist::StateWriter* w) {
  // max_executions is deliberately absent: a campaign may be resumed with a
  // raised budget (checkpoint at k executions, resume to n > k), which is
  // also how tests reproduce an interruption deterministically.
  w->BeginChunk(kFingerprintTag);
  w->WriteU32(kFingerprintVersion);
  w->WriteString(fuzzer_name);
  w->WriteString(profile_name);
  w->WriteI64(options.max_statements);
  w->WriteI64(options.snapshot_every);
  w->WriteBool(options.stop_when_all_bugs_found);
  w->WriteI64(options.checkpoint_every);
  w->EndChunk();
}

Status VerifyCampaignFingerprint(const std::string& fuzzer_name,
                                 const std::string& profile_name,
                                 const CampaignOptions& options,
                                 persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kFingerprintTag));
  const uint32_t version = r->ReadU32();
  if (r->ok() && version != kFingerprintVersion) {
    return Status::Unsupported("campaign state fingerprint version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kFingerprintVersion) + ")");
  }
  std::string fuzzer = r->ReadString();
  std::string profile = r->ReadString();
  int64_t max_statements = r->ReadI64();
  int64_t snapshot_every = r->ReadI64();
  bool stop_all = r->ReadBool();
  int64_t checkpoint_every = r->ReadI64();
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  if (fuzzer != fuzzer_name) return Mismatch("fuzzer (" + fuzzer + ")");
  if (profile != profile_name) return Mismatch("profile (" + profile + ")");
  if (max_statements != options.max_statements ||
      snapshot_every != options.snapshot_every ||
      stop_all != options.stop_when_all_bugs_found) {
    return Mismatch("budget configuration");
  }
  if (checkpoint_every != options.checkpoint_every) {
    return Mismatch("checkpoint cadence");
  }
  return Status::OK();
}

Status SaveCampaignResult(const CampaignResult& result,
                          persist::StateWriter* w) {
  w->BeginChunk(kResultTag);
  w->WriteString(result.fuzzer);
  w->WriteString(result.profile);
  w->WriteI64(result.executions);
  w->WriteU64(result.edges);
  w->WriteU64(result.rules);

  w->WriteU64(result.coverage_curve.size());
  for (const auto& [execs, edges] : result.coverage_curve) {
    w->WriteI64(execs);
    w->WriteU64(edges);
  }

  w->WriteU64(result.crash_hashes.size());
  for (uint64_t h : result.crash_hashes) w->WriteU64(h);

  w->WriteU64(result.bug_ids.size());
  for (const auto& id : result.bug_ids) w->WriteString(id);

  w->WriteU64(result.affinities.size());
  for (const auto& [a, b] : result.affinities) {
    w->WriteI64(a);
    w->WriteI64(b);
  }

  w->WriteI64(result.crashes_total);
  w->WriteI64(result.statement_errors);
  w->WriteI64(result.statements_executed);

  w->WriteU64(result.bugs_by_component.size());
  for (const auto& [component, count] : result.bugs_by_component) {
    w->WriteString(component);
    w->WriteI64(count);
  }

  if (result.captured_cases.size() != result.captured_crashes.size()) {
    return Status::Internal("captured_cases/captured_crashes out of sync");
  }
  w->WriteU64(result.captured_cases.size());
  for (size_t i = 0; i < result.captured_cases.size(); ++i) {
    SaveTestCase(result.captured_cases[i], w);
    SaveCrashInfo(result.captured_crashes[i], w);
  }

  w->WriteI64(result.logic_bugs_total);
  w->WriteU64(result.logic_fingerprints.size());
  for (uint64_t f : result.logic_fingerprints) w->WriteU64(f);

  if (result.captured_logic_cases.size() != result.captured_logic_bugs.size()) {
    return Status::Internal("captured logic cases/bugs out of sync");
  }
  w->WriteU64(result.captured_logic_cases.size());
  for (size_t i = 0; i < result.captured_logic_cases.size(); ++i) {
    SaveTestCase(result.captured_logic_cases[i], w);
    SaveLogicBug(result.captured_logic_bugs[i], w);
  }

  w->EndChunk();
  return Status::OK();
}

Status LoadCampaignResult(persist::StateReader* r, CampaignResult* result) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kResultTag));
  CampaignResult loaded;
  loaded.fuzzer = r->ReadString();
  loaded.profile = r->ReadString();
  loaded.executions = static_cast<int>(r->ReadI64());
  loaded.edges = static_cast<size_t>(r->ReadU64());
  loaded.rules = static_cast<size_t>(r->ReadU64());

  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 16)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    int execs = static_cast<int>(r->ReadI64());
    size_t edges = static_cast<size_t>(r->ReadU64());
    loaded.coverage_curve.emplace_back(execs, edges);
  }

  n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    loaded.crash_hashes.insert(r->ReadU64());
  }

  n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    loaded.bug_ids.insert(r->ReadString());
  }

  n = r->ReadU64();
  if (!r->CheckCount(n, 16)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    int a = static_cast<int>(r->ReadI64());
    int b = static_cast<int>(r->ReadI64());
    loaded.affinities.insert({a, b});
  }

  loaded.crashes_total = static_cast<int>(r->ReadI64());
  loaded.statement_errors = static_cast<int>(r->ReadI64());
  loaded.statements_executed = static_cast<int>(r->ReadI64());

  n = r->ReadU64();
  if (!r->CheckCount(n, 16)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    std::string component = r->ReadString();
    loaded.bugs_by_component[component] = static_cast<int>(r->ReadI64());
  }

  n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    LEGO_ASSIGN_OR_RETURN(TestCase tc, LoadTestCase(r));
    loaded.captured_cases.push_back(std::move(tc));
    loaded.captured_crashes.push_back(LoadCrashInfo(r));
  }

  loaded.logic_bugs_total = static_cast<int>(r->ReadI64());
  n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    loaded.logic_fingerprints.insert(r->ReadU64());
  }

  n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    LEGO_ASSIGN_OR_RETURN(TestCase tc, LoadTestCase(r));
    loaded.captured_logic_cases.push_back(std::move(tc));
    loaded.captured_logic_bugs.push_back(LoadLogicBug(r));
  }

  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  *result = std::move(loaded);
  return Status::OK();
}

uint64_t ResultDigest(const CampaignResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix_u64 = [&h](uint64_t v) { h = HashMix(h, v); };
  auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    h = Fnv1a64(s, h);
  };
  mix_str(result.fuzzer);
  mix_str(result.profile);
  mix_u64(static_cast<uint64_t>(result.executions));
  mix_u64(result.edges);
  mix_u64(result.rules);
  mix_u64(static_cast<uint64_t>(result.crashes_total));
  mix_u64(static_cast<uint64_t>(result.statement_errors));
  mix_u64(static_cast<uint64_t>(result.statements_executed));
  mix_u64(static_cast<uint64_t>(result.logic_bugs_total));
  mix_u64(result.coverage_curve.size());
  for (const auto& [execs, edges] : result.coverage_curve) {
    mix_u64(static_cast<uint64_t>(execs));
    mix_u64(edges);
  }
  mix_u64(result.crash_hashes.size());
  for (uint64_t v : result.crash_hashes) mix_u64(v);
  mix_u64(result.bug_ids.size());
  for (const auto& id : result.bug_ids) mix_str(id);
  mix_u64(result.logic_fingerprints.size());
  for (uint64_t v : result.logic_fingerprints) mix_u64(v);
  mix_u64(result.affinities.size());
  for (const auto& [a, b] : result.affinities) {
    mix_u64(static_cast<uint64_t>(a));
    mix_u64(static_cast<uint64_t>(b));
  }
  for (const auto& [component, count] : result.bugs_by_component) {
    mix_str(component);
    mix_u64(static_cast<uint64_t>(count));
  }
  return h;
}

std::string SerialStatePath(const std::string& state_dir) {
  return (std::filesystem::path(state_dir) / "campaign.state").string();
}

}  // namespace lego::fuzz
