#include "triage/triage.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "fuzz/multi_case.h"
#include "persist/io.h"
#include "sql/statement_type.h"
#include "triage/oracle_suite.h"
#include "util/hash.h"

namespace lego::triage {
namespace {

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Inserts `bug` unless its signature was already seen; returns whether it
/// was new.
bool Insert(std::vector<TriagedBug>* bugs, std::map<std::string, size_t>* seen,
            TriagedBug bug) {
  auto [it, inserted] = seen->emplace(bug.signature.Key(), bugs->size());
  if (inserted) bugs->push_back(std::move(bug));
  return inserted;
}

/// Replay keys identify a capture *before* reduction (signatures are only
/// known after), so a manifest lookup can skip ddmin entirely.
std::string CrashReplayKey(const minidb::CrashInfo& crash) {
  return "crash:" + crash.bug_id + ":" + Hex16(crash.stack_hash);
}

std::string LogicReplayKey(const fuzz::LogicBugInfo& logic) {
  return "logic:" + logic.check + ":" + Hex16(logic.fingerprint);
}

std::string TriggerOf(const TriagedBug& bug, const faults::BugEngine& engine) {
  if (bug.is_logic) return bug.logic.check;
  if (const faults::BugDef* def = engine.FindBug(bug.crash.bug_id)) {
    std::string trigger;
    for (sql::StatementType t : def->sequence) {
      if (!trigger.empty()) trigger += '>';
      trigger += sql::StatementTypeName(t);
    }
    if (!trigger.empty()) return trigger;
  }
  return bug.crash.kind;
}

/// Existing manifest lines keyed by replay key; unknown/comment lines are
/// dropped (the manifest is regenerated, not edited).
std::map<std::string, std::string> LoadManifestLines(
    const std::filesystem::path& path) {
  std::map<std::string, std::string> lines;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    lines.emplace(line.substr(0, tab), line);
  }
  return lines;
}

}  // namespace

std::string OriginString(const std::string& worker,
                         const fuzz::BackendOptions& backend) {
  char host[256] = "unknown-host";
  if (gethostname(host, sizeof(host)) != 0) {
    std::snprintf(host, sizeof(host), "unknown-host");
  }
  host[sizeof(host) - 1] = '\0';
  std::string out;
  if (!worker.empty()) {
    out += worker;
    out += '@';
  }
  out += host;
  out += ':';
  out += std::to_string(static_cast<long long>(getpid()));
  out += '/';
  out += fuzz::BackendKindName(backend.kind);
  out += '/';
  out += fuzz::StorageKindName(backend.storage);
  return out;
}

std::string RenderArtifact(const TriagedBug& bug,
                           const minidb::DialectProfile& profile,
                           const faults::BugEngine& engine) {
  std::string out = "-- lego reproducer (deterministic; do not edit)\n";
  out += "-- signature: " + bug.signature.Key() + "\n";
  out += "-- profile: " + profile.name + "\n";
  if (bug.is_logic) {
    out += "-- oracle: " + bug.logic.check + " (wrong result, no crash)\n";
    out += "-- detail: " + bug.logic.detail + "\n";
    if (bug.logic.sessions > 1) {
      out += "-- sessions: " + std::to_string(bug.logic.sessions) + "\n";
      out += "-- interleave-seed: " + std::to_string(bug.logic.interleave_seed) +
             "\n";
      out += "-- statements: " + std::to_string(bug.reduced_statements) +
             " (reduced from " + std::to_string(bug.original_statements) +
             ")\n";
      // Render the exact split the seed produces: the multi-session script
      // with "-- session N" markers is the actual reproducer.
      out += fuzz::SplitForSessions(bug.repro, bug.logic.sessions,
                                    bug.logic.interleave_seed)
                 .ToSql();
      return out;
    }
  } else {
    out += "-- crash: " + bug.crash.kind + " in " + bug.crash.component +
           " (stack hash " + Hex16(bug.crash.stack_hash) + ")\n";
    if (bug.crash.kind == "DURABILITY" && !bug.crash.message.empty()) {
      out += "-- verdict: " + bug.crash.message + "\n";
    }
    if (const faults::BugDef* def = engine.FindBug(bug.crash.bug_id)) {
      std::string trigger;
      for (sql::StatementType t : def->sequence) {
        if (!trigger.empty()) trigger += '>';
        trigger += sql::StatementTypeName(t);
      }
      out += "-- trigger sequence: " + trigger + "\n";
      if (!def->identifier.empty()) {
        out += "-- upstream report: " + def->identifier + "\n";
      }
    }
  }
  out += "-- statements: " + std::to_string(bug.reduced_statements) +
         " (reduced from " + std::to_string(bug.original_statements) + ")\n";
  out += bug.repro.ToSql();
  return out;
}

TriageReport TriageCampaign(const fuzz::CampaignResult& result,
                            const minidb::DialectProfile& profile,
                            const std::string& setup_script,
                            const TriageOptions& options) {
  TriageReport report;
  Reducer reducer(profile, setup_script, options.reduction, options.backend);
  std::map<std::string, size_t> seen;

  // Replay keys already triaged by an earlier run into the same repro_dir
  // (the resume case: the campaign re-captures every historical bug).
  std::map<std::string, std::string> manifest;
  if (!options.repro_dir.empty()) {
    manifest = LoadManifestLines(std::filesystem::path(options.repro_dir) /
                                 kTriageManifestFile);
  }
  // Replay key per signature, captured pre-reduction: a logic bug's
  // fingerprint can legitimately change while ddmin simplifies the query,
  // but the manifest must list the key a re-captured bug will present.
  std::map<std::string, std::string> replay_keys;

  // --- crash captures ---
  for (size_t i = 0; i < result.captured_cases.size(); ++i) {
    ++report.crash_captures;
    const fuzz::TestCase& tc = result.captured_cases[i];
    TriagedBug bug;
    bug.crash = result.captured_crashes[i];
    const std::string replay_key = CrashReplayKey(bug.crash);
    if (manifest.count(replay_key) != 0) {
      ++report.skipped_known;
      continue;
    }
    bug.original_statements = static_cast<int>(tc.size());
    if (options.reduce) {
      std::optional<ReductionResult> red = reducer.ReduceCrash(tc);
      if (!red.has_value()) {
        ++report.not_reproduced;
        continue;
      }
      bug.repro = std::move(red->reduced);
      bug.reduced_statements = red->reduced_statements;
    } else {
      fuzz::ExecResult r = reducer.harness().Run(tc);
      if (!r.crashed || r.crash.stack_hash != bug.crash.stack_hash) {
        ++report.not_reproduced;
        continue;
      }
      bug.repro = tc.Clone();
      bug.reduced_statements = bug.original_statements;
    }
    bug.signature = SignatureOf(bug.crash, bug.repro);
    replay_keys.emplace(bug.signature.Key(), replay_key);
    if (!Insert(&report.bugs, &seen, std::move(bug))) ++report.duplicates;
  }

  // --- logic captures ---
  // Replay under the full suite so captures from any oracle reproduce; the
  // per-capture `check` key still pins the finding to its original oracle.
  std::string suite_error;
  std::unique_ptr<OracleSuite> suite =
      OracleSuite::FromSpec("tlp,norec,clause,iso", &suite_error);
  reducer.harness().set_logic_oracle(suite.get());
  for (size_t i = 0; i < result.captured_logic_cases.size(); ++i) {
    ++report.logic_captures;
    const fuzz::TestCase& tc = result.captured_logic_cases[i];
    TriagedBug bug;
    bug.is_logic = true;
    bug.logic = result.captured_logic_bugs[i];
    const std::string replay_key = LogicReplayKey(bug.logic);
    if (manifest.count(replay_key) != 0) {
      ++report.skipped_known;
      continue;
    }
    bug.original_statements = static_cast<int>(tc.size());
    const std::string check = bug.logic.check;
    // Isolation findings are a function of (case, interleaving): pin the
    // captured seed so every replay during reduction re-runs the exact
    // interleaving that exhibited the anomaly.
    const bool is_iso = check.rfind("iso-", 0) == 0;
    if (is_iso) {
      reducer.harness().set_forced_interleave_seed(bug.logic.interleave_seed);
    }
    auto keep = [&](const fuzz::TestCase& cand) {
      fuzz::ExecResult r = reducer.harness().Run(cand);
      if (!r.logic_bug || r.logic.check != check) return false;
      bug.logic = r.logic;  // track the surviving (possibly simpler) finding
      return true;
    };
    bool reproduced;
    if (options.reduce) {
      std::optional<fuzz::TestCase> red = reducer.ReduceWhile(tc, keep);
      reproduced = red.has_value();
      if (reproduced) bug.repro = std::move(*red);
    } else {
      reproduced = keep(tc);
      if (reproduced) bug.repro = tc.Clone();
    }
    if (reproduced && is_iso) {
      // Second minimization axis: the interleaving itself. Statement-level
      // ddmin is done; now probe a few sibling seeds and keep the
      // reproducing interleaving with the fewest session switches (the
      // concurrent analogue of "fewest statements").
      const uint64_t base = bug.logic.interleave_seed;
      int best_switches = -1;
      fuzz::LogicBugInfo best = bug.logic;
      for (uint64_t k = 0; k <= 8; ++k) {
        uint64_t cand = k == 0 ? base : HashMix(base, k);
        reducer.harness().set_forced_interleave_seed(cand);
        fuzz::ExecResult r = reducer.harness().Run(bug.repro);
        if (!r.logic_bug || r.logic.check != check) continue;
        if (best_switches < 0 || r.interleave_switches < best_switches) {
          best_switches = r.interleave_switches;
          best = r.logic;
        }
      }
      bug.logic = best;
    }
    if (is_iso) reducer.harness().set_forced_interleave_seed(std::nullopt);
    if (!reproduced) {
      ++report.not_reproduced;
      continue;
    }
    bug.reduced_statements = static_cast<int>(bug.repro.size());
    bug.signature = BugSignature{LogicBugId(check), TypeFingerprint(bug.repro)};
    replay_keys.emplace(bug.signature.Key(), replay_key);
    if (!Insert(&report.bugs, &seen, std::move(bug))) ++report.duplicates;
  }
  reducer.harness().set_logic_oracle(nullptr);
  report.replays = reducer.replays();

  // Deterministic report order regardless of capture order (which varies
  // with worker count even for the same unique-bug set).
  std::sort(report.bugs.begin(), report.bugs.end(),
            [](const TriagedBug& a, const TriagedBug& b) {
              return a.signature < b.signature;
            });

  if (!options.repro_dir.empty()) {
    std::filesystem::create_directories(options.repro_dir);
    const std::string default_origin =
        options.origin.empty() ? OriginString("", options.backend)
                               : options.origin;
    for (TriagedBug& bug : report.bugs) {
      const std::string file =
          bug.signature.bug_id + "-" +
          Hex16(Fnv1a64(bug.signature.Key())).substr(8) + ".sql";
      const std::filesystem::path path =
          std::filesystem::path(options.repro_dir) / file;
      // Atomic (temp-then-rename) so a crash or kill mid-triage never
      // leaves a half-written reproducer that a later replay trusts.
      Status written = persist::WriteTextFileAtomic(
          path.string(),
          RenderArtifact(bug, profile, reducer.harness().bug_engine()));
      if (written.ok()) {
        bug.artifact_path = path.string();
      } else {
        std::fprintf(stderr, "triage: cannot write %s (%s)\n",
                     path.string().c_str(), written.ToString().c_str());
      }

      auto key_it = replay_keys.find(bug.signature.Key());
      const std::string replay_key =
          key_it != replay_keys.end()
              ? key_it->second
              : (bug.is_logic ? LogicReplayKey(bug.logic)
                              : CrashReplayKey(bug.crash));
      // Origin of the capture: the worker that found it (fleet), else the
      // campaign process itself. Appended as the final column so readers
      // keyed on earlier fields keep parsing rows from either era.
      std::string row_origin = default_origin;
      const auto& origins =
          bug.is_logic ? options.logic_origins : options.crash_origins;
      auto origin_it = origins.find(bug.is_logic ? bug.logic.fingerprint
                                                 : bug.crash.stack_hash);
      if (origin_it != origins.end()) row_origin = origin_it->second;
      manifest[replay_key] =
          replay_key + '\t' + bug.signature.Key() + '\t' +
          TriggerOf(bug, reducer.harness().bug_engine()) + '\t' + file + '\t' +
          std::to_string(options.campaign_seed) + '\t' +
          std::to_string(persist::kFormatVersion) + '\t' + row_origin;
    }
    // Rewrite rather than append: entries stay sorted by replay key and
    // duplicates cannot accumulate across reruns. Written atomically so an
    // interrupted triage leaves the previous manifest intact instead of a
    // truncated one (which would silently forget triaged bugs).
    std::string mf = "# replay-key\tsignature\ttrigger\tartifact\tcampaign-seed"
                     "\tstate-version\torigin\n";
    for (const auto& [key, line] : manifest) {
      mf += line;
      mf += '\n';
    }
    const std::filesystem::path mpath =
        std::filesystem::path(options.repro_dir) / kTriageManifestFile;
    Status written = persist::WriteTextFileAtomic(mpath.string(), mf);
    if (!written.ok()) {
      std::fprintf(stderr, "triage: cannot write %s (%s)\n",
                   mpath.string().c_str(), written.ToString().c_str());
    }
  }
  return report;
}

std::string LogicBugId(const std::string& check) {
  std::string id = check.rfind("iso-", 0) == 0 ? "" : "LOGIC-";
  for (char c : check) id += static_cast<char>(std::toupper(c));
  return id;
}

}  // namespace lego::triage
