#ifndef LEGO_TRIAGE_TRIAGE_H_
#define LEGO_TRIAGE_TRIAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "minidb/profile.h"
#include "triage/reducer.h"
#include "triage/signature.h"

namespace lego::triage {

struct TriageOptions {
  /// Run ddmin + expression simplification on every captured case. When
  /// false, captures are replayed for signature computation but kept as-is.
  bool reduce = true;
  ReductionOptions reduction;
  /// When non-empty, write one deterministic `.sql` reproducer per unique
  /// bug into this directory (created if missing).
  std::string repro_dir;
  /// Replay backend. Use the campaign's own backend options: real crashes
  /// (bug_id REAL-*) and hangs (bug_id HANG) only reproduce under a forked
  /// child with the same watchdog, and replaying them in-process would kill
  /// the triage pass itself.
  fuzz::BackendOptions backend;
  /// Recorded per-bug in the repro-dir manifest so an artifact can be tied
  /// back to the campaign that produced it.
  uint64_t campaign_seed = 0;
  /// Origin stamp for manifest rows: which process found the bug. Empty
  /// derives a default from this process (`<host>:<pid>/<backend>/<storage>`
  /// via OriginString). The fleet coordinator stamps collected repros with
  /// the finding worker instead, via the per-capture maps below.
  std::string origin;
  /// Per-capture origin overrides, keyed by crash stack hash / logic
  /// fingerprint (the identities captures carry into triage). Captures not
  /// listed fall back to `origin`.
  std::map<uint64_t, std::string> crash_origins;
  std::map<uint64_t, std::string> logic_origins;
};

/// Canonical origin stamp: `<worker>@<host>:<pid>/<backend>/<storage>` when
/// `worker` is non-empty (fleet workers), `<host>:<pid>/<backend>/<storage>`
/// otherwise. Kept to one manifest column so the tab-separated layout stays
/// backward-readable (old readers key on the first field and ignore columns
/// they don't know).
std::string OriginString(const std::string& worker,
                         const fuzz::BackendOptions& backend);

/// "tlp" -> "LOGIC-TLP": synthetic bug id for a logic-oracle finding.
/// Isolation anomalies keep their own namespace: "iso-lost-update" ->
/// "ISO-LOST-UPDATE" (no LOGIC- prefix — the anomaly class IS the bug id).
std::string LogicBugId(const std::string& check);

/// Name of the manifest written alongside reproducers in repro_dir. One
/// tab-separated line per triaged bug: replay key (crash identity /
/// oracle fingerprint, known *before* reduction), signature, trigger
/// sequence, artifact file, campaign seed, state-format version. Captures
/// whose replay key is already listed are skipped without re-reducing —
/// resumed campaigns re-capture every historical bug, and ddmin is the
/// expensive half of triage.
inline constexpr char kTriageManifestFile[] = "manifest.tsv";

/// One unique bug after triage.
struct TriagedBug {
  BugSignature signature;
  bool is_logic = false;        // logic-oracle finding (no crash)
  minidb::CrashInfo crash;      // valid iff !is_logic
  fuzz::LogicBugInfo logic;     // valid iff is_logic
  fuzz::TestCase repro;         // minimized (or original when !reduce)
  int original_statements = 0;
  int reduced_statements = 0;
  std::string artifact_path;    // written file, "" when repro_dir unset
};

struct TriageReport {
  /// Unique bugs, ordered by signature key (deterministic across worker
  /// counts: campaign capture order differs, the triaged set does not).
  std::vector<TriagedBug> bugs;
  int crash_captures = 0;   // captured crash cases fed in
  int logic_captures = 0;   // captured logic cases fed in
  int duplicates = 0;       // captures collapsed into an earlier signature
  int not_reproduced = 0;   // captures that no longer triggered on replay
  int replays = 0;          // total reduction/replay executions spent
  /// Captures skipped because the repro-dir manifest already lists their
  /// replay key (bugs triaged by the campaign this one resumed).
  int skipped_known = 0;
};

/// Deterministic post-pass over a finished campaign: replays every captured
/// crash/logic case through a private harness (same profile + setup script
/// the campaign ran), minimizes it, recomputes its signature from the
/// minimized repro, and dedups. Pure function of the campaign's captures —
/// parallel workers never triage concurrently, so there are no races to
/// order around.
TriageReport TriageCampaign(const fuzz::CampaignResult& result,
                            const minidb::DialectProfile& profile,
                            const std::string& setup_script,
                            const TriageOptions& options);

/// Renders a reproducer artifact (header comments + SQL). Exposed for
/// tests asserting byte-identical artifacts across reruns.
std::string RenderArtifact(const TriagedBug& bug,
                           const minidb::DialectProfile& profile,
                           const faults::BugEngine& engine);

}  // namespace lego::triage

#endif  // LEGO_TRIAGE_TRIAGE_H_
