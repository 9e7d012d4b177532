#ifndef LEGO_FUZZ_CAMPAIGN_H_
#define LEGO_FUZZ_CAMPAIGN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"

namespace lego::fuzz {

/// Campaign configuration. Budgets are execution counts — the scaled-down
/// equivalent of the paper's wall-clock budgets.
struct CampaignOptions {
  int max_executions = 20000;
  /// When > 0, the campaign additionally stops once this many statements
  /// have been processed (executed or rejected). This models a wall-clock
  /// budget: longer test cases consume it faster, reproducing the paper's
  /// observation that large LEN degrades fuzzing throughput (§VI).
  int64_t max_statements = 0;
  /// Record a (executions, edges) point every this many executions.
  int snapshot_every = 1000;
  /// Stop early once every injected bug has been found (off by default).
  bool stop_when_all_bugs_found = false;

  /// Directory for checkpoint state. Empty disables persistence. The
  /// campaign writes one atomic campaign.state file (see fuzz/checkpoint.h).
  /// Multi-worker runs are fleets (fleet/fleet.h), which journal their own
  /// fleet.state instead.
  std::string state_dir;
  /// Checkpoint cadence in executions. 0 writes only the final state when
  /// state_dir is set.
  int checkpoint_every = 0;
  /// Resume from the checkpoint in state_dir instead of starting fresh.
  /// The resumed run must be configured identically (fuzzer, profile,
  /// budgets, checkpoint cadence); a mismatch aborts with state_status set
  /// rather than silently fuzzing under the wrong config.
  bool resume = false;
  /// Seeds imported into the fuzzer's corpus before the first execution of
  /// a fresh campaign (cross-campaign corpus reuse; ignored on resume).
  /// Not owned; must outlive RunCampaign.
  const std::vector<TestCase>* import_seeds = nullptr;
  /// Fill CampaignResult::corpus_export with clones of every corpus seed at
  /// campaign end (fuel for `corpus_cli distill` / --import-corpus). Off by
  /// default: exporting clones the whole corpus.
  bool export_corpus = false;

  /// Cooperative external stop (graceful shutdown). When non-null and the
  /// pointee becomes true, the campaign finishes the in-flight test case,
  /// drains normally through the usual end-of-campaign path — final
  /// checkpoint included — and returns with stopped_early set. The flag is
  /// observed between executions. Not owned; must outlive RunCampaign.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Progress hook, invoked from the campaign with the total executions so
  /// far, every 64 executions. Fleet workers hang lease heartbeats off
  /// this; counting executions, not wall time, keeps a chaos schedule on
  /// the heartbeat deterministic per shard.
  std::function<void(int64_t executions)> on_progress;
};

/// Aggregated campaign outcome: everything the paper's tables/figures need.
struct CampaignResult {
  std::string fuzzer;
  std::string profile;
  int executions = 0;
  size_t edges = 0;  // final branch coverage
  size_t rules = 0;  // final grammar-rule coverage (0 unless enabled)
  std::vector<std::pair<int, size_t>> coverage_curve;
  /// Deduplicated crashes, keyed the way the paper dedups: by call-stack
  /// hash (ours are synthetic).
  std::set<uint64_t> crash_hashes;
  std::set<std::string> bug_ids;
  /// Distinct adjacent type pairs (t1 != t2) over all generated test cases —
  /// the paper's Table II "type-affinities generated" metric.
  std::set<std::pair<int, int>> affinities;
  int crashes_total = 0;
  int statement_errors = 0;
  int statements_executed = 0;

  /// Bugs found per component, for Table I style reporting.
  std::map<std::string, int> bugs_by_component;

  /// First test case observed for each unique crash hash, with its crash,
  /// in discovery order. Triage replays these.
  /// TestCase is move-only, so CampaignResult is too.
  std::vector<TestCase> captured_cases;
  std::vector<minidb::CrashInfo> captured_crashes;  // parallel to above

  /// Logic-oracle findings: total flagged executions, plus the first test
  /// case per unique oracle fingerprint.
  int logic_bugs_total = 0;
  std::set<uint64_t> logic_fingerprints;
  std::vector<TestCase> captured_logic_cases;
  std::vector<LogicBugInfo> captured_logic_bugs;  // parallel to above

  /// Fuzzer-internal counters (corpus size, affinity pairs, sequences
  /// recorded/dropped), sampled from the fuzzer at campaign end.
  FuzzerStats fuzzer_stats;
  /// Outcome of checkpoint/resume I/O. OK when persistence is disabled or
  /// every state file round-tripped; otherwise the first error (a resume
  /// failure aborts the campaign with executions == 0).
  Status state_status = Status::OK();

  /// Clones of the final corpus (options.export_corpus only). Empty for
  /// generation-based fuzzers.
  std::vector<TestCase> corpus_export;

  /// Robustness telemetry (runtime-only: never serialized and excluded
  /// from ResultDigest): mid-run checkpoints that failed to write and were
  /// skipped with a warning.
  int checkpoints_failed = 0;
  /// True when options.stop_flag cut the campaign short (runtime-only,
  /// like the counters above: never serialized, excluded from ResultDigest).
  bool stopped_early = false;

  /// Storage-layer telemetry from the campaign's backend at campaign end: buffer-pool traffic (hit rate, evictions), WAL volume, fsyncs.
  /// All zeros on --storage=mem. Runtime-only like the counters above:
  /// never serialized and excluded from ResultDigest.
  BackendStorageStats storage;
};

/// Runs `fuzzer` against `harness` for the configured budget, one test
/// case at a time. The result is a pure function of the fuzzer's seed and
/// the options. To spread a campaign over N worker processes, run a fleet
/// (fleet::RunFleet): each shard is one RunCampaign.
CampaignResult RunCampaign(Fuzzer* fuzzer, ExecutionHarness* harness,
                           const CampaignOptions& options);

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_CAMPAIGN_H_
