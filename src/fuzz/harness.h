#ifndef LEGO_FUZZ_HARNESS_H_
#define LEGO_FUZZ_HARNESS_H_

#include <memory>
#include <optional>
#include <string>

#include "concurrency/history.h"
#include "coverage/coverage.h"
#include "coverage/rule_coverage.h"
#include "faults/bug_engine.h"
#include "fuzz/backend.h"
#include "fuzz/testcase.h"
#include "minidb/profile.h"

namespace lego::fuzz {

/// One logic-bug finding from a metamorphic oracle: the DBMS returned a
/// wrong result without crashing, so there is no CrashInfo to dedup on.
struct LogicBugInfo {
  std::string check;   // oracle name, e.g. "tlp"
  std::string query;   // the original query whose result was wrong
  std::string detail;  // human-readable mismatch description
  /// Dedup key (oracle-computed, deterministic for a given query shape).
  uint64_t fingerprint = 0;
  /// Concurrent findings only: the interleaving seed and session count that
  /// reproduce the anomaly (0/0 for serial metamorphic findings). Together
  /// with `query` (the split multi-session script) they pin the execution
  /// bit-for-bit.
  uint64_t interleave_seed = 0;
  int sessions = 0;
};

/// Metamorphic test oracle consulted after each successfully executed
/// statement. Implementations must be stateless across calls and must
/// leave the database logically unchanged — the harness wraps the check in
/// the backend's Snapshot/RestoreForOracle bracket (coverage paused, fault hook
/// disarmed, trace rolled back), but schema/data side effects are the
/// oracle's responsibility to avoid. Oracles talk to the engine exclusively
/// through DbBackend, so they work unchanged against in-process and forked
/// targets. Defined here (rather than in triage/) so lego_triage can depend
/// on lego_fuzz without a cycle.
class LogicOracle {
 public:
  virtual ~LogicOracle() = default;
  virtual std::string_view name() const = 0;
  /// Checks `stmt`, which just executed successfully against `backend`.
  /// Returns true and fills `out` when a metamorphic inconsistency is
  /// detected.
  virtual bool Check(DbBackend* backend, const sql::Statement& stmt,
                     LogicBugInfo* out) = 0;
  /// Checks the begin/read/write/commit/abort history of one concurrent
  /// case. Returns true and fills `out` when the history exhibits an
  /// isolation anomaly. Default: no history checking (serial metamorphic
  /// oracles ignore interleavings).
  virtual bool CheckHistory(const concurrency::History& history,
                            LogicBugInfo* out) {
    (void)history;
    (void)out;
    return false;
  }
};

/// Outcome of executing one test case.
struct ExecResult {
  bool new_coverage = false;
  bool new_rules = false;  // grammar-rule signal (always false when disabled)
  bool crashed = false;
  minidb::CrashInfo crash;
  bool hang = false;       // the crash is a watchdog kill (crash.kind HANG)
  bool logic_bug = false;  // a logic oracle flagged a wrong result
  LogicBugInfo logic;      // valid iff logic_bug
  int executed = 0;   // statements that ran successfully
  int errors = 0;     // statements rejected (syntax/semantic/runtime)
  size_t total_edges = 0;  // campaign-global edge count after this run
  size_t total_rules = 0;  // campaign-global rule count after this run
  /// The case's grammar rules, as CollectRules(tc.ToSql()) records them;
  /// set only when rule coverage is on. Fuzzers pass it to Corpus::Add so
  /// an admitted seed is not parsed again.
  std::optional<cov::RuleSet> hit_rules;
  /// Concurrent backend only: the seed that drove session splitting and the
  /// interleaving scheduler, plus the digests that make "same (seed, case)
  /// => same execution" a testable equality.
  uint64_t interleave_seed = 0;
  uint64_t trace_digest = 0;
  uint64_t history_digest = 0;
  int interleave_switches = 0;
  int deadlocks = 0;
};

/// Execution harness (the AFL++ persistent-mode stand-in): runs each test
/// case through a DbBackend session — a fresh engine instance of one
/// dialect profile with edge-coverage feedback and the fault-injection
/// oracle armed. The backend decides the process model: in-process minidb
/// (default, bit-identical to the historical harness) or a crash-isolated
/// forked child.
class ExecutionHarness {
 public:
  explicit ExecutionHarness(const minidb::DialectProfile& profile,
                            const BackendOptions& backend = {});

  /// Optional script executed after each reset, before the test case, with
  /// the oracle disarmed and the trace cleared (models fuzzing against a
  /// pre-populated schema, as SQLsmith does).
  void set_setup_script(std::string script) {
    backend_->set_setup_script(std::move(script));
  }
  const std::string& setup_script() const { return backend_->setup_script(); }

  /// Secondary feedback: grammar-rule coverage. When enabled, the rules
  /// that parsing each test case's SQL rendering fires are merged into a
  /// campaign-global rule map; `ExecResult::new_rules` reports
  /// previously-unseen productions and `ExecResult::hit_rules` carries the
  /// case's set. The harness's RuleCollector parses only the statements it
  /// has not seen before, with a result equal to re-parsing the whole
  /// rendering. Off by default — the disabled path is bit-identical to a
  /// build without the signal.
  void set_rule_coverage(bool enabled) { rule_coverage_enabled_ = enabled; }
  bool rule_coverage() const { return rule_coverage_enabled_; }

  /// Optional logic oracle, consulted after each successfully executed
  /// SELECT inside the backend's oracle bracket — oracle queries never
  /// perturb the fault-injection or feedback state. Not owned; must outlive
  /// the harness.
  void set_logic_oracle(LogicOracle* oracle) { logic_oracle_ = oracle; }
  LogicOracle* logic_oracle() const { return logic_oracle_; }

  /// Executes `tc` in a fresh backend session. Coverage accumulates into
  /// the campaign-global map; `new_coverage` reflects it. Concurrent
  /// backends route through the multi-session path: the case is split by
  /// the per-case interleaving seed and run as N scheduler-serialized
  /// session fibers.
  ExecResult Run(const TestCase& tc);

  /// Triage replay: pin the interleaving seed for subsequent Run() calls on
  /// a concurrent backend instead of deriving it from the execution counter
  /// (nullopt restores derived seeds). No effect on serial backends.
  void set_forced_interleave_seed(std::optional<uint64_t> seed) {
    forced_interleave_seed_ = seed;
  }

  /// Total distinct edges ("branches") covered so far.
  size_t CoveredEdges() const { return global_coverage_.CoveredEdges(); }

  /// The accumulated campaign bitmap itself (read-only). Fleet workers ship
  /// this home in their result envelope so the coordinator can merge exact
  /// fleet-wide edge coverage instead of guessing from per-shard counts.
  const cov::GlobalCoverage& global_coverage() const {
    return global_coverage_;
  }

  /// Total distinct grammar rules covered so far (0 unless enabled).
  size_t CoveredRules() const { return global_rules_.CoveredRules(); }

  /// Resets accumulated coverage (fresh campaign).
  void ResetCoverage() {
    global_coverage_.Reset();
    global_rules_.Reset();
  }

  const minidb::DialectProfile& profile() const {
    return backend_->profile();
  }
  /// Fault catalog of the engine under test (parent-side replica for forked
  /// backends) — reporting/metadata only.
  const faults::BugEngine& bug_engine() const {
    return backend_->bug_engine();
  }

  DbBackend& backend() { return *backend_; }
  const BackendOptions& backend_options() const { return backend_options_; }

  /// Number of Run() calls so far.
  int executions() const { return executions_; }

  /// Checkpointing: the execution counter and the campaign-global coverage
  /// map (the feedback loop's entire memory). The backend itself is not
  /// serialized — every Run() starts from a fresh session, so an engine
  /// rebuilt by Prepare()/construction is equivalent.
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  /// Multi-session execution path (backend kind kConcurrent, sessions > 1).
  ExecResult RunConcurrent(const TestCase& tc);
  /// Shared tail of both paths: classify/merge the run coverage map and the
  /// optional grammar-rule signal into `result`.
  void MergeRunFeedback(const TestCase& tc, ExecResult* result);

  BackendOptions backend_options_;
  std::unique_ptr<DbBackend> backend_;
  cov::GlobalCoverage global_coverage_;
  cov::GlobalRuleCoverage global_rules_;
  cov::RuleCollector rule_collector_;
  bool rule_coverage_enabled_ = false;
  LogicOracle* logic_oracle_ = nullptr;
  std::optional<uint64_t> forced_interleave_seed_;
  int executions_ = 0;
};

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_HARNESS_H_
