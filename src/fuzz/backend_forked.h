#ifndef LEGO_FUZZ_BACKEND_FORKED_H_
#define LEGO_FUZZ_BACKEND_FORKED_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>

#include "fuzz/backend.h"
#include "fuzz/durability.h"

namespace lego::fuzz {

/// Fork-server backend: minidb runs in a forked child; the parent speaks a
/// length-prefixed pipe protocol (Reset / Execute / oracle bracket / schema
/// probe) and reads run coverage out of an anonymous shared-memory map the
/// child's probes write into.
///
/// Crash isolation: a genuine engine defect (segfault, failed assert, bad
/// exit) kills only the child. The parent detects the death (pipe hangup or
/// waitpid), maps the wait status into a CrashInfo (bug_id "REAL-SIGABRT",
/// "REAL-SIGSEGV", "REAL-EXIT-3", ...) whose stack hash is derived from
/// (kind, statement type) — stable across replays, so the reducer can
/// minimize real crashes exactly like synthetic ones — and respawns a fresh
/// child at the next Reset. With max_stmt_ms > 0, a statement exceeding the
/// watchdog is killed and reported as a hang (bug_id "HANG") the same way.
///
/// With StorageKind::kPaged the child runs its engine on paged storage under
/// `db_dir` (fresh generation per Reset; panic mode — a commit that cannot
/// be made durable exits with kStorageFailExitCode instead of acking). When
/// `durability_check` is armed the parent shadows every acknowledged
/// statement and, after a SIGKILL / storage-panic death, recovers the dead
/// child's directory out-of-process: a chaos-injected death whose recovered
/// state matches the shadow is suppressed (the schedule worked, no bug); a
/// mismatch becomes a DUR-* finding that rides the normal triage pipeline.
class ForkedBackend : public DbBackend {
 public:
  ForkedBackend(const minidb::DialectProfile& profile,
                const BackendOptions& options);
  ~ForkedBackend() override;

  std::string_view name() const override { return "forked"; }
  const minidb::DialectProfile& profile() const override { return profile_; }
  const faults::BugEngine& bug_engine() const override { return bug_engine_; }

  void Reset() override;
  StmtOutcome Execute(const sql::Statement& stmt, bool want_rows) override;
  const cov::CoverageMap& FinishRun() override;
  std::optional<std::string> FirstColumnOf(const std::string& table) override;
  /// Polls the live child's cumulative storage counters and folds the delta
  /// since the previous poll into the backend total. FinishRun also polls,
  /// so a child death loses at most its final case's tail.
  BackendStorageStats storage_stats() override;

  /// Children spawned over this backend's lifetime (1 + respawns).
  int spawn_count() const { return spawn_count_; }
  /// Failed spawn attempts over this backend's lifetime.
  int spawn_failures() const { return spawn_failures_total_; }
  /// True once the spawn circuit breaker opened (spawn_failure_limit
  /// consecutive failures): no further respawns are attempted, Reset is a
  /// no-op and Execute reports errors.
  bool broken() const override { return broken_; }

 protected:
  void DoSnapshotForOracle() override;
  void DoRestoreForOracle() override;

 private:
  enum class Wait { kData, kDead, kTimeout };

  /// One spawn attempt: pipes + fork + child setup. False on failure (or
  /// when the backend.spawn failpoint fires) with no state changed.
  bool TrySpawn();
  /// TrySpawn with exponential backoff, up to the circuit-breaker limit;
  /// opens the breaker (broken_) when the limit is exhausted.
  void Spawn();
  /// Child-side: installs the OOM new-handler and applies the configured
  /// rlimit caps before entering the serve loop.
  void ApplyChildLimits();
  void KillChild();
  /// Reaps the child and synthesizes the CrashInfo for its death while
  /// executing a statement of type `type` ("" context for non-Execute ops).
  minidb::CrashInfo ReapAsCrash(sql::StatementType type);

  /// Paged + durability oracle armed (and a db dir to recover).
  bool DurabilityArmed() const;
  /// Post-mortem durability check for an eligible death (SIGKILL or the
  /// storage panic exit). Returns the CrashInfo the caller should surface:
  /// nullopt = verdict passed, suppress the chaos-injected death entirely;
  /// otherwise either the DUR-* finding or the original crash (ineligible
  /// or uncheckable deaths pass through).
  std::optional<minidb::CrashInfo> ApplyDurabilityVerdict(
      minidb::CrashInfo crash);

  bool SendMsg(uint8_t type, const std::string& payload);
  /// Waits for a full response frame. deadline_ms < 0 blocks (still
  /// noticing child death); on kTimeout the child is left running.
  Wait RecvMsg(int deadline_ms, uint8_t* code, std::string* payload);
  /// One request/response round trip with death detection.
  Wait RoundTrip(uint8_t type, const std::string& payload, int deadline_ms,
                 uint8_t* code, std::string* resp);

  [[noreturn]] void ChildLoop();

  const minidb::DialectProfile& profile_;
  const BackendOptions options_;
  /// Parent-side catalog replica for reporting; the armed engine lives in
  /// the child.
  faults::BugEngine bug_engine_;

  cov::CoverageMap* shm_ = nullptr;  // child-written, parent-read
  cov::CoverageMap run_map_;         // parent-side classified copy

  pid_t child_pid_ = -1;
  int cmd_fd_ = -1;   // parent writes requests
  int resp_fd_ = -1;  // parent reads responses
  bool alive_ = false;
  int spawn_count_ = 0;
  bool broken_ = false;
  int consecutive_spawn_failures_ = 0;
  int spawn_failures_total_ = 0;
  /// Wait status captured when RecvMsg reaps the child before ReapAsCrash
  /// runs (waitpid can only succeed once per death).
  std::optional<int> early_wait_status_;

  /// Set when the child died while servicing an oracle query; surfaced by
  /// the next non-oracle Execute so real crashes under the oracle bracket
  /// still become findings instead of silent no-verdicts.
  std::optional<minidb::CrashInfo> pending_death_;
  /// Set when Reset could not produce a live child (e.g. the setup script
  /// itself kills the engine); Execute then reports this crash.
  std::optional<minidb::CrashInfo> reset_failure_;

  /// Parent-side shadow of the child's acked statements (durability oracle).
  DurabilityTracker dur_;

  /// Storage telemetry: child counters are cumulative per child lifetime;
  /// the parent folds per-poll deltas into the total and rebases on spawn.
  void PollStorageStats();
  BackendStorageStats storage_total_;
  BackendStorageStats storage_last_poll_;
};

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_BACKEND_FORKED_H_
