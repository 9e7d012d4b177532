#ifndef LEGO_FUZZ_BACKEND_H_
#define LEGO_FUZZ_BACKEND_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/coverage.h"
#include "faults/bug_engine.h"
#include "minidb/database.h"
#include "minidb/profile.h"
#include "sql/ast.h"
#include "util/flags.h"
#include "util/status.h"

namespace lego::fuzz {

/// Which execution backend a harness drives.
enum class BackendKind {
  /// minidb embedded in the fuzzer process (the historical harness). Fast,
  /// but a genuine engine defect (real segfault/abort, not a BugEngine
  /// simulation) kills the whole campaign.
  kInProcess,
  /// An InProcessBackend served by a forked child over persist frames, with
  /// a per-statement watchdog, signal/exit capture mapped into CrashInfo,
  /// shared-memory coverage export, and automatic respawn — the paper's
  /// "crash kills the server, not the fuzzer" process model. The child's
  /// storage engine panics on a storage error instead of degrading.
  kForked,
  /// minidb in-process with N concurrent sessions per test case, run as
  /// fibers and token-serialized by a seeded epoch scheduler (every
  /// interleaving replays bit-identically from its seed) with row-level S/X
  /// locking and an isolation-anomaly history log.
  kConcurrent,
};

/// Which storage engine the backend's server runs on.
enum class StorageKind {
  /// Purely in-memory catalog (the historical engine). Campaigns through it
  /// are bit-identical to every release before the paged engine existed.
  kMem,
  /// Paged on-disk storage: heap snapshots + redo WAL under `db_dir`, with
  /// ARIES-lite recovery. Enables the durability oracle for forked backends.
  kPaged,
};

/// Parses "mem" / "paged" (as accepted by --storage=).
std::optional<StorageKind> ParseStorageKind(std::string_view name);
std::string_view StorageKindName(StorageKind kind);

struct BackendOptions {
  BackendKind kind = BackendKind::kInProcess;
  /// Storage engine of the server. kPaged requires `db_dir`.
  StorageKind storage = StorageKind::kMem;
  /// Paged only: directory holding MANIFEST / snap.<lsn> / wal.<lsn>. The
  /// backend owns its lifecycle: created on first Reset, emptied per
  /// session by StorageEngine::ResetFresh, recovered after a child death
  /// when the durability oracle is armed.
  std::string db_dir;
  /// Paged only: buffer-pool frame budget for snapshot I/O.
  size_t pool_frames = 64;
  /// Forked+paged only: after every child death at a storage failpoint the
  /// parent re-runs recovery over `db_dir` and checks that every
  /// acknowledged-before-death effect is readable and nothing unacknowledged
  /// leaked in; violations surface as DUR-* findings.
  bool durability_check = false;
  /// Planted durability defect: the child's WAL acknowledges commits without
  /// fsync, so a SIGKILL genuinely loses them (--planted-skip-fsync).
  bool planted_skip_fsync = false;
  /// Free-form chaos/kill-schedule description recorded into DUR-* crash
  /// messages so reproducer artifacts carry the schedule that triggered them.
  std::string chaos_note;
  /// Forked only: per-statement wall-clock watchdog in milliseconds. When a
  /// statement exceeds it the child is killed and the statement is reported
  /// as a hang (CrashInfo kind "HANG"). 0 disables the watchdog.
  int max_stmt_ms = 0;
  /// Forked only: resource caps applied in the child via setrlimit right
  /// after fork, bounding what one fuzzed session can consume. 0 disables
  /// a cap. Address-space exhaustion (RLIMIT_AS) exits the child with a
  /// reserved code mapped to bug_id "REAL-OOM"; cumulative CPU time
  /// (RLIMIT_CPU, seconds) kills with SIGXCPU -> "REAL-CPU"; file size
  /// (RLIMIT_FSIZE) kills with SIGXFSZ -> "REAL-FSIZE".
  int max_child_mem_mb = 0;
  int max_child_cpu_s = 0;
  int max_child_fsize_mb = 0;
  /// Forked only: circuit breaker on the fork server. Each failed spawn is
  /// retried with exponential backoff; after this many consecutive
  /// failures the backend gives up and reports broken(), and the campaign
  /// ends cleanly instead of spinning or aborting.
  int spawn_failure_limit = 8;
  /// Concurrent only: number of sessions per test case (>= 2 for
  /// actual concurrency; 1 degrades to serial in-process execution).
  int sessions = 2;
  /// Concurrent only: campaign-level interleaving seed. The per-case
  /// scheduler seed is HashMix(concurrency_seed, execution index), so every
  /// case replays its interleaving bit-identically — including across a
  /// checkpoint/resume boundary, since the execution counter is persisted.
  uint64_t concurrency_seed = 1;
  /// Concurrent only, planted isolation defects for oracle validation:
  /// skip X locks on writes (lost updates) / skip S locks on reads (dirty
  /// reads).
  bool planted_lost_update = false;
  bool planted_dirty_read = false;
};

/// Parses "inproc" / "forked" / "concurrent" (as accepted by --backend=).
/// Returns nullopt for anything else.
std::optional<BackendKind> ParseBackendKind(std::string_view name);
std::string_view BackendKindName(BackendKind kind);

/// The backend flags the command-line tools share, each defined once and
/// writing into `options`. BackendFlags is --backend and --max-stmt-ms,
/// which every tool that executes cases takes; CampaignBackendFlags adds
/// --storage, --db-dir and --sessions for the campaign tools.
std::vector<flags::Flag> BackendFlags(BackendOptions* options);
std::vector<flags::Flag> CampaignBackendFlags(BackendOptions* options);

/// Checks that `options` describes a runnable configuration before any
/// backend or worker is built: paged storage needs a db_dir, and the
/// durability oracle (`durability_oracle`) needs forked, paged execution.
/// Returns InvalidArgument naming the flags otherwise.
Status CheckBackendOptions(const BackendOptions& options,
                           bool durability_oracle);

/// Storage-layer counters a backend reports for campaign observability
/// (all zeros on the mem path). Runtime telemetry only: never serialized
/// into checkpoints and excluded from ResultDigest, so enabling it cannot
/// perturb campaign determinism.
struct BackendStorageStats {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_writebacks = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t steal_flushes = 0;
  uint64_t commits = 0;
  uint64_t checkpoints = 0;
  /// Per-case resets whose StorageEngine::ResetFresh failed, so the case
  /// ran unlogged on memory-mode heaps. In-process only: a forked child
  /// exits on the failure instead.
  uint64_t reset_failures = 0;

  double pool_hit_rate() const {
    const uint64_t total = pool_hits + pool_misses;
    return total == 0 ? 0.0 : static_cast<double>(pool_hits) /
                                  static_cast<double>(total);
  }

  void Add(const BackendStorageStats& o) {
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    pool_evictions += o.pool_evictions;
    pool_writebacks += o.pool_writebacks;
    wal_records += o.wal_records;
    wal_bytes += o.wal_bytes;
    fsyncs += o.fsyncs;
    steal_flushes += o.steal_flushes;
    commits += o.commits;
    checkpoints += o.checkpoints;
    reset_failures += o.reset_failures;
  }
};

/// Outcome of executing one statement through a backend session.
struct StmtOutcome {
  enum class Status {
    kOk,     // executed successfully
    kError,  // rejected (syntax/semantic/runtime error); session continues
    kCrash,  // the "server" died: synthetic fault, real signal, or bad exit
    kHang,   // watchdog expired; the child was killed (forked only)
  };
  Status status = Status::kError;
  /// Valid iff kCrash or kHang. Real child deaths map to bug_id
  /// "REAL-<kind>" (e.g. REAL-SIGABRT) and hangs to bug_id "HANG"; both get
  /// a stack hash derived from (kind, statement type) so they dedup and
  /// reduce exactly like synthetic fault-engine crashes.
  minidb::CrashInfo crash;
  /// Result rows rendered one string per row ("v|v|...|"), filled only when
  /// Execute was asked for rows (oracle queries). Rendering is identical
  /// across backends so metamorphic comparisons are backend-agnostic.
  std::vector<std::string> rows;

  bool server_died() const {
    return status == Status::kCrash || status == Status::kHang;
  }
};

/// Session-oriented execution seam between the fuzzing stack and the DBMS
/// under test. One backend == one (possibly remote/forked) server process
/// plus its coverage channel. Everything above this interface —
/// ExecutionHarness, triage replay, oracles, baselines, the CLI — is
/// engine-process-agnostic.
///
/// Session protocol, per test case:
///   Reset();                       // fresh server state + setup script
///   Execute(stmt) ... Execute(stmt)
///   FinishRun();                   // classified run-coverage map
/// Oracle queries run inside a Snapshot/RestoreForOracle bracket (use the
/// OracleSession RAII guard), which pauses coverage probes, disarms the
/// fault-injection hook, and rolls the session trace back on exit, so
/// metamorphic checks never perturb fuzzing state.
class DbBackend {
 public:
  virtual ~DbBackend() = default;

  virtual std::string_view name() const = 0;
  virtual const minidb::DialectProfile& profile() const = 0;

  /// The fault-injection catalog this backend's server arms. For forked
  /// backends this is a parent-side replica (the catalog is a pure function
  /// of the profile), used for reporting/metadata only.
  virtual const faults::BugEngine& bug_engine() const = 0;

  /// Script executed after each Reset with the fault oracle disarmed and
  /// the trace cleared (models fuzzing a pre-populated schema).
  void set_setup_script(std::string script) {
    setup_script_ = std::move(script);
  }
  const std::string& setup_script() const { return setup_script_; }

  /// Begins a fresh session: fresh server state, fault engine re-armed,
  /// run-coverage collection restarted, setup script applied. After a crash
  /// or hang this also respawns the server process where applicable.
  virtual void Reset() = 0;

  /// Executes one statement in the current session. `want_rows` requests
  /// rendered result rows (oracle queries); the fuzzing hot path passes
  /// false and skips row materialization/transfer.
  virtual StmtOutcome Execute(const sql::Statement& stmt, bool want_rows) = 0;

  /// Ends the session's run and returns its classified coverage map (valid
  /// until the next Reset). After a real crash this still holds whatever
  /// coverage the server reported before dying.
  virtual const cov::CoverageMap& FinishRun() = 0;

  /// Schema introspection for oracles: the first column of `table`, or
  /// nullopt when the table does not exist.
  virtual std::optional<std::string> FirstColumnOf(
      const std::string& table) = 0;

  /// True when the backend can no longer produce a working server (e.g. the
  /// forked spawn circuit breaker opened). Reset becomes a no-op and
  /// Execute reports errors; campaigns treat the worker as parked.
  virtual bool broken() const { return false; }

  /// Cumulative storage-layer counters for this backend's server (pool
  /// traffic, WAL volume, fsyncs). Zeros for mem-storage backends. Forked
  /// backends poll their child, so deaths may drop the tail since the last
  /// poll — this is observability, not accounting.
  virtual BackendStorageStats storage_stats() { return {}; }

  /// Oracle bracket (prefer the OracleSession guard). Nested brackets are
  /// reference-counted; only the outermost does work.
  void SnapshotForOracle() {
    if (oracle_depth_++ == 0) DoSnapshotForOracle();
  }
  void RestoreForOracle() {
    if (--oracle_depth_ == 0) DoRestoreForOracle();
  }

 protected:
  virtual void DoSnapshotForOracle() = 0;
  virtual void DoRestoreForOracle() = 0;
  bool in_oracle() const { return oracle_depth_ > 0; }

 private:
  std::string setup_script_;
  int oracle_depth_ = 0;
};

/// Exception-safe RAII form of the Snapshot/RestoreForOracle bracket: the
/// restore half (trace truncation, fault re-arm, coverage resume) runs even
/// if the oracle check throws.
class OracleSession {
 public:
  explicit OracleSession(DbBackend* backend) : backend_(backend) {
    backend_->SnapshotForOracle();
  }
  ~OracleSession() { backend_->RestoreForOracle(); }

  OracleSession(const OracleSession&) = delete;
  OracleSession& operator=(const OracleSession&) = delete;

 private:
  DbBackend* backend_;
};

/// Factory: builds the backend described by `options`.
std::unique_ptr<DbBackend> MakeBackend(const minidb::DialectProfile& profile,
                                       const BackendOptions& options);

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_BACKEND_H_
