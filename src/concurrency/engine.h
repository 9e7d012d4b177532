#ifndef LEGO_CONCURRENCY_ENGINE_H_
#define LEGO_CONCURRENCY_ENGINE_H_

#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "concurrency/fiber.h"
#include "concurrency/history.h"
#include "concurrency/scheduler.h"
#include "minidb/database.h"
#include "minidb/heap_table.h"
#include "minidb/lock_manager.h"
#include "sql/ast.h"

namespace lego::concurrency {

/// Thrown inside a session when its transaction must abort (deadlock
/// victim or forced stall-break). Unwinds cleanly through the executor —
/// minidb code is exception-neutral — and is caught at the engine's
/// statement loop, which rolls back via the undo log.
struct TxnAbortException {};

/// Drives N sessions as fibers on the calling thread over ONE shared
/// minidb::Database, token-serialized by the EpochScheduler so exactly one
/// session executes at a time and the interleaving is a pure function of the
/// scheduler seed.
///
/// Run() is the driver: it starts one fiber per session, then resumes
/// whichever session holds the token until every session has finished. A
/// session parks by switching back to the driver from inside the scheduler
/// (at a schedule point or a contended lock), so a park is a stack switch in
/// user space: on x86-64 it makes no system call (see Fiber). Fiber stacks
/// come from the caller's FiberStacks and are reused across runs.
///
/// The engine hooks the storage layer twice:
///  - as minidb::RowObserver (installed for the whole run): every row
///    read/write is a schedule point and a strict-2PL lock acquisition
///    (S for SELECT reads, X for UPDATE/DELETE reads and all mutations),
///    an undo-log append, and a history event;
///  - as minidb::TxnHook (installed on the Database): BEGIN/COMMIT/ROLLBACK
///    run the engine's transactions (locks + undo) instead of minidb's
///    serial snapshot transactions, which cannot nest across sessions.
///
/// Session state (the Database's SessionState) is swapped in/out at every
/// token handoff, so each session observes its own settings/trace while the
/// shared catalog carries the data. DDL is screened at the statement level
/// and the catalog is additionally frozen by the backend, so the set of
/// tables/indexes is fixed for the whole concurrent phase. The Database's
/// storage hook is uninstalled for the run, so no statement is bracketed
/// and the storage engine logs none of the sessions' row traffic: the
/// backend makes the concurrent phase durable with one checkpoint
/// afterwards.
class ConcurrentEngine : public minidb::TxnHook, public minidb::RowObserver {
 public:
  struct Options {
    int sessions = 2;
    uint64_t seed = 1;
    /// Planted defect: UPDATE/DELETE reads take S instead of X and write
    /// mutations skip their X locks — the classic unprotected
    /// read-modify-write (lost update).
    bool planted_lost_update = false;
    /// Planted defect: S-mode read locking is skipped entirely, so reads
    /// observe uncommitted (dirty) versions.
    bool planted_dirty_read = false;
  };

  struct RunStats {
    int executed = 0;       // statements that ran without error
    int errors = 0;         // statement-level errors (incl. rejected types)
    int deadlocks = 0;      // transactions aborted as deadlock victims
    bool crashed = false;
    std::optional<minidb::CrashInfo> crash;
    uint64_t trace_digest = 0;
    uint64_t history_digest = 0;
    int epochs = 0;
    int switches = 0;
  };

  /// `stacks` must outlive the engine; session i runs on stacks->Get(i).
  ConcurrentEngine(minidb::Database* db, Options options, FiberStacks* stacks);
  ~ConcurrentEngine() override;

  ConcurrentEngine(const ConcurrentEngine&) = delete;
  ConcurrentEngine& operator=(const ConcurrentEngine&) = delete;

  /// Runs one script per session concurrently (scripts are parsed
  /// beforehand; statements are borrowed, not owned). Returns once every
  /// session has finished or unwound after a crash. An exception a session
  /// raises aborts the run and is rethrown here once all sessions unwound.
  RunStats Run(const std::vector<std::vector<const sql::Statement*>>& scripts);

  const History& history() const { return history_; }

  // --- minidb::TxnHook -----------------------------------------------------
  Status Begin(minidb::Database& db) override;
  Status Commit(minidb::Database& db) override;
  Status Rollback(minidb::Database& db) override;
  Status Savepoint(minidb::Database& db, const std::string& n) override;
  Status Release(minidb::Database& db, const std::string& n) override;
  Status RollbackTo(minidb::Database& db, const std::string& n) override;

  // --- minidb::RowObserver -------------------------------------------------
  void OnInsert(minidb::HeapTable* table) override;
  void OnUpdate(minidb::HeapTable* table, minidb::RowId id) override;
  void OnDelete(minidb::HeapTable* table, minidb::RowId id) override;
  void OnRead(const minidb::HeapTable* table, minidb::RowId id) override;

 private:
  struct UndoRecord {
    enum class Kind : uint8_t { kInsert, kUpdate, kDelete };
    Kind kind = Kind::kInsert;
    std::string table;
    minidb::HeapTable* heap = nullptr;
    minidb::RowId rid;
    minidb::Row old_row;        // update/delete pre-image
    uint64_t old_version = 0;   // versions_ entry before this write
  };

  struct SessionCtx {
    int sid = 0;
    std::vector<const sql::Statement*> script;
    minidb::SessionState db_session;  // parked session state (swap slot)
    bool swapped_in = false;

    uint64_t txn = 0;
    bool txn_open = false;
    bool in_explicit = false;
    sql::StatementType current_type = sql::StatementType::kSelect;
    std::vector<UndoRecord> undo;

    int executed = 0;
    int errors = 0;
    int deadlocks = 0;
  };

  static bool AllowedInSession(sql::StatementType type);

  SessionCtx& Ctx();  // the running session
  /// Fiber entry point; `engine` is the ConcurrentEngine.
  static void SessionEntry(void* engine);
  void SessionMain(SessionCtx& ctx);
  /// Driver side: switches to session `sid` until it parks or finishes.
  void ResumeSession(int sid);
  void ExecuteOne(SessionCtx& ctx, const sql::Statement& stmt);

  void SwapIn(SessionCtx& ctx);
  void SwapOut(SessionCtx& ctx);
  /// Statement/row-op schedule point: release token, park, resume.
  void SchedulePoint(SessionCtx& ctx);

  void BeginTxn(SessionCtx& ctx);
  void CommitTxn(SessionCtx& ctx);
  void RollbackTxn(SessionCtx& ctx);
  void ApplyUndo(SessionCtx& ctx);
  void WakeGranted(const std::vector<uint64_t>& txns);

  /// Strict-2PL acquisition with scheduler integration; throws
  /// TxnAbortException on deadlock / forced stall-break.
  void AcquireLock(SessionCtx& ctx, const minidb::LockKey& key,
                   minidb::LockMode mode);

  const std::string& TableName(const minidb::HeapTable* heap);
  static std::string KeyString(const std::string& table, minidb::RowId id);

  minidb::Database* db_;
  Options options_;
  FiberStacks* stacks_;
  std::vector<Fiber> fibers_;  // one per session
  /// The session whose fiber is running; set by the driver on every resume.
  SessionCtx* current_ = nullptr;
  EpochScheduler scheduler_;
  minidb::LockManager locks_;
  History history_;

  std::vector<SessionCtx> ctxs_;
  std::map<uint64_t, int> txn_sid_;
  uint64_t next_txn_ = 1;
  uint64_t next_version_ = 1;
  std::map<std::string, std::map<minidb::RowId, uint64_t>> versions_;
  std::map<const minidb::HeapTable*, std::string> table_names_;

  bool crashed_ = false;
  std::optional<minidb::CrashInfo> crash_;
  /// An unexpected exception a session raised; Run() rethrows it.
  std::exception_ptr failure_;
};

}  // namespace lego::concurrency

#endif  // LEGO_CONCURRENCY_ENGINE_H_
