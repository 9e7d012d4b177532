#ifndef LEGO_MINIDB_DATABASE_H_
#define LEGO_MINIDB_DATABASE_H_

#include <bitset>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "minidb/catalog.h"
#include "minidb/profile.h"
#include "minidb/relation.h"
#include "sql/ast.h"
#include "util/status.h"

namespace lego::minidb {

/// Result of one statement: a (possibly empty) relation plus side-channel
/// notes (EXPLAIN text, COPY output, NOTIFY deliveries) and DML row counts.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  std::vector<std::string> notes;
  int64_t affected_rows = 0;
};

/// Execution-observable features of one statement; fault-injection triggers
/// may require them in addition to a type subsequence.
enum class ExecFeature : uint8_t {
  kGroupBy,
  kOrderBy,
  kWindowFunction,
  kJoin,
  kHashJoinUsed,
  kIndexScanUsed,
  kSubquery,
  kSetOperation,
  kAggregate,
  kDistinct,
  kHaving,
  kCte,
  kViewExpansion,
  kRuleRewrite,
  kTriggerFired,
  kInTransaction,
  kTemporaryTable,
  kEmptyInput,
  kNumFeatures,
};

using FeatureSet = std::bitset<static_cast<size_t>(ExecFeature::kNumFeatures)>;

/// A synthetic crash raised by the fault-injection oracle (the stand-in for
/// an ASAN-detected memory error in a real DBMS).
struct CrashInfo {
  std::string bug_id;      // stable identifier, e.g. "MY-OPT-03"
  std::string component;   // Optimizer, Parser, Storage, ...
  std::string kind;        // SEGV, UAF, HBOF, ...
  uint64_t stack_hash = 0; // synthetic call-stack hash used for dedup
  std::string message;
};

class Database;

/// Transaction-control interception seam. When installed, BEGIN / COMMIT /
/// ROLLBACK / SAVEPOINT delegate here instead of the built-in snapshot
/// transactions — the concurrency engine substitutes its undo-log + lock
/// based transactions while sharing one Database across its sessions.
/// Never installed on the serial path.
class TxnHook {
 public:
  virtual ~TxnHook() = default;
  virtual Status Begin(Database& db) = 0;
  virtual Status Commit(Database& db) = 0;
  virtual Status Rollback(Database& db) = 0;
  virtual Status Savepoint(Database& db, const std::string& name) = 0;
  virtual Status Release(Database& db, const std::string& name) = 0;
  virtual Status RollbackTo(Database& db, const std::string& name) = 0;
};

/// Durability seam. Installed by the paged storage engine (never on the
/// in-memory storage path) and uninstalled by the concurrency engine for a
/// run, whose sessions are made durable by one checkpoint afterwards.
///
/// Statement bracket: Database::Execute calls OnStatementBegin before and
/// OnStatementEnd after every top-level statement, whoever issues it, so
/// the engine sees each statement's row effects and catalog change.
///
/// Transaction boundaries: the built-in snapshot transactions report their
/// outcomes, so the engine knows when a transaction boundary commits its
/// buffered redo records (flush + fsync), discards them, or partially
/// unwinds them (savepoints). These fire only on the *success* path of each
/// transaction-control operation, after the catalog reflects it.
class StorageHook {
 public:
  virtual ~StorageHook() = default;
  virtual void OnStatementBegin(Database& db) = 0;
  /// `executed_ok` is the statement's status; a statement that failed
  /// after partial effects is still logged (its replay is deterministic).
  virtual void OnStatementEnd(Database& db, const sql::Statement& stmt,
                              bool executed_ok) = 0;
  virtual void OnTxnBegin(Database& db) = 0;
  virtual void OnTxnCommit(Database& db) = 0;
  virtual void OnTxnRollback(Database& db) = 0;
  virtual void OnTxnSavepoint(Database& db, const std::string& name) = 0;
  virtual void OnTxnRelease(Database& db, const std::string& name) = 0;
  virtual void OnTxnRollbackTo(Database& db, const std::string& name) = 0;
};

/// Oracle interface consulted after each successfully executed statement.
/// Implemented by faults::BugEngine.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  /// Returns a crash if the session's execution trace has just met some
  /// bug's trigger condition.
  virtual std::optional<CrashInfo> Check(const Database& db) = 0;
};

/// Per-connection state: executed-type trace, per-statement features,
/// settings, notifications, transaction bookkeeping.
struct SessionState {
  /// Executed statement types (top level plus fired rule/trigger bodies),
  /// in execution order — the trace fault triggers match against.
  std::vector<sql::StatementType> type_trace;
  /// Feature sets parallel to type_trace.
  std::vector<FeatureSet> feature_trace;

  std::map<std::string, Value> settings;
  std::string current_user = "root";
  std::set<std::string> listening;
  std::vector<std::string> notifications;  // delivered "channel:payload"

  bool in_transaction = false;
};

/// The minidb engine facade: a single-connection relational database
/// configured by a dialect profile. This is the fuzzing target.
class Database {
 public:
  explicit Database(const DialectProfile* profile = &DialectProfile::PgLite());

  /// Executes one parsed statement, inside the storage hook's statement
  /// bracket when one is installed. Crash statuses (code kCrash) indicate
  /// the fault oracle fired; `last_crash()` then holds the details.
  StatusOr<ResultSet> Execute(const sql::Statement& stmt);

  /// Parses and executes a whole script. Statement-level errors are counted
  /// and skipped (matching how a fuzzer drives a real server); a crash stops
  /// the script. A script-level syntax error is returned directly.
  struct ScriptResult {
    int executed = 0;
    int errors = 0;
    bool crashed = false;
  };
  StatusOr<ScriptResult> ExecuteScript(std::string_view sql);

  /// Clears session state (trace, settings, notifications) and aborts any
  /// open transaction; the catalog is kept.
  void ResetSession();

  /// Drops everything: fresh catalog + fresh session.
  void ResetAll();

  const DialectProfile& profile() const { return *profile_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  SessionState& session() { return session_; }
  const SessionState& session() const { return session_; }

  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }
  void set_txn_hook(TxnHook* hook) { txn_hook_ = hook; }
  TxnHook* txn_hook() const { return txn_hook_; }
  void set_storage_hook(StorageHook* hook) { storage_hook_ = hook; }
  StorageHook* storage_hook() const { return storage_hook_; }
  const std::optional<CrashInfo>& last_crash() const { return last_crash_; }

 private:
  friend class Executor;

  /// Execute without the storage bracket.
  StatusOr<ResultSet> ExecuteUnbracketed(const sql::Statement& stmt);

  // Transaction control (invoked by the executor).
  Status TxnBegin();
  Status TxnCommit();
  Status TxnRollback();
  Status TxnSavepoint(const std::string& name);
  Status TxnRelease(const std::string& name);
  Status TxnRollbackTo(const std::string& name);

  const DialectProfile* profile_;
  Catalog catalog_;
  SessionState session_;
  FaultHook* fault_hook_ = nullptr;
  TxnHook* txn_hook_ = nullptr;
  StorageHook* storage_hook_ = nullptr;
  std::optional<CrashInfo> last_crash_;

  /// Snapshot-based transactions: BEGIN copies the catalog; ROLLBACK
  /// restores it. Savepoints stack additional snapshots.
  std::optional<Catalog> txn_snapshot_;
  std::vector<std::pair<std::string, Catalog>> savepoints_;
};

namespace testing {

/// Test-only plants simulating a *genuine* engine defect (as opposed to the
/// synthetic faults::BugEngine crashes, which are clean in-process returns).
/// Both are process-global and inherited by forked execution backends, so a
/// campaign against a ForkedBackend can prove it survives real child death.
///
/// When armed, executing any DROP TABLE abort()s the process — in a forked
/// backend that kills the child mid-statement; in-process it kills the test.
void SetPlantedAbortForTesting(bool armed);
/// When armed, executing any VACUUM busy-spins forever (until the forked
/// backend's per-statement watchdog or an RLIMIT_CPU cap kills the child).
void SetPlantedHangForTesting(bool armed);
/// When armed, executing any REINDEX allocates memory without bound —
/// under --max-child-mem-mb the forked child dies with the reserved OOM
/// exit code and the death is triaged as REAL-OOM.
void SetPlantedOomForTesting(bool armed);

}  // namespace testing

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_DATABASE_H_
