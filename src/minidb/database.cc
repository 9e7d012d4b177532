#include "minidb/database.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "coverage/coverage.h"
#include "minidb/executor.h"
#include "sql/parser.h"

namespace lego::minidb {
namespace {

std::atomic<bool> g_planted_abort{false};
std::atomic<bool> g_planted_hang{false};
std::atomic<bool> g_planted_oom{false};

}  // namespace

namespace testing {

void SetPlantedAbortForTesting(bool armed) {
  g_planted_abort.store(armed, std::memory_order_relaxed);
}

void SetPlantedHangForTesting(bool armed) {
  g_planted_hang.store(armed, std::memory_order_relaxed);
}

void SetPlantedOomForTesting(bool armed) {
  g_planted_oom.store(armed, std::memory_order_relaxed);
}

}  // namespace testing

Database::Database(const DialectProfile* profile) : profile_(profile) {}

StatusOr<ResultSet> Database::ExecuteUnbracketed(const sql::Statement& stmt) {
  // Planted real defects (test-only): checked before any validation so the
  // trigger statement reproduces and minimizes to itself regardless of
  // catalog state.
  if (g_planted_abort.load(std::memory_order_relaxed) &&
      stmt.type() == sql::StatementType::kDropTable) {
    std::abort();
  }
  if (g_planted_hang.load(std::memory_order_relaxed) &&
      stmt.type() == sql::StatementType::kVacuum) {
    // Busy-spins (rather than sleeping) so both watchdogs can catch it: the
    // wall-clock --max-stmt-ms kill and the RLIMIT_CPU governor, which
    // only counts CPU time and would never fire on a sleeping child.
    volatile uint64_t spin = 0;
    for (;;) spin = spin + 1;
  }
  if (g_planted_oom.load(std::memory_order_relaxed) &&
      stmt.type() == sql::StatementType::kReindex) {
    // Allocate and touch memory without bound. Under RLIMIT_AS the forked
    // child's new-handler converts exhaustion into the reserved OOM exit
    // code, which the parent triages as REAL-OOM.
    std::vector<std::unique_ptr<char[]>> hog;
    for (;;) {
      constexpr size_t kChunk = 1 << 20;
      hog.push_back(std::make_unique<char[]>(kChunk));
      std::memset(hog.back().get(), 0xab, kChunk);
    }
  }

  Executor executor(this);
  auto result = executor.Execute(stmt);
  if (!result.ok()) return result;

  // Record the executed statement into the session trace, then consult the
  // fault oracle (the ASAN stand-in).
  session_.type_trace.push_back(stmt.type());
  session_.feature_trace.push_back(executor.features());
  if (fault_hook_ != nullptr) {
    std::optional<CrashInfo> crash = fault_hook_->Check(*this);
    if (crash.has_value()) {
      LEGO_COV();
      last_crash_ = crash;
      return StatusOr<ResultSet>(Status::Crash(
          crash->kind + " in " + crash->component + " (" + crash->bug_id +
          "): " + crash->message));
    }
  }
  return result;
}

StatusOr<ResultSet> Database::Execute(const sql::Statement& stmt) {
  StorageHook* const hook = storage_hook_;
  if (hook == nullptr) return ExecuteUnbracketed(stmt);
  hook->OnStatementBegin(*this);
  auto result = ExecuteUnbracketed(stmt);
  hook->OnStatementEnd(*this, stmt, result.ok());
  return result;
}

StatusOr<Database::ScriptResult> Database::ExecuteScript(
    std::string_view sql_text) {
  LEGO_ASSIGN_OR_RETURN(std::vector<sql::StmtPtr> stmts,
                        sql::Parser::ParseScript(sql_text));
  ScriptResult result;
  for (const sql::StmtPtr& stmt : stmts) {
    auto st = Execute(*stmt);
    if (st.ok()) {
      ++result.executed;
      continue;
    }
    if (st.status().IsCrash()) {
      result.crashed = true;
      return result;
    }
    ++result.errors;
  }
  return result;
}

void Database::ResetSession() {
  if (session_.in_transaction) {
    (void)TxnRollback();
  }
  session_ = SessionState{};
  last_crash_.reset();
  catalog_.DropTemporaryTables();
}

void Database::ResetAll() {
  catalog_ = Catalog();
  session_ = SessionState{};
  last_crash_.reset();
  txn_snapshot_.reset();
  savepoints_.clear();
}

Status Database::TxnBegin() {
  if (txn_hook_ != nullptr) return txn_hook_->Begin(*this);
  if (session_.in_transaction) {
    return Status::TransactionError("a transaction is already in progress");
  }
  txn_snapshot_ = catalog_;
  session_.in_transaction = true;
  if (storage_hook_ != nullptr) storage_hook_->OnTxnBegin(*this);
  return Status::OK();
}

Status Database::TxnCommit() {
  if (txn_hook_ != nullptr) return txn_hook_->Commit(*this);
  if (!session_.in_transaction) {
    return Status::TransactionError("no transaction in progress");
  }
  txn_snapshot_.reset();
  savepoints_.clear();
  session_.in_transaction = false;
  if (storage_hook_ != nullptr) storage_hook_->OnTxnCommit(*this);
  return Status::OK();
}

Status Database::TxnRollback() {
  if (txn_hook_ != nullptr) return txn_hook_->Rollback(*this);
  if (!session_.in_transaction) {
    return Status::TransactionError("no transaction in progress");
  }
  catalog_ = std::move(*txn_snapshot_);
  txn_snapshot_.reset();
  savepoints_.clear();
  session_.in_transaction = false;
  if (storage_hook_ != nullptr) storage_hook_->OnTxnRollback(*this);
  return Status::OK();
}

Status Database::TxnSavepoint(const std::string& name) {
  if (txn_hook_ != nullptr) return txn_hook_->Savepoint(*this, name);
  if (!session_.in_transaction) {
    return Status::TransactionError("SAVEPOINT requires a transaction");
  }
  savepoints_.emplace_back(name, catalog_);
  if (storage_hook_ != nullptr) storage_hook_->OnTxnSavepoint(*this, name);
  return Status::OK();
}

Status Database::TxnRelease(const std::string& name) {
  if (txn_hook_ != nullptr) return txn_hook_->Release(*this, name);
  for (auto it = savepoints_.rbegin(); it != savepoints_.rend(); ++it) {
    if (it->first == name) {
      // Release this savepoint and everything nested inside it.
      savepoints_.erase(it.base() - 1, savepoints_.end());
      if (storage_hook_ != nullptr) storage_hook_->OnTxnRelease(*this, name);
      return Status::OK();
    }
  }
  return Status::TransactionError("savepoint '" + name + "' does not exist");
}

Status Database::TxnRollbackTo(const std::string& name) {
  if (txn_hook_ != nullptr) return txn_hook_->RollbackTo(*this, name);
  for (auto it = savepoints_.rbegin(); it != savepoints_.rend(); ++it) {
    if (it->first == name) {
      catalog_ = it->second;  // keep the savepoint itself (SQL semantics)
      savepoints_.erase(it.base(), savepoints_.end());
      if (storage_hook_ != nullptr) storage_hook_->OnTxnRollbackTo(*this, name);
      return Status::OK();
    }
  }
  return Status::TransactionError("savepoint '" + name + "' does not exist");
}

}  // namespace lego::minidb
