#include "concurrency/engine.h"

#include <cassert>

#include "minidb/catalog.h"
#include "sql/statement_type.h"

namespace lego::concurrency {
namespace {

/// Terminal unwind signal: the run is over (crash or external abort); the
/// throwing session must exit without touching any shared engine state.
struct ShutdownException {};

}  // namespace

ConcurrentEngine::ConcurrentEngine(minidb::Database* db, Options options,
                                   FiberStacks* stacks)
    : db_(db),
      options_(std::move(options)),
      stacks_(stacks),
      fibers_(static_cast<size_t>(options_.sessions)),
      scheduler_(options_.sessions, options_.seed, [this](int sid) {
        fibers_[static_cast<size_t>(sid)].Yield();
      }) {}

ConcurrentEngine::~ConcurrentEngine() = default;

bool ConcurrentEngine::AllowedInSession(sql::StatementType type) {
  // Sessions run DML, DQL, and transaction control only. DDL, DCL, COPY and
  // maintenance/utility statements belong to the serial setup phase: the
  // catalog is frozen during concurrent execution (locks are row-level and
  // cannot protect schema changes).
  switch (sql::CategoryOf(type)) {
    case sql::StatementCategory::kDml:
      return type != sql::StatementType::kCopy;
    case sql::StatementCategory::kDql:
    case sql::StatementCategory::kTcl:
      return true;
    default:
      return false;
  }
}

ConcurrentEngine::SessionCtx& ConcurrentEngine::Ctx() {
  assert(current_ != nullptr);
  return *current_;
}

void ConcurrentEngine::SwapIn(SessionCtx& ctx) {
  std::swap(db_->session(), ctx.db_session);
  ctx.swapped_in = true;
}

void ConcurrentEngine::SwapOut(SessionCtx& ctx) {
  std::swap(db_->session(), ctx.db_session);
  ctx.swapped_in = false;
}

void ConcurrentEngine::SchedulePoint(SessionCtx& ctx) {
  if (ctx.swapped_in) SwapOut(ctx);
  if (scheduler_.Arrive(ctx.sid) == EpochScheduler::Wake::kShutdown) {
    throw ShutdownException{};
  }
  SwapIn(ctx);
}

const std::string& ConcurrentEngine::TableName(const minidb::HeapTable* heap) {
  auto it = table_names_.find(heap);
  if (it != table_names_.end()) return it->second;
  // The catalog is frozen during the run, so a one-shot reverse lookup per
  // heap is safe to cache.
  for (const std::string& name : db_->catalog().TableNames()) {
    auto t = db_->catalog().GetTable(name);
    if (t.ok() && &t.value()->heap == heap) {
      return table_names_.emplace(heap, name).first->second;
    }
  }
  static const std::string kUnknown = "?";
  return kUnknown;
}

std::string ConcurrentEngine::KeyString(const std::string& table,
                                        minidb::RowId id) {
  std::string key;
  key.reserve(table.size() + 22);  // two ':' and two uint32 decimals
  key += table;
  key += ':';
  key += std::to_string(id.page);
  key += ':';
  key += std::to_string(id.slot);
  return key;
}

void ConcurrentEngine::BeginTxn(SessionCtx& ctx) {
  ctx.txn = next_txn_++;
  ctx.txn_open = true;
  ctx.in_explicit = false;
  ctx.undo.clear();
  txn_sid_[ctx.txn] = ctx.sid;
  history_.Begin(ctx.sid, ctx.txn);
}

void ConcurrentEngine::WakeGranted(const std::vector<uint64_t>& txns) {
  for (uint64_t txn : txns) {
    auto it = txn_sid_.find(txn);
    if (it != txn_sid_.end()) scheduler_.WakeLocked(it->second);
  }
}

void ConcurrentEngine::CommitTxn(SessionCtx& ctx) {
  history_.Commit(ctx.sid, ctx.txn);
  WakeGranted(locks_.ReleaseAll(ctx.txn));
  ctx.undo.clear();
  ctx.txn_open = false;
  ctx.in_explicit = false;
  db_->session().in_transaction = false;
}

void ConcurrentEngine::ApplyUndo(SessionCtx& ctx) {
  // Undo application must not re-enter the observer (no locks, no schedule
  // points, no history inside a rollback). The storage engine logs nothing
  // of it: the database's storage hook is uninstalled for the whole run.
  minidb::RowHookClearScope no_hooks;
  std::map<std::string, minidb::HeapTable*> touched;
  for (auto it = ctx.undo.rbegin(); it != ctx.undo.rend(); ++it) {
    UndoRecord& rec = *it;
    touched.emplace(rec.table, rec.heap);
    switch (rec.kind) {
      case UndoRecord::Kind::kInsert:
        rec.heap->Delete(rec.rid);
        break;
      case UndoRecord::Kind::kUpdate:
        rec.heap->Update(rec.rid, std::move(rec.old_row));
        break;
      case UndoRecord::Kind::kDelete:
        rec.heap->ResurrectAt(rec.rid, std::move(rec.old_row));
        break;
    }
    if (rec.old_version == 0) {
      versions_[rec.table].erase(rec.rid);
    } else {
      versions_[rec.table][rec.rid] = rec.old_version;
    }
  }
  // Rebuild the indexes of touched tables from the heap: the executor's
  // per-row index maintenance for the undone statements is not tracked in
  // the undo log, and a full rebuild is always consistent.
  for (const auto& [name, heap] : touched) {
    auto t = db_->catalog().GetTable(name);
    if (!t.ok()) continue;
    minidb::TableInfo* info = t.value();
    for (const std::string& iname : info->index_names) {
      auto idx = db_->catalog().GetIndex(iname);
      if (!idx.ok()) continue;
      minidb::IndexInfo* index = idx.value();
      int col = info->schema.FindColumn(index->columns[0]);
      if (col < 0) continue;
      index->tree.Clear();
      heap->Scan([&](minidb::RowId rid, const minidb::Row& row) {
        if (static_cast<size_t>(col) < row.size()) {
          index->tree.Insert(row[static_cast<size_t>(col)], rid);
        }
        return true;
      });
    }
  }
}

void ConcurrentEngine::RollbackTxn(SessionCtx& ctx) {
  ApplyUndo(ctx);
  history_.Abort(ctx.sid, ctx.txn);
  WakeGranted(locks_.ReleaseAll(ctx.txn));
  ctx.undo.clear();
  ctx.txn_open = false;
  ctx.in_explicit = false;
  db_->session().in_transaction = false;
}

void ConcurrentEngine::AcquireLock(SessionCtx& ctx,
                                   const minidb::LockKey& key,
                                   minidb::LockMode mode) {
  switch (locks_.Request(ctx.txn, key, mode)) {
    case minidb::LockManager::Acquire::kGranted:
      return;
    case minidb::LockManager::Acquire::kDeadlock:
      throw TxnAbortException{};
    case minidb::LockManager::Acquire::kWouldBlock:
      break;
  }
  SwapOut(ctx);
  EpochScheduler::Wake w = scheduler_.BlockOnLock(ctx.sid);
  if (w == EpochScheduler::Wake::kShutdown) throw ShutdownException{};
  SwapIn(ctx);
  if (w == EpochScheduler::Wake::kForcedAbort) {
    // The pending request is still queued; ReleaseAll during the rollback
    // this exception triggers will cancel it.
    throw TxnAbortException{};
  }
  // kGo: another session's release promoted our request; the lock is held.
}

// --- TxnHook ---------------------------------------------------------------

Status ConcurrentEngine::Begin(minidb::Database& db) {
  SessionCtx& ctx = Ctx();
  if (ctx.in_explicit) {
    return Status::TransactionError("a transaction is already in progress");
  }
  if (!ctx.txn_open) BeginTxn(ctx);
  ctx.in_explicit = true;
  db.session().in_transaction = true;
  return Status::OK();
}

Status ConcurrentEngine::Commit(minidb::Database& db) {
  (void)db;
  SessionCtx& ctx = Ctx();
  if (!ctx.in_explicit) {
    return Status::TransactionError("no transaction in progress");
  }
  CommitTxn(ctx);
  return Status::OK();
}

Status ConcurrentEngine::Rollback(minidb::Database& db) {
  (void)db;
  SessionCtx& ctx = Ctx();
  if (!ctx.in_explicit) {
    return Status::TransactionError("no transaction in progress");
  }
  RollbackTxn(ctx);
  return Status::OK();
}

Status ConcurrentEngine::Savepoint(minidb::Database& db, const std::string&) {
  (void)db;
  return Status::TransactionError(
      "SAVEPOINT is not supported under the concurrent backend");
}

Status ConcurrentEngine::Release(minidb::Database& db, const std::string&) {
  (void)db;
  return Status::TransactionError(
      "RELEASE is not supported under the concurrent backend");
}

Status ConcurrentEngine::RollbackTo(minidb::Database& db, const std::string&) {
  (void)db;
  return Status::TransactionError(
      "ROLLBACK TO is not supported under the concurrent backend");
}

// --- RowObserver -----------------------------------------------------------

void ConcurrentEngine::OnRead(const minidb::HeapTable* table,
                              minidb::RowId id) {
  SessionCtx& ctx = Ctx();
  if (!ctx.txn_open) return;
  SchedulePoint(ctx);
  const std::string& name = TableName(table);
  // Reads performed by UPDATE/DELETE statements lock X up front (they feed
  // a mutation; going straight to X avoids upgrade deadlock storms).
  bool write_read = ctx.current_type == sql::StatementType::kUpdate ||
                    ctx.current_type == sql::StatementType::kDelete ||
                    ctx.current_type == sql::StatementType::kReplace;
  minidb::LockMode mode = write_read && !options_.planted_lost_update
                              ? minidb::LockMode::kExclusive
                              : minidb::LockMode::kShared;
  bool skip = options_.planted_dirty_read &&
              mode == minidb::LockMode::kShared;
  if (!skip) AcquireLock(ctx, minidb::LockKey{name, id}, mode);
  uint64_t version = 0;
  auto t = versions_.find(name);
  if (t != versions_.end()) {
    auto r = t->second.find(id);
    if (r != t->second.end()) version = r->second;
  }
  history_.Read(ctx.sid, ctx.txn, KeyString(name, id), version);
}

void ConcurrentEngine::OnUpdate(minidb::HeapTable* table, minidb::RowId id) {
  SessionCtx& ctx = Ctx();
  if (!ctx.txn_open) return;
  SchedulePoint(ctx);
  const std::string& name = TableName(table);
  if (!options_.planted_lost_update) {
    AcquireLock(ctx, minidb::LockKey{name, id}, minidb::LockMode::kExclusive);
  }
  const minidb::Row* old = table->RawRow(id);
  if (old == nullptr) return;  // dead slot; the mutation itself will fail
  uint64_t prev = versions_[name].count(id) ? versions_[name][id] : 0;
  ctx.undo.push_back(
      {UndoRecord::Kind::kUpdate, name, table, id, *old, prev});
  uint64_t version = next_version_++;
  history_.Write(ctx.sid, ctx.txn, KeyString(name, id), version, prev);
  versions_[name][id] = version;
}

void ConcurrentEngine::OnDelete(minidb::HeapTable* table, minidb::RowId id) {
  SessionCtx& ctx = Ctx();
  if (!ctx.txn_open) return;
  SchedulePoint(ctx);
  const std::string& name = TableName(table);
  if (!options_.planted_lost_update) {
    AcquireLock(ctx, minidb::LockKey{name, id}, minidb::LockMode::kExclusive);
  }
  const minidb::Row* old = table->RawRow(id);
  if (old == nullptr) return;
  uint64_t prev = versions_[name].count(id) ? versions_[name][id] : 0;
  ctx.undo.push_back(
      {UndoRecord::Kind::kDelete, name, table, id, *old, prev});
  uint64_t version = next_version_++;
  history_.Write(ctx.sid, ctx.txn, KeyString(name, id), version, prev);
  versions_[name][id] = version;
}

void ConcurrentEngine::OnInsert(minidb::HeapTable* table) {
  SessionCtx& ctx = Ctx();
  if (!ctx.txn_open) return;
  SchedulePoint(ctx);
  const std::string& name = TableName(table);
  minidb::RowId rid = table->PeekInsert();
  if (!options_.planted_lost_update) {
    // Lock the predicted slot; if acquiring parked us and another session
    // moved the insertion point meanwhile, re-predict and lock again (the
    // stale lock is kept — strict 2PL has no single-lock release).
    for (;;) {
      AcquireLock(ctx, minidb::LockKey{name, rid},
                  minidb::LockMode::kExclusive);
      minidb::RowId again = table->PeekInsert();
      if (again == rid) break;
      rid = again;
    }
  }
  uint64_t prev = versions_[name].count(rid) ? versions_[name][rid] : 0;
  ctx.undo.push_back({UndoRecord::Kind::kInsert, name, table, rid, {}, prev});
  uint64_t version = next_version_++;
  history_.Write(ctx.sid, ctx.txn, KeyString(name, rid), version, prev);
  versions_[name][rid] = version;
}

// --- session loop ----------------------------------------------------------

void ConcurrentEngine::ExecuteOne(SessionCtx& ctx,
                                  const sql::Statement& stmt) {
  ctx.current_type = stmt.type();
  if (!AllowedInSession(stmt.type())) {
    ++ctx.errors;
    return;
  }
  if (!ctx.txn_open) BeginTxn(ctx);
  try {
    auto result = db_->Execute(stmt);
    if (!result.ok() && result.status().IsCrash()) {
      crashed_ = true;
      crash_ = db_->last_crash();
      scheduler_.AbortAll();
      throw ShutdownException{};
    }
    if (!result.ok()) {
      ++ctx.errors;
      // An errored autocommit statement rolls its implicit transaction
      // back; an explicit transaction stays open (minidb skips statement
      // errors rather than poisoning the transaction).
      if (!ctx.in_explicit && ctx.txn_open) RollbackTxn(ctx);
    } else {
      ++ctx.executed;
      if (!ctx.in_explicit && ctx.txn_open) CommitTxn(ctx);
    }
  } catch (const TxnAbortException&) {
    ++ctx.deadlocks;
    ++ctx.errors;
    RollbackTxn(ctx);
  }
}

void ConcurrentEngine::SessionEntry(void* engine) {
  auto* self = static_cast<ConcurrentEngine*>(engine);
  self->SessionMain(self->Ctx());
}

void ConcurrentEngine::SessionMain(SessionCtx& ctx) {
  try {
    for (const sql::Statement* stmt : ctx.script) {
      SchedulePoint(ctx);  // statement-boundary schedule point
      ExecuteOne(ctx, *stmt);
    }
    if (ctx.txn_open) RollbackTxn(ctx);  // end-of-script: abandon open txn
    if (ctx.swapped_in) SwapOut(ctx);
    scheduler_.Finish(ctx.sid);
  } catch (const ShutdownException&) {
    // Crash or abort: exit without touching shared engine state; the
    // database is reset by the backend before next use.
  } catch (...) {
    // Nothing may unwind past a fiber's entry: stop the run, let the other
    // sessions unwind, and rethrow from Run() on the driver's stack.
    failure_ = std::current_exception();
    scheduler_.AbortAll();
  }
}

void ConcurrentEngine::ResumeSession(int sid) {
  current_ = &ctxs_[static_cast<size_t>(sid)];
  fibers_[static_cast<size_t>(sid)].Resume();
}

ConcurrentEngine::RunStats ConcurrentEngine::Run(
    const std::vector<std::vector<const sql::Statement*>>& scripts) {
  assert(static_cast<int>(scripts.size()) == options_.sessions);
  ctxs_.clear();
  ctxs_.resize(scripts.size());
  for (size_t i = 0; i < scripts.size(); ++i) {
    ctxs_[i].sid = static_cast<int>(i);
    ctxs_[i].script = scripts[i];
    fibers_[i].Start(stacks_->Get(i), &ConcurrentEngine::SessionEntry, this);
  }
  const int n = options_.sessions;
  db_->set_txn_hook(this);
  minidb::RowObserver* const saved_observer = minidb::RowHooks::Get();
  minidb::RowHooks::Set(this);
  // No per-statement WAL capture while sessions run: without a storage
  // hook the database opens no statement bracket, so the storage engine
  // ignores the paged heaps' reports, and the backend checkpoints the
  // concurrent phase as a whole.
  minidb::StorageHook* const saved_storage = db_->storage_hook();
  db_->set_storage_hook(nullptr);
  // Start barrier: each session runs to its first schedule point, and the
  // last arrival closes the first epoch.
  for (int sid = 0; sid < n; ++sid) ResumeSession(sid);
  for (int sid = scheduler_.running(); sid >= 0; sid = scheduler_.running()) {
    ResumeSession(sid);
  }
  // After AbortAll (a crash), every parked session is resumed once: it
  // wakes with kShutdown and unwinds through ShutdownException.
  for (int sid = 0; sid < n; ++sid) {
    if (fibers_[static_cast<size_t>(sid)].finished()) continue;
    assert(scheduler_.aborted());
    ResumeSession(sid);
  }
  db_->set_storage_hook(saved_storage);
  minidb::RowHooks::Set(saved_observer);
  db_->set_txn_hook(nullptr);
  current_ = nullptr;
  if (failure_ != nullptr) std::rethrow_exception(failure_);

  RunStats stats;
  for (const SessionCtx& ctx : ctxs_) {
    stats.executed += ctx.executed;
    stats.errors += ctx.errors;
    stats.deadlocks += ctx.deadlocks;
  }
  stats.crashed = crashed_;
  stats.crash = crash_;
  stats.trace_digest = scheduler_.TraceDigest();
  stats.history_digest = history_.Digest();
  stats.epochs = scheduler_.epochs();
  stats.switches = scheduler_.switches();
  return stats;
}

}  // namespace lego::concurrency
