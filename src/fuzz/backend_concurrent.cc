#include "fuzz/backend_concurrent.h"

#include <utility>

#include "minidb/catalog.h"

namespace lego::fuzz {

ConcurrentBackend::ConcurrentBackend(const minidb::DialectProfile& profile,
                                     const BackendOptions& options)
    : InProcessBackend(profile, options), options_(options) {}

ConcurrentBackend::CaseResult ConcurrentBackend::RunCase(
    const MultiSessionCase& mcase, uint64_t seed) {
  CaseResult result;

  // Phase 1 — serial setup: schema/DCL/COPY statements run through the
  // ordinary in-process path (fault hook armed, coverage collecting).
  for (const sql::StmtPtr& stmt : mcase.setup.statements()) {
    StmtOutcome out = Execute(*stmt, /*want_rows=*/false);
    if (out.status == StmtOutcome::Status::kOk) {
      ++result.setup_executed;
    } else {
      ++result.setup_errors;
    }
    if (out.server_died()) {
      result.stats.crashed = true;
      result.stats.crash = out.crash;
      return result;
    }
  }

  // Phase 2 — concurrent sessions over the frozen catalog. The sessions
  // are fibers on this thread, so their probe hits land in this thread's
  // run map.
  concurrency::ConcurrentEngine::Options opts;
  opts.sessions = static_cast<int>(mcase.sessions.size());
  opts.seed = seed;
  opts.planted_lost_update = options_.planted_lost_update;
  opts.planted_dirty_read = options_.planted_dirty_read;

  std::vector<std::vector<const sql::Statement*>> scripts;
  scripts.reserve(mcase.sessions.size());
  for (const TestCase& session : mcase.sessions) {
    std::vector<const sql::Statement*> script;
    script.reserve(session.statements().size());
    for (const sql::StmtPtr& stmt : session.statements()) {
      script.push_back(stmt.get());
    }
    scripts.push_back(std::move(script));
  }

  minidb::Database& db = database();
  db.catalog().set_ddl_frozen(true);
  engine_ = std::make_unique<concurrency::ConcurrentEngine>(
      &db, std::move(opts), &stacks_);
  result.stats = engine_->Run(scripts);
  db.catalog().set_ddl_frozen(false);

  // Paged mode: the sessions wrote the shared pager-backed heaps with no
  // statement bracket (the engine uninstalls the database's storage hook
  // for the run), so none of it was logged. Re-establish durability by
  // checkpointing the final state — snapshot plus WAL rotation — once the
  // interleaving is fully resolved.
  minidb::StorageEngine* storage = storage_engine();
  if (storage != nullptr && !result.stats.crashed) {
    (void)storage->Checkpoint(&db);
  }
  return result;
}

const concurrency::History& ConcurrentBackend::history() const {
  static const concurrency::History kEmpty;
  return engine_ != nullptr ? engine_->history() : kEmpty;
}

}  // namespace lego::fuzz
