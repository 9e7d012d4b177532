#include "fuzz/backend_inproc.h"

#include <unistd.h>

#include <utility>

namespace lego::fuzz {
namespace {

/// Canonical row rendering for StmtOutcome::rows ("v|v|...|").
std::string RenderRow(const minidb::Row& row) {
  std::string line;
  for (const minidb::Value& v : row) {
    line += v.ToString();
    line += '|';
  }
  return line;
}

}  // namespace

InProcessBackend::InProcessBackend(const minidb::DialectProfile& profile,
                                   const BackendOptions& options,
                                   cov::CoverageMap* run_map)
    : profile_(profile),
      db_(&profile),
      bug_engine_(profile.name),
      // Panic mode is what makes the durability oracle sound in a forked
      // child: a commit that cannot be made durable exits before the
      // statement is acknowledged, so the parent's shadow never records
      // it. In-process, a storage failure must not kill the fuzzer.
      panic_on_storage_error_(options.kind == BackendKind::kForked),
      run_map_(run_map != nullptr ? run_map : &own_map_) {
  // A map shared with another process must never receive probes aimed at
  // whatever sink this thread inherited.
  if (run_map != nullptr) cov::CoverageRuntime::SetActiveMap(nullptr);
  db_.set_fault_hook(&bug_engine_);
  if (options.storage == StorageKind::kPaged && !options.db_dir.empty()) {
    minidb::StorageEngine::Options so;
    so.dir = options.db_dir;
    so.pool_frames = options.pool_frames;
    so.skip_fsync = options.planted_skip_fsync;
    so.panic_on_storage_error = panic_on_storage_error_;
    storage_ = std::make_unique<minidb::StorageEngine>(so);
  }
}

InProcessBackend::~InProcessBackend() {
  // Never leave a probe sink pointing at a dead map.
  if (collecting_) cov::CoverageRuntime::SetActiveMap(nullptr);
  if (storage_ != nullptr) db_.set_storage_hook(nullptr);
}

void InProcessBackend::Reset() {
  // Exact pre-seam order: fresh instance and fault session *outside* the
  // coverage scope, then the setup script *inside* it with the oracle
  // disarmed and the trace cleared afterwards. ResetFresh resets the
  // catalog itself.
  if (storage_ == nullptr) {
    db_.ResetAll();
  } else if (!storage_->ResetFresh(&db_).ok()) {
    if (panic_on_storage_error_) _exit(minidb::kStorageFailExitCode);
    ++reset_failures_;
  }
  bug_engine_.ResetSession();

  run_map_->Reset();
  cov::CoverageRuntime::SetActiveMap(run_map_);
  collecting_ = true;

  if (!setup_script().empty()) {
    db_.set_fault_hook(nullptr);
    (void)db_.ExecuteScript(setup_script());
    db_.session().type_trace.clear();
    db_.session().feature_trace.clear();
    db_.set_fault_hook(&bug_engine_);
    bug_engine_.ResetSession();
  }
}

StmtOutcome InProcessBackend::Execute(const sql::Statement& stmt,
                                      bool want_rows) {
  StmtOutcome out;
  auto st = db_.Execute(stmt);
  if (st.ok()) {
    out.status = StmtOutcome::Status::kOk;
    if (want_rows) {
      out.rows.reserve(st->rows.size());
      for (const minidb::Row& row : st->rows) {
        out.rows.push_back(RenderRow(row));
      }
    }
    return out;
  }
  if (st.status().IsCrash()) {
    out.status = StmtOutcome::Status::kCrash;
    out.crash = *db_.last_crash();
    return out;
  }
  out.status = StmtOutcome::Status::kError;
  return out;
}

const cov::CoverageMap& InProcessBackend::FinishRun() {
  if (collecting_) {
    cov::CoverageRuntime::SetActiveMap(nullptr);
    collecting_ = false;
    run_map_->ClassifyCounts();
  }
  return *run_map_;
}

BackendStorageStats InProcessBackend::storage_stats() {
  BackendStorageStats out;
  if (storage_ == nullptr) return out;
  const minidb::StorageEngine::Stats s = storage_->stats();
  out.pool_hits = s.pool.hits;
  out.pool_misses = s.pool.misses;
  out.pool_evictions = s.pool.evictions;
  out.pool_writebacks = s.pool.writebacks;
  out.wal_records = s.wal_records;
  out.wal_bytes = s.wal_bytes;
  out.fsyncs = s.fsyncs;
  out.steal_flushes = s.steal_flushes;
  out.commits = s.commits;
  out.checkpoints = s.checkpoints;
  out.reset_failures = reset_failures_;
  return out;
}

std::optional<std::string> InProcessBackend::FirstColumnOf(
    const std::string& table) {
  auto t = db_.catalog().GetTable(table);
  if (!t.ok() || (*t)->schema.columns.empty()) return std::nullopt;
  return (*t)->schema.columns.front().name;
}

void InProcessBackend::DoSnapshotForOracle() {
  // Oracle queries must be invisible to fuzzing state: pause coverage
  // probes, disarm the fault hook, and remember the session trace length so
  // the partition queries can't trigger or mask injected bugs.
  saved_map_ = cov::CoverageRuntime::active_map();
  cov::CoverageRuntime::SetActiveMap(nullptr);
  saved_hook_ = db_.fault_hook();
  db_.set_fault_hook(nullptr);
  saved_types_ = db_.session().type_trace.size();
  saved_features_ = db_.session().feature_trace.size();
}

void InProcessBackend::DoRestoreForOracle() {
  db_.session().type_trace.resize(saved_types_);
  db_.session().feature_trace.resize(saved_features_);
  db_.set_fault_hook(saved_hook_);
  cov::CoverageRuntime::SetActiveMap(saved_map_);
  saved_map_ = nullptr;
  saved_hook_ = nullptr;
}

}  // namespace lego::fuzz
