#ifndef LEGO_FUZZ_BACKEND_INPROC_H_
#define LEGO_FUZZ_BACKEND_INPROC_H_

#include <memory>
#include <optional>
#include <string>

#include "fuzz/backend.h"
#include "minidb/storage_engine.h"

namespace lego::fuzz {

/// The historical harness engine: minidb embedded in this process. Serial
/// campaigns through this backend are bit-identical to the pre-seam harness
/// (same operation order around reset, setup script, coverage scope, and
/// oracle bracket).
///
/// With StorageKind::kPaged the same execution path additionally runs behind
/// a StorageEngine: every Reset starts a fresh on-disk generation, and the
/// engine, installed as the database's storage hook, logs every statement
/// the database executes (setup script, case, oracle queries, and direct
/// database() calls alike). The mem path constructs no engine and stays
/// bit-identical.
///
/// In-process, a storage failure degrades the engine (it stops logging)
/// instead of killing the fuzzer. This is also the engine a ForkedBackend
/// child serves (options.kind == kForked): its probes then write
/// `run_map`, the map shared with the parent, and a storage failure
/// panics: the child exits with kStorageFailExitCode before acknowledging
/// the statement.
class InProcessBackend : public DbBackend {
 public:
  /// `run_map` receives the run coverage; nullptr means the backend's own
  /// map.
  explicit InProcessBackend(const minidb::DialectProfile& profile,
                            const BackendOptions& options = {},
                            cov::CoverageMap* run_map = nullptr);
  ~InProcessBackend() override;

  std::string_view name() const override { return "inproc"; }
  const minidb::DialectProfile& profile() const override { return profile_; }
  const faults::BugEngine& bug_engine() const override { return bug_engine_; }

  void Reset() override;
  StmtOutcome Execute(const sql::Statement& stmt, bool want_rows) override;
  const cov::CoverageMap& FinishRun() override;
  std::optional<std::string> FirstColumnOf(const std::string& table) override;
  BackendStorageStats storage_stats() override;

  /// Direct engine access for tests and embedded tooling (populating a
  /// schema before driving an oracle by hand, planting evaluator bugs, ...).
  /// On paged storage, statements executed here are logged like any other.
  minidb::Database& database() { return db_; }

  /// Paged mode only; nullptr on the mem path.
  minidb::StorageEngine* storage_engine() { return storage_.get(); }

 protected:
  void DoSnapshotForOracle() override;
  void DoRestoreForOracle() override;

 private:
  const minidb::DialectProfile& profile_;
  minidb::Database db_;
  faults::BugEngine bug_engine_;
  std::unique_ptr<minidb::StorageEngine> storage_;
  const bool panic_on_storage_error_;
  uint64_t reset_failures_ = 0;
  cov::CoverageMap own_map_;
  cov::CoverageMap* const run_map_;
  bool collecting_ = false;

  // Oracle bracket state.
  cov::CoverageMap* saved_map_ = nullptr;
  minidb::FaultHook* saved_hook_ = nullptr;
  size_t saved_types_ = 0;
  size_t saved_features_ = 0;
};

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_BACKEND_INPROC_H_
