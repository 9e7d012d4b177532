#ifndef LEGO_FUZZ_BACKEND_CONCURRENT_H_
#define LEGO_FUZZ_BACKEND_CONCURRENT_H_

#include <memory>

#include "concurrency/engine.h"
#include "concurrency/history.h"
#include "fuzz/backend_inproc.h"
#include "fuzz/multi_case.h"

namespace lego::fuzz {

/// In-process backend that executes N-session cases concurrently: the setup
/// script of a MultiSessionCase runs serially (DDL allowed), then the
/// catalog is frozen and one fiber per session, all on the calling thread,
/// drives the shared engine under the seeded epoch scheduler with strict-2PL
/// row locking. Everything a serial harness needs (Reset / Execute / oracle
/// bracket / coverage scope) is inherited from InProcessBackend, so
/// single-session execution through this backend is the ordinary serial
/// path.
///
/// Storage note: with StorageKind::kPaged the sessions share the same
/// pager-backed heaps as the serial phases; the scheduler token gives the
/// page cache one user at a time. The concurrency engine uninstalls the
/// database's storage hook while the sessions run, so no session statement
/// is bracketed or logged, and its TxnHook takes over transaction control;
/// the concurrent phase is made durable by a checkpoint (snapshot + WAL
/// rotation) when the case finishes instead of per-statement logging. As
/// in InProcessBackend, `db_dir` belongs to the storage engine: its
/// ResetFresh creates and empties it under paged storage, mem storage
/// never writes to it, and removing it is the caller's business.
class ConcurrentBackend : public InProcessBackend {
 public:
  ConcurrentBackend(const minidb::DialectProfile& profile,
                    const BackendOptions& options);

  std::string_view name() const override { return "concurrent"; }

  struct CaseResult {
    concurrency::ConcurrentEngine::RunStats stats;
    int setup_executed = 0;
    int setup_errors = 0;
  };

  /// Runs one split case under interleaving seed `seed`. Caller must have
  /// called Reset() first (fresh engine state + backend setup script); the
  /// case's own setup statements then run serially before the sessions
  /// start. The history stays valid until the next RunCase/Reset.
  CaseResult RunCase(const MultiSessionCase& mcase, uint64_t seed);

  const concurrency::History& history() const;

 private:
  BackendOptions options_;
  /// Session fiber stacks, mapped once and reused by every case.
  concurrency::FiberStacks stacks_;
  /// Engine of the most recent RunCase (holds the history the isolation
  /// oracle reads).
  std::unique_ptr<concurrency::ConcurrentEngine> engine_;
};

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_BACKEND_CONCURRENT_H_
