#ifndef LEGO_MINIDB_LOCK_MANAGER_H_
#define LEGO_MINIDB_LOCK_MANAGER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "minidb/row.h"

namespace lego::minidb {

/// Identity of a lockable row. The table component is its catalog name
/// (stable and deterministic across runs, unlike a heap pointer), so lock
/// acquisition/release order — and with it the whole interleaving replay —
/// is a pure function of the schedule seed.
struct LockKey {
  std::string table;
  RowId rid;

  bool operator<(const LockKey& o) const {
    if (table != o.table) return table < o.table;
    return rid < o.rid;
  }
  bool operator==(const LockKey& o) const {
    return table == o.table && rid == o.rid;
  }
};

enum class LockMode : uint8_t { kShared, kExclusive };

/// Row-level strict two-phase lock table with S/X modes, FIFO-ish wait
/// queues, and wait-for-graph deadlock detection. Purely passive: it never
/// blocks a session itself. A caller whose request returns kWouldBlock parks
/// in the scheduler and is woken when a later ReleaseAll names its
/// transaction in the granted list. The deterministic victim rule is
/// "the requester dies": a request that would close a wait-for cycle is
/// rejected (kDeadlock) and never enqueued, so the blocked transactions it
/// would have deadlocked with keep their locks and continue.
class LockManager {
 public:
  enum class Acquire {
    kGranted,     // lock held (fresh grant, re-entrant hold, or upgrade)
    kWouldBlock,  // request enqueued; park until ReleaseAll grants it
    kDeadlock,    // granting would deadlock; request dropped, caller aborts
  };

  /// Requests `mode` on `key` for transaction `txn`. Re-entrant: holding X
  /// satisfies an S request; holding S and requesting X upgrades in place
  /// when txn is the sole holder, otherwise waits.
  Acquire Request(uint64_t txn, const LockKey& key, LockMode mode);

  /// Releases every lock `txn` holds and cancels any wait it has pending,
  /// then promotes now-grantable waiters. Returns the transactions whose
  /// pending request became granted, in ascending txn order (the
  /// deterministic wake order).
  std::vector<uint64_t> ReleaseAll(uint64_t txn);

  /// True when `txn` holds `key` in at least `mode` strength.
  bool Holds(uint64_t txn, const LockKey& key, LockMode mode) const;

  /// Number of keys `txn` currently holds.
  size_t HeldCount(uint64_t txn) const;

  /// Key `txn` is currently waiting on, if any (tests/diagnostics).
  const LockKey* WaitingOn(uint64_t txn) const;

  void Clear();

 private:
  struct Waiter {
    uint64_t txn = 0;
    LockMode mode = LockMode::kShared;
  };
  struct LockState {
    std::map<uint64_t, LockMode> holders;
    std::vector<Waiter> queue;  // arrival order
  };

  /// True if `txn` requesting `mode` is compatible with the current holders
  /// of `state` (ignoring txn's own hold, which covers upgrades).
  static bool Compatible(const LockState& state, uint64_t txn, LockMode mode);

  /// Would blocking `txn` on `key` close a cycle in the wait-for graph?
  bool WouldDeadlock(uint64_t txn, const LockKey& key, LockMode mode) const;

  /// Promotes grantable waiters of `key` in queue order; appends granted
  /// txns to `granted`.
  void PromoteWaiters(const LockKey& key, std::vector<uint64_t>* granted);

  std::map<LockKey, LockState> locks_;
  std::map<uint64_t, std::set<LockKey>> held_;
  std::map<uint64_t, LockKey> waiting_;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_LOCK_MANAGER_H_
