#ifndef LEGO_CONCURRENCY_SCHEDULER_H_
#define LEGO_CONCURRENCY_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "util/random.h"

namespace lego::concurrency {

/// Epoch-based cooperative scheduler: the deterministic-interleaving core.
///
/// Exactly one session runs at a time (holds "the token"). Sessions are
/// fibers on one thread; they announce schedule points by calling Arrive() —
/// at every statement boundary and every row operation — which parks them:
/// the session switches back to its driver through the `park` callback, and
/// the driver resumes whichever session running() names. When every live
/// session is parked (arrived, blocked on a lock, or finished), the
/// scheduler closes the epoch: it COLLECTs the arrived sessions, shuffles
/// them with the case's seeded RNG, and DRAINs the queue by granting the
/// token to each in turn.
/// A granted session executes exactly one schedule step and parks again for
/// the next epoch. The shuffle is the only source of interleaving variety,
/// so the full interleaving is a pure function of the seed — replayable,
/// fork-stable, and checkpointable.
///
/// Lock waits integrate as a third state: a token holder whose lock request
/// would block calls BlockOnLock(), which releases the token and parks the
/// session out of the epoch rotation until another session's commit grants
/// the lock and calls WakeLocked() for it (re-entering it into the next
/// epoch). If every live session ends up lock-waiting — which strict 2PL
/// plus requester-dies deadlock handling should make impossible — the
/// scheduler force-wakes the smallest waiting session with kForcedAbort as a
/// deterministic last resort rather than hanging the campaign.
class EpochScheduler {
 public:
  enum class Wake : uint8_t {
    kGo,           // token granted, proceed
    kForcedAbort,  // stall breaker: abort the transaction (lock not granted)
    kShutdown,     // AbortAll() was called: unwind without touching the db
  };

  /// `park(sid)` switches session `sid` back to the driver and returns when
  /// the driver resumes it.
  EpochScheduler(int n_sessions, uint64_t seed,
                 std::function<void(int sid)> park);

  /// Schedule point. Releases the token (if held) and parks until granted.
  Wake Arrive(int sid);

  /// Token holder whose lock request returned kWouldBlock. Releases the
  /// token and parks until WakeLocked(sid) + a later epoch grant (kGo, the
  /// lock is then held), a forced stall-break (kForcedAbort), or shutdown.
  Wake BlockOnLock(int sid);

  /// Called by the token holder after its lock release granted `sid`'s
  /// pending request: re-enters `sid` into the epoch rotation.
  void WakeLocked(int sid);

  /// Session `sid` is done (end of script). Releases the token.
  void Finish(int sid);

  /// Terminal: every parked session wakes with kShutdown at its next
  /// resume (crash or external abort).
  void AbortAll();

  bool aborted() const { return aborted_; }

  /// The session the driver must resume next: the token holder, or -1 once
  /// every session is done or the run was aborted.
  int running() const { return aborted_ ? -1 : running_; }

  /// Granted-session order, one entry per token grant — the interleaving
  /// trace. Stable across replays of the same seed.
  const std::vector<int>& picks() const { return picks_; }
  uint64_t TraceDigest() const;
  int epochs() const { return epochs_; }
  /// Number of grants that switched to a different session than the
  /// previous grant (the triage minimizer prefers fewer switches).
  int switches() const { return switches_; }
  int forced_aborts() const { return forced_aborts_; }

 private:
  enum class State : uint8_t { kOutside, kArrived, kLockWait, kRunning, kDone };

  /// If no one runs, drain the queue or close the epoch.
  void Dispatch();
  void Grant(int sid);
  /// Parks `sid` until it holds the token or the run is aborted.
  void ParkUntilGranted(int sid);

  int n_;
  Rng rng_;
  std::function<void(int)> park_;
  std::vector<State> states_;
  std::vector<bool> forced_;  // sid woken via stall-break
  std::deque<int> drain_;
  int running_ = -1;
  bool aborted_ = false;

  std::vector<int> picks_;
  int epochs_ = 0;
  int switches_ = 0;
  int forced_aborts_ = 0;
};

}  // namespace lego::concurrency

#endif  // LEGO_CONCURRENCY_SCHEDULER_H_
