#include "concurrency/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"

namespace lego::concurrency {

EpochScheduler::EpochScheduler(int n_sessions, uint64_t seed,
                               std::function<void(int)> park)
    : n_(n_sessions),
      rng_(seed),
      park_(std::move(park)),
      states_(static_cast<size_t>(n_sessions), State::kOutside),
      forced_(static_cast<size_t>(n_sessions), false) {}

void EpochScheduler::Grant(int sid) {
  states_[static_cast<size_t>(sid)] = State::kRunning;
  running_ = sid;
  if (!picks_.empty() && picks_.back() != sid) ++switches_;
  picks_.push_back(sid);
}

void EpochScheduler::Dispatch() {
  if (running_ != -1 || aborted_) return;
  if (!drain_.empty()) {
    int sid = drain_.front();
    drain_.pop_front();
    Grant(sid);
    return;
  }
  // Close the epoch once every session is parked: arrived, lock-waiting, or
  // done. (Sessions still kOutside haven't reached their first schedule
  // point yet — the first epoch waits for all of them, a deterministic
  // start barrier.)
  int arrived = 0, lockwait = 0, done = 0;
  for (State s : states_) {
    if (s == State::kArrived) ++arrived;
    else if (s == State::kLockWait) ++lockwait;
    else if (s == State::kDone) ++done;
  }
  if (arrived + lockwait + done < n_) return;
  if (arrived > 0) {
    std::vector<int> batch;
    for (int sid = 0; sid < n_; ++sid) {
      if (states_[static_cast<size_t>(sid)] == State::kArrived) {
        batch.push_back(sid);
      }
    }
    rng_.Shuffle(&batch);
    drain_.assign(batch.begin(), batch.end());
    ++epochs_;
    int sid = drain_.front();
    drain_.pop_front();
    Grant(sid);
    return;
  }
  if (lockwait > 0) {
    // Every live session waits on a lock. Strict 2PL with requester-dies
    // deadlock handling should make this unreachable; break the stall
    // deterministically instead of hanging: force-wake the smallest waiter,
    // which aborts its transaction (kForcedAbort).
    for (int sid = 0; sid < n_; ++sid) {
      if (states_[static_cast<size_t>(sid)] == State::kLockWait) {
        forced_[static_cast<size_t>(sid)] = true;
        ++forced_aborts_;
        Grant(sid);
        return;
      }
    }
  }
  // Everyone done: nothing left to schedule.
}

void EpochScheduler::ParkUntilGranted(int sid) {
  // A session granted the token straight back (the next pick is itself)
  // keeps running without a round trip through the driver.
  while (!aborted_ && states_[static_cast<size_t>(sid)] != State::kRunning) {
    park_(sid);
  }
}

EpochScheduler::Wake EpochScheduler::Arrive(int sid) {
  if (aborted_) return Wake::kShutdown;
  if (running_ == sid) running_ = -1;
  states_[static_cast<size_t>(sid)] = State::kArrived;
  Dispatch();
  ParkUntilGranted(sid);
  if (aborted_) return Wake::kShutdown;
  return Wake::kGo;
}

EpochScheduler::Wake EpochScheduler::BlockOnLock(int sid) {
  if (aborted_) return Wake::kShutdown;
  if (running_ == sid) running_ = -1;
  states_[static_cast<size_t>(sid)] = State::kLockWait;
  Dispatch();
  ParkUntilGranted(sid);
  if (aborted_) return Wake::kShutdown;
  if (forced_[static_cast<size_t>(sid)]) {
    forced_[static_cast<size_t>(sid)] = false;
    return Wake::kForcedAbort;
  }
  return Wake::kGo;
}

void EpochScheduler::WakeLocked(int sid) {
  if (states_[static_cast<size_t>(sid)] == State::kLockWait) {
    states_[static_cast<size_t>(sid)] = State::kArrived;
  }
}

void EpochScheduler::Finish(int sid) {
  if (running_ == sid) running_ = -1;
  states_[static_cast<size_t>(sid)] = State::kDone;
  Dispatch();
}

void EpochScheduler::AbortAll() { aborted_ = true; }

uint64_t EpochScheduler::TraceDigest() const {
  uint64_t h = Fnv1a64("interleaving");
  for (int sid : picks_) h = HashMix(h, static_cast<uint64_t>(sid) + 1);
  return h;
}

}  // namespace lego::concurrency
