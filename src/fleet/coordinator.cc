#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "chaos/failpoint.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/protocol.h"
#include "fleet/shard.h"
#include "fleet/status_json.h"
#include "fleet/worker.h"
#include "fuzz/distill.h"
#include "minidb/env.h"
#include "triage/triage.h"
#include "util/hash.h"

namespace lego::fleet {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One worker slot: a process incarnation plus its lease bookkeeping. The
/// slot survives its process — strikes, backoff, and quarantine are
/// per-slot, so a respawned incarnation inherits its slot's record.
struct Slot {
  enum class State {
    kStarting,     // forked, waiting for hello
    kIdle,         // ready for a lease
    kLeased,       // fuzzing a shard
    kDead,         // process gone, respawn scheduled
    kQuarantined,  // circuit open: no more respawns
    kFinished,     // exited cleanly after shutdown
  };
  State state = State::kDead;
  pid_t pid = -1;
  int cmd_fd = -1;   // coordinator -> worker
  int resp_fd = -1;  // worker -> coordinator
  FrameBuffer frames;
  bool eof = false;
  bool shutdown_sent = false;
  int strikes = 0;
  int shard = -1;  // leased shard, -1 when none
  Clock::time_point lease_start;
  Clock::time_point last_heartbeat;
  Clock::time_point respawn_at;
  int64_t lease_execs = 0;
};

const char* StateName(Slot::State s) {
  switch (s) {
    case Slot::State::kStarting:
      return "starting";
    case Slot::State::kIdle:
      return "idle";
    case Slot::State::kLeased:
      return "leased";
    case Slot::State::kDead:
      return "dead";
    case Slot::State::kQuarantined:
      return "quarantined";
    case Slot::State::kFinished:
      return "finished";
  }
  return "?";
}

struct PendingShard {
  int id = 0;
  int attempts = 0;
  Clock::time_point available_at;
};

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

Status EnsureDir(const std::string& path) {
  // CreateDir is single-level; walk the components so a fresh --fleet-dir
  // nested under a scratch root just works.
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t next = path.find('/', pos);
    if (next == std::string::npos) next = path.size();
    prefix = path.substr(0, next);
    if (!prefix.empty() && prefix != "/" && prefix != ".") {
      Status st = minidb::Env::Posix()->CreateDir(prefix);
      if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
    }
    pos = next + 1;
  }
  return Status::OK();
}

std::string HostName() {
  char host[256];
  if (::gethostname(host, sizeof(host)) != 0) return "unknown";
  host[sizeof(host) - 1] = '\0';
  return host;
}

/// Origin stamp for a finding collected from worker `slot`: the *worker's*
/// pid, not the coordinator's (same layout as triage::OriginString).
std::string WorkerOrigin(int slot, pid_t pid,
                         const fuzz::BackendOptions& backend) {
  return "w" + std::to_string(slot) + "@" + HostName() + ":" +
         std::to_string(static_cast<long>(pid)) + "/" +
         std::string(fuzz::BackendKindName(backend.kind)) + "/" +
         std::string(fuzz::StorageKindName(backend.storage));
}

/// The whole coordinator, single-threaded: one poll loop owns every pipe,
/// the shard queue, the journal, and the status file, so there is no state
/// to lock and a crash at any instant leaves only the journal to reason
/// about.
class Coordinator {
 public:
  explicit Coordinator(const FleetOptions& options)
      : options_(options), config_(options.config) {}

  FleetResult Run() {
    start_ = Clock::now();
    result_.shards_total = config_.num_shards;
    signal(SIGPIPE, SIG_IGN);

    Status st = Setup();
    if (!st.ok()) {
      result_.status = st;
      result_.elapsed_seconds = SecondsSince(start_);
      return std::move(result_);
    }

    slots_.resize(static_cast<size_t>(options_.num_workers));
    for (int s = 0; s < options_.num_workers; ++s) Spawn(s);

    while (true) {
      if (!draining_ && options_.stop_flag != nullptr &&
          options_.stop_flag->load(std::memory_order_relaxed)) {
        BeginDrain();
      }
      Reap();
      ExpireLeases();
      RespawnDue();
      GrantLeases();
      PollPipes();
      MaybeWriteStatus(false);
      if (Finished()) break;
    }

    Teardown();
    result_.elapsed_seconds = SecondsSince(start_);
    MaybeWriteStatus(true);
    if (options_.triage) RunTriage();
    return std::move(result_);
  }

 private:
  Status Setup() {
    if (options_.fleet_dir.empty()) {
      return Status::InvalidArgument("fleet: fleet_dir is required");
    }
    if (config_.num_shards <= 0 || config_.shard_budget <= 0 ||
        options_.num_workers <= 0) {
      return Status::InvalidArgument(
          "fleet: shards, budget, and workers must be positive");
    }
    // Reject what every worker would fail on before one is forked: a bad
    // campaign would otherwise burn every slot's strikes. Only the check:
    // a forked backend would fork its child while a harness is built.
    LEGO_RETURN_IF_ERROR(CheckCampaign(config_));
    LEGO_RETURN_IF_ERROR(EnsureDir(options_.fleet_dir));

    if (options_.resume) {
      Status load = LoadJournal(options_.fleet_dir, config_, &result_);
      if (load.ok()) {
        result_.resumed = true;
        Log("resumed: %zu/%d shards done, %zu crashes, %zu logic bugs",
            result_.shards_done.size(), config_.num_shards,
            result_.crashes.size(), result_.logic.size());
      } else if (load.code() != StatusCode::kNotFound) {
        return load;
      }
    }

    for (int shard = 0; shard < config_.num_shards; ++shard) {
      if (result_.shards_done.count(shard) == 0) {
        queue_.push_back({shard, 0, Clock::now()});
      }
    }
    pool_bytes_ = EncodePool(result_.corpus);

    // Durable zero-state marker: after this, *every* coordinator state on
    // disk — including "nothing accepted yet" — is a valid resume point. On
    // a resume it also folds the replayed records into one snapshot.
    Wrote(Snapshot());
    return Status::OK();
  }

  void Log(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    if (!options_.verbose) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "fleet: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  /// The journaled state as of now, for telling whether the last
  /// successful write still holds it: an acceptance grows shards_done, and
  /// the other journaled counters change only through these.
  std::array<int64_t, 5> JournalMark() const {
    return {static_cast<int64_t>(result_.shards_done.size()),
            result_.shards_requeued, result_.leases_expired,
            result_.results_rejected, result_.duplicate_results};
  }

  /// Rewrites the whole journal as one snapshot.
  Status Snapshot() {
    return SaveJournal(options_.fleet_dir, config_, result_);
  }

  /// Books a journal write. A failed write may leave a torn record behind,
  /// so the next write must be a snapshot, which replaces the file.
  void Wrote(const Status& st) {
    snapshot_due_ = !st.ok();
    if (st.ok()) {
      journaled_ = JournalMark();
      return;
    }
    ++result_.journal_failures;
    std::fprintf(stderr, "fleet: journal write failed (continuing): %s\n",
                 st.ToString().c_str());
  }

  void FinalJournal() {
    if (!snapshot_due_ && journaled_ == JournalMark()) return;  // on disk
    // Mirror the campaign's end-of-run persistence contract: the final
    // journal retries through transient (chaos-injected) failures.
    constexpr int kAttempts = 8;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
      Status st = Snapshot();
      if (st.ok()) return;
      if (attempt + 1 == kAttempts) {
        ++result_.journal_failures;
        std::fprintf(stderr, "fleet: final journal failed after %d tries: %s\n",
                     kAttempts, st.ToString().c_str());
      }
    }
  }

  void Spawn(int s) {
    Slot& slot = slots_[static_cast<size_t>(s)];
    if (slot.state == Slot::State::kQuarantined) return;
    int cmd[2], resp[2];
    if (::pipe(cmd) != 0 || ::pipe(resp) != 0) {
      slot.state = Slot::State::kDead;
      slot.respawn_at = Clock::now() + std::chrono::milliseconds(
                                           options_.respawn_backoff_ms);
      return;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(cmd[0]);
      ::close(cmd[1]);
      ::close(resp[0]);
      ::close(resp[1]);
      slot.state = Slot::State::kDead;
      slot.respawn_at = Clock::now() + std::chrono::milliseconds(
                                           options_.respawn_backoff_ms);
      return;
    }
    if (pid == 0) {
      // Child: drop every coordinator-side fd — ours and every other
      // slot's. A leaked pipe end would keep EOF from ever reaching the
      // coordinator when that slot's worker dies.
      for (Slot& other : slots_) {
        if (other.cmd_fd >= 0) ::close(other.cmd_fd);
        if (other.resp_fd >= 0) ::close(other.resp_fd);
      }
      ::close(cmd[1]);
      ::close(resp[0]);
      WorkerContext ctx;
      ctx.config = config_;
      ctx.slot = s;
      ctx.cmd_fd = cmd[0];
      ctx.resp_fd = resp[1];
      for (const auto& [target_slot, spec] : options_.worker_chaos) {
        if (target_slot == s || target_slot < 0) ctx.chaos_specs.push_back(spec);
      }
      ctx.chaos_seed = config_.base_seed;
      _exit(WorkerMain(ctx));
    }
    ::close(cmd[0]);
    ::close(resp[1]);
    int flags = ::fcntl(resp[0], F_GETFL, 0);
    ::fcntl(resp[0], F_SETFL, flags | O_NONBLOCK);
    slot.pid = pid;
    slot.cmd_fd = cmd[1];
    slot.resp_fd = resp[0];
    slot.frames = FrameBuffer();
    slot.eof = false;
    slot.shutdown_sent = false;
    slot.state = Slot::State::kStarting;
    slot.shard = -1;
    ++result_.workers_spawned;
    Log("spawned worker w%d (pid %ld, strike %d)", s,
        static_cast<long>(pid), slot.strikes);
  }

  void Requeue(int shard, bool count) {
    // Re-queued shards back off a little so a hot failure loop (worker dies
    // instantly on grant) does not spin the queue.
    PendingShard p;
    p.id = shard;
    p.available_at =
        Clock::now() + std::chrono::milliseconds(options_.respawn_backoff_ms);
    queue_.push_back(p);
    if (count) ++result_.shards_requeued;
  }

  /// One strike against a slot: reclaim its lease, kill the incarnation,
  /// then either schedule a backed-off respawn or open the circuit.
  void Strike(int s, const char* why) {
    Slot& slot = slots_[static_cast<size_t>(s)];
    ++slot.strikes;
    Log("worker w%d strike %d/%d: %s", s, slot.strikes, options_.strike_limit,
        why);
    if (slot.shard >= 0) {
      Requeue(slot.shard, true);
      slot.shard = -1;
    }
    if (slot.pid > 0) {
      ::kill(slot.pid, SIGKILL);
      int ws = 0;
      ::waitpid(slot.pid, &ws, 0);
      slot.pid = -1;
    }
    CloseFd(&slot.cmd_fd);
    CloseFd(&slot.resp_fd);
    slot.frames = FrameBuffer();
    slot.eof = false;
    if (slot.strikes >= options_.strike_limit) {
      slot.state = Slot::State::kQuarantined;
      ++result_.workers_quarantined;
      Log("worker w%d quarantined", s);
    } else {
      slot.state = Slot::State::kDead;
      const int shift = std::min(slot.strikes, 5);
      slot.respawn_at =
          Clock::now() +
          std::chrono::milliseconds(options_.respawn_backoff_ms << shift);
    }
  }

  void Reap() {
    while (true) {
      int ws = 0;
      pid_t pid = ::waitpid(-1, &ws, WNOHANG);
      if (pid <= 0) break;
      for (size_t s = 0; s < slots_.size(); ++s) {
        Slot& slot = slots_[s];
        if (slot.pid != pid) continue;
        slot.pid = -1;
        if (slot.shutdown_sent || slot.state == Slot::State::kFinished ||
            (draining_ && slot.shard < 0)) {
          CloseFd(&slot.cmd_fd);
          CloseFd(&slot.resp_fd);
          slot.state = Slot::State::kFinished;
        } else {
          // Drain any result the worker managed to flush before dying —
          // otherwise a clean result racing the exit would be lost.
          DrainPipe(static_cast<int>(s));
          ProcessFrames(static_cast<int>(s));
          if (slot.state == Slot::State::kLeased ||
              slot.state == Slot::State::kStarting ||
              slot.state == Slot::State::kIdle) {
            Strike(static_cast<int>(s), WIFSIGNALED(ws) ? "worker killed"
                                                        : "worker exited");
          }
        }
        break;
      }
    }
  }

  void ExpireLeases() {
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.state != Slot::State::kLeased) continue;
      if (MsBetween(slot.last_heartbeat, Clock::now()) >
          options_.lease_deadline_ms) {
        ++result_.leases_expired;
        Strike(static_cast<int>(s), "lease expired (no heartbeat)");
      }
    }
  }

  void RespawnDue() {
    if (draining_) return;
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.state == Slot::State::kDead && Clock::now() >= slot.respawn_at) {
        Spawn(static_cast<int>(s));
      }
    }
  }

  /// The lease gate: shard s imports the pool distilled from every shard of
  /// the generations before s / distill_every, so it may be leased only once
  /// all of those shards are absorbed.
  bool PoolReadyFor(int shard) const {
    const int every = config_.distill_every;
    return every <= 0 || shard / every * every <= result_.absorbed_shards();
  }

  void GrantLeases() {
    if (draining_) return;
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      // A reaped slot may still read idle while Reap drains its last
      // result; it gets no lease.
      if (slot.state != Slot::State::kIdle || slot.pid <= 0) continue;
      // Lowest available shard id first, among those whose pool exists.
      int best = -1;
      for (size_t q = 0; q < queue_.size(); ++q) {
        if (queue_[q].available_at > Clock::now()) continue;
        if (!PoolReadyFor(queue_[q].id)) continue;
        if (best < 0 || queue_[q].id < queue_[static_cast<size_t>(best)].id) {
          best = static_cast<int>(q);
        }
      }
      if (best < 0) continue;
      if (LEGO_FAILPOINT("fleet.lease_grant")) {
        // Grant deferred one tick: models a control plane that is slow, not
        // wrong — the shard stays queued and nothing is lost.
        ++result_.lease_grants_deferred;
        continue;
      }
      const int shard = queue_[static_cast<size_t>(best)].id;
      queue_.erase(queue_.begin() + best);
      std::string payload;
      AppendU32(&payload, static_cast<uint32_t>(shard));
      payload += pool_bytes_;
      if (!SendFrame(slot.cmd_fd, MsgType::kLeaseGrant, payload).ok()) {
        Requeue(shard, true);
        Strike(static_cast<int>(s), "lease grant write failed");
        continue;
      }
      slot.state = Slot::State::kLeased;
      slot.shard = shard;
      slot.lease_start = slot.last_heartbeat = Clock::now();
      slot.lease_execs = 0;
      Log("leased shard %d to w%zu (budget %d)", shard, s,
          config_.shard_budget);
    }
  }

  void DrainPipe(int s) {
    Slot& slot = slots_[static_cast<size_t>(s)];
    if (slot.resp_fd < 0 || slot.eof) return;
    char buf[65536];
    while (true) {
      ssize_t r = ::read(slot.resp_fd, buf, sizeof(buf));
      if (r > 0) {
        slot.frames.Append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r == 0) {
        slot.eof = true;
        return;
      }
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained for now
    }
  }

  void PollPipes() {
    std::vector<pollfd> fds;
    std::vector<int> fd_slots;
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.resp_fd < 0 || slot.eof) continue;
      fds.push_back({slot.resp_fd, POLLIN, 0});
      fd_slots.push_back(static_cast<int>(s));
    }
    if (fds.empty()) {
      ::usleep(10 * 1000);
      return;
    }
    int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc <= 0) return;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      DrainPipe(fd_slots[i]);
      ProcessFrames(fd_slots[i]);
    }
  }

  void ProcessFrames(int s) {
    Slot& slot = slots_[static_cast<size_t>(s)];
    uint8_t type = 0;
    std::string payload;
    while (slot.state != Slot::State::kQuarantined &&
           slot.state != Slot::State::kDead &&
           slot.frames.Next(&type, &payload)) {
      switch (static_cast<MsgType>(type)) {
        case MsgType::kHello:
          if (slot.state == Slot::State::kStarting) {
            slot.state = Slot::State::kIdle;
          }
          break;
        case MsgType::kHeartbeat:
          if (slot.state == Slot::State::kLeased &&
              static_cast<int>(ReadU32(payload, 0)) == slot.shard) {
            slot.last_heartbeat = Clock::now();
            slot.lease_execs = static_cast<int64_t>(ReadU64(payload, 4));
          }
          break;
        case MsgType::kResult:
          HandleResult(s, payload);
          break;
        default:
          Strike(s, "unknown frame type");
          return;
      }
    }
    if (slot.frames.Overflowed()) {
      ++result_.results_rejected;
      Strike(s, "frame buffer overflow (corrupt length)");
    }
  }

  void HandleResult(int s, const std::string& payload) {
    Slot& slot = slots_[static_cast<size_t>(s)];
    const int shard = static_cast<int>(ReadU32(payload, 0));
    const std::string envelope = payload.substr(4);

    // Validation ladder: envelope checksum first (cheap, catches torn and
    // poisoned bytes), then the structural decode. A bad result is a strike
    // — the shard is re-queued, coordinator state untouched.
    Status probe = persist::ProbeEnvelope(envelope);
    if (!probe.ok()) {
      ++result_.results_rejected;
      Strike(s, "result envelope rejected");
      Log("  reject detail: %s", probe.ToString().c_str());
      return;
    }
    auto outcome = DecodeShardOutcome(envelope);
    if (!outcome.ok() || outcome->shard_id != shard) {
      ++result_.results_rejected;
      Strike(s, "result payload rejected");
      return;
    }

    slot.shard = -1;
    slot.state = Slot::State::kIdle;

    if (!outcome->complete) {
      // Drained partial shard: discard and re-run whole. Merged state stays
      // "union of complete shards", which is what makes kill/resume equality
      // exact rather than approximate.
      Requeue(shard, true);
      Log("shard %d partial (drained after %d execs); re-queued", shard,
          outcome->result.executions);
      return;
    }
    if (result_.shards_done.count(shard) != 0) {
      ++result_.duplicate_results;
      Log("shard %d duplicate result ignored", shard);
      return;
    }

    // The slot is idle again: hand it (and any other idle slot) its next
    // lease before the bookkeeping below, which footprints the exports and
    // journals the result. The result is not in shards_done yet, so
    // PoolReadyFor still judges by the pool as it was. The origin is taken
    // first because a failed grant strikes the slot and clears its pid.
    const std::string origin = WorkerOrigin(s, slot.pid, config_.backend);
    GrantLeases();
    const int execs = outcome->result.executions;
    const int cycles = result_.distill_cycles;
    Status pool_st = AcceptShard(config_, std::move(*outcome), origin,
                                 &result_, &footprints_);
    if (!pool_st.ok()) {
      std::fprintf(stderr, "fleet: distill failed (pool unchanged): %s\n",
                   pool_st.ToString().c_str());
    }
    Log("shard %d done by w%d: %d execs, %zu edges total, %zu crashes", shard,
        s, execs, result_.edges(), result_.crashes.size());

    const bool distilled = result_.distill_cycles != cycles;
    if (distilled) {
      pool_bytes_ = EncodePool(result_.corpus);
      // The distill blocked the loop; forgive every in-flight lease's
      // heartbeat deadline for the time we stole.
      for (Slot& other : slots_) {
        if (other.state == Slot::State::kLeased) {
          other.last_heartbeat = Clock::now();
        }
      }
      Log("distill cycle %d: pool %zu cases", result_.distill_cycles,
          result_.corpus.size());
    }

    // A record never spans a distill, so replaying one runs no case.
    if (distilled || snapshot_due_) {
      Wrote(Snapshot());
    } else {
      Wrote(AppendJournal(options_.fleet_dir, shard, envelope, origin,
                          result_));
    }
  }

  void BeginDrain() {
    draining_ = true;
    drain_deadline_ = Clock::now() + std::chrono::seconds(10);
    Log("drain: stop requested");
    for (size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (slot.state == Slot::State::kLeased && slot.pid > 0) {
        ::kill(slot.pid, SIGTERM);  // worker ships a partial result and exits
      } else if (slot.state == Slot::State::kIdle ||
                 slot.state == Slot::State::kStarting) {
        if (slot.cmd_fd >= 0) {
          (void)SendFrame(slot.cmd_fd, MsgType::kShutdown, "");
        }
        slot.shutdown_sent = true;
      }
    }
  }

  bool Finished() {
    if (static_cast<int>(result_.shards_done.size()) == config_.num_shards) {
      return true;
    }
    if (draining_) {
      bool in_flight = false;
      for (const Slot& slot : slots_) {
        if (slot.state == Slot::State::kLeased ||
            (slot.pid > 0 && !slot.shutdown_sent)) {
          in_flight = true;
        }
      }
      if (!in_flight || Clock::now() >= drain_deadline_) {
        result_.stopped_early = true;
        return true;
      }
      return false;
    }
    // Graceful degradation: every slot's circuit open with work pending.
    bool any_alive = false;
    for (const Slot& slot : slots_) {
      if (slot.state != Slot::State::kQuarantined) any_alive = true;
    }
    if (!any_alive) {
      result_.degraded = true;
      return true;
    }
    return false;
  }

  void Teardown() {
    // Politely shut down whoever is left, then make sure of it.
    for (Slot& slot : slots_) {
      if (slot.cmd_fd >= 0 && slot.pid > 0) {
        (void)SendFrame(slot.cmd_fd, MsgType::kShutdown, "");
        slot.shutdown_sent = true;
      }
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(5);
    for (Slot& slot : slots_) {
      while (slot.pid > 0) {
        int ws = 0;
        pid_t pid = ::waitpid(slot.pid, &ws, WNOHANG);
        if (pid == slot.pid || pid < 0) {
          slot.pid = -1;
          break;
        }
        if (Clock::now() >= deadline) {
          ::kill(slot.pid, SIGKILL);
          ::waitpid(slot.pid, &ws, 0);
          slot.pid = -1;
          break;
        }
        ::usleep(5 * 1000);
      }
      if (slot.state == Slot::State::kLeased && slot.shard >= 0) {
        Requeue(slot.shard, true);
        slot.shard = -1;
      }
      CloseFd(&slot.cmd_fd);
      CloseFd(&slot.resp_fd);
    }
    FinalJournal();
  }

  void MaybeWriteStatus(bool force) {
    const double since_ms = MsBetween(last_status_, Clock::now());
    if (!force && since_ms < options_.status_every_ms) return;
    last_status_ = Clock::now();
    std::vector<WorkerStatus> workers;
    for (size_t s = 0; s < slots_.size(); ++s) {
      const Slot& slot = slots_[s];
      WorkerStatus w;
      w.slot = static_cast<int>(s);
      w.state = StateName(slot.state);
      w.pid = slot.pid;
      w.shard = slot.shard;
      w.strikes = slot.strikes;
      if (slot.state == Slot::State::kLeased) {
        w.lease_age_s = SecondsSince(slot.lease_start);
        w.heartbeat_age_s = SecondsSince(slot.last_heartbeat);
      }
      workers.push_back(std::move(w));
    }
    const double elapsed = SecondsSince(start_);
    const double rate =
        elapsed > 0 ? static_cast<double>(result_.executions) / elapsed : 0.0;
    (void)WriteStatusFile(options_.fleet_dir,
                          RenderStatusJson(result_, workers, elapsed, rate));
  }

  void RunTriage() {
    const minidb::DialectProfile* profile =
        minidb::DialectProfile::ByName(config_.profile);
    if (profile == nullptr) return;
    fuzz::CampaignResult campaign;
    campaign.fuzzer = config_.fuzzer;
    campaign.profile = config_.profile;
    for (const auto& [hash, crash] : result_.crashes) {
      campaign.crash_hashes.insert(hash);
      campaign.bug_ids.insert(crash.bug_id);
      campaign.captured_crashes.push_back(crash);
      campaign.captured_cases.push_back(result_.crash_cases.at(hash).Clone());
    }
    for (const auto& [fp, bug] : result_.logic) {
      campaign.logic_fingerprints.insert(fp);
      campaign.captured_logic_bugs.push_back(bug);
      campaign.captured_logic_cases.push_back(
          result_.logic_cases.at(fp).Clone());
    }
    triage::TriageOptions topt;
    topt.reduce = options_.reduce;
    topt.repro_dir = options_.fleet_dir + "/repro";
    topt.backend = config_.backend;
    if (!topt.backend.db_dir.empty()) topt.backend.db_dir += "/triage";
    topt.campaign_seed = config_.base_seed;
    topt.origin = triage::OriginString("fleet", config_.backend);
    topt.crash_origins = result_.crash_origins;
    topt.logic_origins = result_.logic_origins;
    triage::TriageReport report =
        triage::TriageCampaign(campaign, *profile, "", topt);
    result_.triaged_bugs = static_cast<int>(report.bugs.size());
    Log("triage: %zu unique bugs into %s", report.bugs.size(),
        topt.repro_dir.c_str());
  }

  FleetOptions options_;
  FleetConfig config_;
  FleetResult result_;
  std::vector<Slot> slots_;
  std::vector<PendingShard> queue_;
  std::string pool_bytes_;
  PoolFootprints footprints_;  // of result_.corpus and corpus_pending
  /// JournalMark() at the last successful journal write.
  std::array<int64_t, 5> journaled_{};
  bool snapshot_due_ = true;
  bool draining_ = false;
  Clock::time_point start_;
  Clock::time_point drain_deadline_;
  Clock::time_point last_status_ = Clock::now() - std::chrono::hours(1);
};

/// Footprints the cases of `cases` past the prefix `footprints` covers.
void FootprintMissing(const std::vector<fuzz::TestCase>& cases,
                      std::vector<fuzz::CaseFootprint>* footprints,
                      fuzz::ExecutionHarness* harness) {
  for (size_t i = footprints->size(); i < cases.size(); ++i) {
    footprints->push_back(fuzz::FootprintCase(cases[i], harness));
  }
}

}  // namespace

Status UpdatePool(const FleetConfig& config, int completed_shards,
                  std::vector<fuzz::TestCase> fresh,
                  std::vector<fuzz::TestCase>* pool,
                  std::vector<fuzz::TestCase>* pending, int* distill_cycles,
                  double* distill_seconds, PoolFootprints* footprints) {
  for (auto& tc : fresh) pending->push_back(std::move(tc));
  const int every = config.distill_every;
  if (every <= 0 || completed_shards == 0) return Status::OK();
  const bool boundary = completed_shards % every == 0;
  PoolFootprints call_local;
  if (footprints == nullptr) {
    // A cache that dies with the call is worth filling only at a boundary.
    if (!boundary) return Status::OK();
    footprints = &call_local;
  } else if (!boundary &&
             (completed_shards / every + 1) * every > config.num_shards) {
    return Status::OK();  // no later boundary will distill these exports
  }
  if (boundary && pending->empty()) return Status::OK();
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(config.profile);
  if (profile == nullptr) {
    return Status::InvalidArgument("fleet: unknown profile '" +
                                   config.profile + "'");
  }

  const Clock::time_point t0 = Clock::now();
  if (footprints->harness == nullptr) {
    footprints->harness = std::make_unique<fuzz::ExecutionHarness>(
        *profile, fuzz::BackendOptions{});
  }
  fuzz::ExecutionHarness* harness = footprints->harness.get();
  FootprintMissing(*pool, &footprints->pool, harness);
  FootprintMissing(*pending, &footprints->pending, harness);
  if (boundary) {
    std::vector<fuzz::TestCase> merged = std::move(*pool);
    std::vector<fuzz::CaseFootprint> merged_fps = std::move(footprints->pool);
    for (auto& tc : *pending) merged.push_back(std::move(tc));
    for (auto& fp : footprints->pending) merged_fps.push_back(std::move(fp));
    pool->clear();
    pending->clear();
    footprints->pool.clear();
    footprints->pending.clear();
    for (size_t i : fuzz::GreedyCover(merged_fps, nullptr)) {
      pool->push_back(std::move(merged[i]));
      footprints->pool.push_back(std::move(merged_fps[i]));
    }
    ++*distill_cycles;
  }
  *distill_seconds += SecondsSince(t0);
  return Status::OK();
}

Status AcceptShard(const FleetConfig& config, ShardOutcome outcome,
                   const std::string& origin, FleetResult* result,
                   PoolFootprints* footprints) {
  fuzz::CampaignResult& r = outcome.result;
  const int shard = outcome.shard_id;
  result->executions += r.executions;
  result->statements_executed += r.statements_executed;
  result->statement_errors += r.statement_errors;
  result->crashes_total += r.crashes_total;
  result->logic_bugs_total += r.logic_bugs_total;
  result->rules = std::max(result->rules, r.rules);
  result->coverage.MergeFrom(outcome.coverage);
  result->storage.Add(r.storage);
  // The capture for a finding is the lowest shard id's, so it does not
  // depend on which shard completed first.
  for (size_t i = 0; i < r.captured_crashes.size(); ++i) {
    const uint64_t hash = r.captured_crashes[i].stack_hash;
    auto held = result->crash_shards.find(hash);
    if (held != result->crash_shards.end() && held->second <= shard) continue;
    result->crashes[hash] = r.captured_crashes[i];
    result->crash_cases.insert_or_assign(hash,
                                         std::move(r.captured_cases[i]));
    result->crash_origins[hash] = origin;
    result->crash_shards[hash] = shard;
  }
  for (size_t i = 0; i < r.captured_logic_bugs.size(); ++i) {
    const uint64_t fp = r.captured_logic_bugs[i].fingerprint;
    auto held = result->logic_shards.find(fp);
    if (held != result->logic_shards.end() && held->second <= shard) continue;
    result->logic[fp] = r.captured_logic_bugs[i];
    result->logic_cases.insert_or_assign(fp,
                                         std::move(r.captured_logic_cases[i]));
    result->logic_origins[fp] = origin;
    result->logic_shards[fp] = shard;
  }
  result->shards_done.insert(shard);
  result->held_exports[shard] = std::move(r.corpus_export);

  // Exports enter the pool in shard-id order, whatever order shards
  // complete in: absorb the held prefix that is now contiguous.
  Status status;
  while (!result->held_exports.empty() &&
         result->held_exports.begin()->first == result->absorbed_shards()) {
    auto next = result->held_exports.begin();
    const int absorbed = next->first + 1;
    std::vector<fuzz::TestCase> exports = std::move(next->second);
    result->held_exports.erase(next);
    Status st = UpdatePool(config, absorbed, std::move(exports),
                           &result->corpus, &result->corpus_pending,
                           &result->distill_cycles, &result->distill_seconds,
                           footprints);
    if (status.ok()) status = st;
  }
  return status;
}

uint64_t BugDigest(const std::set<uint64_t>& crash_hashes,
                   const std::set<uint64_t>& logic_fingerprints) {
  uint64_t digest = 0xf1ee7ULL;
  for (uint64_t h : crash_hashes) digest = HashMix(digest, h);
  digest = HashMix(digest, 0x10916);
  for (uint64_t f : logic_fingerprints) digest = HashMix(digest, f);
  return digest;
}

uint64_t FleetResult::corpus_digest() const {
  uint64_t digest = 0xc07905ULL;
  for (const fuzz::TestCase& tc : corpus) {
    digest = HashMix(digest, Fnv1a64(tc.ToSql()));
  }
  for (const fuzz::TestCase& tc : corpus_pending) {
    digest = HashMix(digest, Fnv1a64(tc.ToSql()));
  }
  return digest;
}

std::set<std::string> FleetResult::merged_bug_ids() const {
  std::set<std::string> out = bug_ids();
  for (const auto& [fp, bug] : logic) out.insert(triage::LogicBugId(bug.check));
  return out;
}

FleetResult RunFleet(const FleetOptions& options) {
  Coordinator coordinator(options);
  return coordinator.Run();
}

}  // namespace lego::fleet
