#include "fuzz/backend_forked.h"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <new>
#include <thread>
#include <utility>

#include "chaos/failpoint.h"
#include "fuzz/backend_inproc.h"
#include "fuzz/state.h"
#include "persist/frame.h"
#include "persist/io.h"
#include "sql/parser.h"
#include "sql/statement_type.h"
#include "util/hash.h"

namespace lego::fuzz {
namespace {

// Request frame types (parent -> child). The child answers each request
// with one frame of the same type. Payloads are persist-encoded:
//   kReset        setup script                 -> (empty)
//   kExecute      bool want_rows, string sql   -> outcome, see DecodeOutcome
//   kOracleBegin  (empty)                      -> (empty)
//   kOracleEnd    (empty)                      -> (empty)
//   kFirstColumn  table name                   -> bool found, string column
//   kStorageStats (empty)                      -> SaveStorageStats
constexpr uint8_t kReset = 1;
constexpr uint8_t kExecute = 2;
constexpr uint8_t kOracleBegin = 3;
constexpr uint8_t kOracleEnd = 4;
constexpr uint8_t kFirstColumn = 5;
constexpr uint8_t kStorageStats = 6;

// Generous ceiling for protocol ops that run no fuzzer-chosen SQL (Reset
// runs only the trusted setup script). A child that cannot answer within
// this is treated as dead.
constexpr int kControlDeadlineMs = 10000;

// Reserved child exit code: heap exhaustion under RLIMIT_AS, converted by
// the child's new-handler into a clean exit the parent maps to "OOM".
// Distinctive on purpose — an uncaught bad_alloc would be SIGABRT and
// collide with genuine assertion failures in triage.
constexpr int kOomExitCode = 86;

// Spawn retry backoff: doubles from 1ms, capped here. Kept short — spawn
// failures are either transient (EMFILE pressure from a sibling) and clear
// quickly, or permanent and hit the circuit breaker anyway.
constexpr int kSpawnBackoffCapMs = 64;

/// The kExecute reply: u8 StmtOutcome::Status, the CrashInfo when the
/// status is kCrash, then the row count and the rendered rows (none unless
/// rows were requested). An undecodable crash becomes a REAL-PROTOCOL
/// crash; any other undecodable reply is a rejected statement.
void EncodeOutcome(const StmtOutcome& out, persist::StateWriter* w) {
  w->WriteU8(static_cast<uint8_t>(out.status));
  if (out.status == StmtOutcome::Status::kCrash) SaveCrashInfo(out.crash, w);
  w->WriteU64(out.rows.size());
  for (const std::string& row : out.rows) w->WriteString(row);
}

StmtOutcome DecodeOutcome(std::string payload) {
  persist::StateReader r = persist::StateReader::FromPayload(std::move(payload));
  StmtOutcome out;
  const auto status = static_cast<StmtOutcome::Status>(r.ReadU8());
  if (status == StmtOutcome::Status::kCrash) {
    out.status = status;
    out.crash = LoadCrashInfo(&r);
    if (!r.ok()) {
      out.crash = minidb::CrashInfo();
      out.crash.bug_id = "REAL-PROTOCOL";
      out.crash.kind = "PROTOCOL";
      out.crash.stack_hash = Fnv1a64("REAL-PROTOCOL");
    }
    return out;
  }
  if (status != StmtOutcome::Status::kOk) return out;
  const uint64_t n = r.ReadU64();
  if (r.CheckCount(n, sizeof(uint64_t))) {
    out.rows.reserve(n);
    for (uint64_t i = 0; i < n; ++i) out.rows.push_back(r.ReadString());
  }
  if (!r.ok()) return StmtOutcome();
  out.status = status;
  return out;
}

/// The wait-status → CrashInfo kind string ("SIGSEGV", "EXIT-3", ...).
std::string DeathKind(int wstatus) {
  if (WIFSIGNALED(wstatus)) {
    switch (WTERMSIG(wstatus)) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGILL: return "SIGILL";
      case SIGKILL: return "SIGKILL";
      // Resource-governor kills get their own buckets so a runaway session
      // is triaged as a resource bug, not a generic signal death.
      case SIGXCPU: return "CPU";
      case SIGXFSZ: return "FSIZE";
      default: return "SIG" + std::to_string(WTERMSIG(wstatus));
    }
  }
  if (WIFEXITED(wstatus)) {
    if (WEXITSTATUS(wstatus) == kOomExitCode) return "OOM";
    if (WEXITSTATUS(wstatus) == minidb::kStorageFailExitCode) {
      // Storage panic: the child refused to acknowledge a commit it could
      // not make durable. Own bucket so the durability oracle can claim it.
      return "STORAGE";
    }
    return "EXIT-" + std::to_string(WEXITSTATUS(wstatus));
  }
  return "UNKNOWN";
}

void IgnoreSigpipeOnce() {
  // A write to a crashed child's pipe must surface as EPIPE, not kill the
  // fuzzer. Installed once, process-wide, before the first fork.
  static const bool installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)installed;
}

}  // namespace

static_assert(std::is_trivially_copyable_v<cov::CoverageMap>,
              "coverage map is shared between processes as raw bytes");

ForkedBackend::ForkedBackend(const minidb::DialectProfile& profile,
                             const BackendOptions& options)
    : profile_(profile), options_(options), bug_engine_(profile.name) {
  IgnoreSigpipeOnce();
  void* mem = ::mmap(nullptr, sizeof(cov::CoverageMap),
                     PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                     /*fd=*/-1, /*offset=*/0);
  if (mem == MAP_FAILED) {
    // Without the coverage channel the backend cannot work; fail loudly.
    ::perror("ForkedBackend: mmap coverage map");
    ::abort();
  }
  shm_ = new (mem) cov::CoverageMap();
  Spawn();
}

ForkedBackend::~ForkedBackend() {
  KillChild();
  if (shm_ != nullptr) {
    ::munmap(shm_, sizeof(cov::CoverageMap));
    shm_ = nullptr;
  }
}

bool ForkedBackend::TrySpawn() {
  if (LEGO_FAILPOINT("backend.spawn")) return false;
  int cmd_pipe[2];
  int resp_pipe[2];
  if (::pipe(cmd_pipe) != 0) {
    return false;
  }
  if (::pipe(resp_pipe) != 0) {
    ::close(cmd_pipe[0]);
    ::close(cmd_pipe[1]);
    return false;
  }
  // A child SIGKILLed inside CoverageMap::Hit can leave a counted byte
  // whose summary bit is unset, which the child's sparse Reset would never
  // clear. Every incarnation therefore starts from an all-zero map.
  new (shm_) cov::CoverageMap();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(cmd_pipe[0]);
    ::close(cmd_pipe[1]);
    ::close(resp_pipe[0]);
    ::close(resp_pipe[1]);
    return false;
  }
  if (pid == 0) {
    // Child: keep its two protocol ends, run the server loop, never return.
    ::close(cmd_pipe[1]);
    ::close(resp_pipe[0]);
    cmd_fd_ = cmd_pipe[0];
    resp_fd_ = resp_pipe[1];
    ApplyChildLimits();
    ChildLoop();
  }
  ::close(cmd_pipe[0]);
  ::close(resp_pipe[1]);
  cmd_fd_ = cmd_pipe[1];
  resp_fd_ = resp_pipe[0];
  child_pid_ = pid;
  alive_ = true;
  ++spawn_count_;
  // A fresh child's counters start at 0: fold the last child's final poll
  // into the finished total.
  storage_finished_.Add(storage_live_);
  storage_live_ = {};
  return true;
}

void ForkedBackend::Spawn() {
  if (broken_) return;
  const int limit =
      options_.spawn_failure_limit > 0 ? options_.spawn_failure_limit : 1;
  int backoff_ms = 1;
  while (!TrySpawn()) {
    ++spawn_failures_total_;
    if (++consecutive_spawn_failures_ >= limit) {
      broken_ = true;
      std::fprintf(stderr,
                   "ForkedBackend: %d consecutive spawn failures; circuit "
                   "breaker open, backend parked\n",
                   consecutive_spawn_failures_);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = backoff_ms < kSpawnBackoffCapMs ? backoff_ms * 2
                                                 : kSpawnBackoffCapMs;
  }
  consecutive_spawn_failures_ = 0;
}

void ForkedBackend::ApplyChildLimits() {
  // Child side, between fork and the serve loop. The new-handler makes
  // heap exhaustion under RLIMIT_AS a clean, recognizable exit instead of
  // an uncaught bad_alloc (SIGABRT, which would collide with real
  // assertion deaths in triage). Installed unconditionally: a genuine host
  // OOM deserves the same bucket as a governed one.
  std::set_new_handler([] { ::_exit(kOomExitCode); });
  const auto cap = [](int resource, uint64_t soft, uint64_t hard) {
    struct rlimit rl;
    rl.rlim_cur = soft;
    rl.rlim_max = hard;
    (void)::setrlimit(resource, &rl);
  };
  if (options_.max_child_mem_mb > 0) {
    const uint64_t bytes = static_cast<uint64_t>(options_.max_child_mem_mb)
                           << 20;
    cap(RLIMIT_AS, bytes, bytes);
  }
  if (options_.max_child_cpu_s > 0) {
    // Soft < hard: the kernel delivers SIGXCPU at the soft limit (which
    // triage buckets as REAL-CPU) and only escalates to SIGKILL at the
    // hard limit if the child somehow keeps spinning.
    const uint64_t secs = static_cast<uint64_t>(options_.max_child_cpu_s);
    cap(RLIMIT_CPU, secs, secs + 2);
  }
  if (options_.max_child_fsize_mb > 0) {
    const uint64_t bytes = static_cast<uint64_t>(options_.max_child_fsize_mb)
                           << 20;
    cap(RLIMIT_FSIZE, bytes, bytes);
  }
}

void ForkedBackend::KillChild() {
  if (child_pid_ < 0) return;
  if (cmd_fd_ >= 0) ::close(cmd_fd_);
  if (resp_fd_ >= 0) ::close(resp_fd_);
  cmd_fd_ = resp_fd_ = -1;
  if (early_wait_status_.has_value()) {
    // Already reaped; the pid may have been recycled — do not signal it.
    early_wait_status_.reset();
  } else {
    ::kill(child_pid_, SIGKILL);
    int wstatus = 0;
    while (::waitpid(child_pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
  child_pid_ = -1;
  alive_ = false;
}

minidb::CrashInfo ForkedBackend::ReapAsCrash(sql::StatementType type) {
  int wstatus = 0;
  if (early_wait_status_.has_value()) {
    wstatus = *early_wait_status_;
    early_wait_status_.reset();
  } else if (child_pid_ >= 0) {
    pid_t reaped = ::waitpid(child_pid_, &wstatus, WNOHANG);
    if (reaped == 0) {
      // Pipe says dead but the process lingers (e.g. fd closed early): make
      // it true, then reap for real.
      ::kill(child_pid_, SIGKILL);
      while (::waitpid(child_pid_, &wstatus, 0) < 0 && errno == EINTR) {
      }
    }
  }
  if (cmd_fd_ >= 0) ::close(cmd_fd_);
  if (resp_fd_ >= 0) ::close(resp_fd_);
  cmd_fd_ = resp_fd_ = -1;
  child_pid_ = -1;
  alive_ = false;

  minidb::CrashInfo crash;
  crash.kind = DeathKind(wstatus);
  crash.bug_id = "REAL-" + crash.kind;
  crash.component = "minidb";
  // Derived from what we can observe of a dead process: the death kind and
  // the statement type it was executing. Stable across replays, so ddmin's
  // same-stack-hash invariant works for real crashes too.
  crash.stack_hash = HashMix(Fnv1a64(crash.kind),
                             static_cast<uint64_t>(type));
  crash.message = "child died (" + crash.kind + ") executing " +
                  std::string(sql::StatementTypeName(type));
  return crash;
}

ForkedBackend::Wait ForkedBackend::RecvMsg(int deadline_ms, uint8_t* type,
                                           std::string* payload) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms < 0 ? 0
                                                               : deadline_ms);
  persist::FrameBuffer frames;
  for (;;) {
    if (frames.Next(type, payload)) return Wait::kData;
    if (frames.Overflowed()) return Wait::kDead;  // garbage length prefix

    int tick = 50;
    if (deadline_ms >= 0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) return Wait::kTimeout;
      tick = static_cast<int>(left < tick ? left : tick);
    }
    struct pollfd pfd = {resp_fd_, POLLIN, 0};
    int rc = ::poll(&pfd, 1, tick);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Wait::kDead;
    }
    if (rc > 0 && (pfd.revents & POLLIN) != 0) {
      char chunk[4096];
      ssize_t r = ::read(resp_fd_, chunk, sizeof(chunk));
      if (r > 0) {
        frames.Append(chunk, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      return Wait::kDead;  // EOF or hard error mid-frame
    }
    if (rc > 0 && (pfd.revents & (POLLHUP | POLLERR)) != 0) {
      return Wait::kDead;
    }
    // No data this tick: notice silent deaths (a sibling worker's child may
    // hold our pipe's write end open, so EOF alone is not reliable). The
    // reap happens here; ReapAsCrash picks the status up.
    int wstatus = 0;
    if (child_pid_ >= 0 && !early_wait_status_.has_value() &&
        ::waitpid(child_pid_, &wstatus, WNOHANG) == child_pid_) {
      early_wait_status_ = wstatus;
      return Wait::kDead;
    }
  }
}

ForkedBackend::Wait ForkedBackend::RoundTrip(uint8_t type,
                                             std::string_view payload,
                                             int deadline_ms,
                                             std::string* reply) {
  if (!alive_ || !persist::SendFrame(cmd_fd_, type, payload).ok()) {
    return Wait::kDead;
  }
  uint8_t reply_type = 0;
  const Wait w = RecvMsg(deadline_ms, &reply_type, reply);
  // A reply to some other request is a child speaking garbage.
  return w == Wait::kData && reply_type != type ? Wait::kDead : w;
}

bool ForkedBackend::DurabilityArmed() const {
  return options_.storage == StorageKind::kPaged &&
         options_.durability_check && !options_.db_dir.empty();
}

std::optional<minidb::CrashInfo> ForkedBackend::ApplyDurabilityVerdict(
    minidb::CrashInfo crash) {
  if (!DurabilityArmed() ||
      (crash.kind != "SIGKILL" && crash.kind != "STORAGE")) {
    return crash;  // ineligible death: normal REAL-* handling
  }
  DurabilityVerdict verdict = dur_.CheckAfterDeath(
      profile_, minidb::Env::Posix(), options_.db_dir, options_.chaos_note);
  dur_.AbandonSession();
  if (!verdict.checked) return crash;  // uncheckable: pass the death through
  if (verdict.ok) return std::nullopt;  // invariant held: injected, not a bug
  return verdict.crash;
}

void ForkedBackend::Reset() {
  // A death that never got surfaced (e.g. the run's last statement crashed
  // under the oracle bracket) is dropped here; the next occurrence will be
  // caught on a plain Execute.
  pending_death_.reset();
  // Deaths during reset wipe/rebuild the directory mid-flight, so they are
  // never durability-checkable; the shadow restarts on a clean session.
  dur_.AbandonSession();

  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!alive_) Spawn();
    if (broken_) {
      // No child will ever come up again: report nothing (the campaign
      // parks the worker off broken(), so synthesizing a crash here would
      // only fabricate a phantom REAL-RESET bug).
      reset_failure_.reset();
      return;
    }
    std::string reply;
    const int deadline =
        options_.max_stmt_ms > 0 ? kControlDeadlineMs + options_.max_stmt_ms
                                 : kControlDeadlineMs;
    Wait w = RoundTrip(kReset, setup_script(), deadline, &reply);
    if (w == Wait::kData) {
      reset_failure_.reset();
      if (DurabilityArmed()) dur_.BeginSession(setup_script());
      return;
    }
    if (w == Wait::kTimeout) {
      KillChild();
    } else {
      (void)ReapAsCrash(sql::StatementType::kSet);
    }
  }
  // Twice in a row the child could not even reach a clean session — the
  // setup script itself must be lethal. Report it as a crash on every
  // statement instead of dying or spinning on respawns.
  minidb::CrashInfo crash;
  crash.bug_id = "REAL-RESET";
  crash.component = "minidb";
  crash.kind = "RESET";
  crash.stack_hash = Fnv1a64("REAL-RESET");
  crash.message = "forked child died or hung during session reset";
  reset_failure_ = crash;
}

StmtOutcome ForkedBackend::Execute(const sql::Statement& stmt,
                                   bool want_rows) {
  StmtOutcome out;
  if (reset_failure_.has_value()) {
    out.status = StmtOutcome::Status::kCrash;
    out.crash = *reset_failure_;
    return out;
  }
  if (pending_death_.has_value() && !in_oracle()) {
    out.status = StmtOutcome::Status::kCrash;
    out.crash = *pending_death_;
    pending_death_.reset();
    return out;
  }
  if (!alive_) {
    // Dead child with nothing to report (the crash was already surfaced):
    // remaining statements of this run are unreachable errors.
    out.status = StmtOutcome::Status::kError;
    return out;
  }

  const std::string sql_text = sql::ToSql(stmt);
  persist::StateWriter request;
  request.WriteBool(want_rows);
  request.WriteString(sql_text);
  if (DurabilityArmed()) dur_.SetInflight(sql_text);

  std::string reply;
  const int deadline = options_.max_stmt_ms > 0 ? options_.max_stmt_ms : -1;
  Wait w = RoundTrip(kExecute, request.buffer(), deadline, &reply);

  if (w == Wait::kTimeout) {
    KillChild();
    dur_.AbandonSession();  // watchdog kills stay HANG, never DUR
    minidb::CrashInfo hang;
    hang.bug_id = "HANG";
    hang.kind = "HANG";
    hang.component = "watchdog";
    hang.stack_hash =
        HashMix(Fnv1a64("HANG"), static_cast<uint64_t>(stmt.type()));
    hang.message = "statement exceeded " +
                   std::to_string(options_.max_stmt_ms) + "ms watchdog (" +
                   std::string(sql::StatementTypeName(stmt.type())) + ")";
    if (in_oracle()) {
      pending_death_ = hang;
      out.status = StmtOutcome::Status::kError;
      return out;
    }
    out.status = StmtOutcome::Status::kHang;
    out.crash = hang;
    return out;
  }
  if (w == Wait::kDead) {
    // The durability oracle adjudicates chaos-injected deaths: a SIGKILL or
    // storage panic whose recovered directory matches the acked shadow is
    // the schedule doing its job (suppressed); a mismatch is a DUR-* bug.
    std::optional<minidb::CrashInfo> crash =
        ApplyDurabilityVerdict(ReapAsCrash(stmt.type()));
    if (!crash.has_value()) {
      out.status = StmtOutcome::Status::kError;
      return out;
    }
    if (in_oracle()) {
      // Surfaced by the next non-oracle Execute so the finding isn't lost,
      // while the oracle itself just sees a no-verdict query failure.
      pending_death_ = *crash;
      out.status = StmtOutcome::Status::kError;
      return out;
    }
    out.status = StmtOutcome::Status::kCrash;
    out.crash = *crash;
    return out;
  }

  if (DurabilityArmed()) dur_.RecordAcked(sql_text);
  return DecodeOutcome(std::move(reply));
}

const cov::CoverageMap& ForkedBackend::FinishRun() {
  // The child is quiescent between requests (and after death the map holds
  // everything it reported before dying), so a plain copy is race-free. Only
  // the summary and the words it marks dirty are copied.
  run_map_.CopyDirtyFrom(*shm_);
  run_map_.ClassifyCounts();
  PollStorageStats();
  return run_map_;
}

void ForkedBackend::PollStorageStats() {
  if (options_.storage != StorageKind::kPaged || !alive_) return;
  std::string reply;
  if (RoundTrip(kStorageStats, "", kControlDeadlineMs, &reply) !=
      Wait::kData) {
    return;  // dead child: its last poll stands
  }
  persist::StateReader r =
      persist::StateReader::FromPayload(std::move(reply));
  const BackendStorageStats polled = LoadStorageStats(&r);
  if (r.ok()) storage_live_ = polled;
}

BackendStorageStats ForkedBackend::storage_stats() {
  PollStorageStats();
  BackendStorageStats total = storage_finished_;
  total.Add(storage_live_);
  return total;
}

std::optional<std::string> ForkedBackend::FirstColumnOf(
    const std::string& table) {
  std::string reply;
  if (RoundTrip(kFirstColumn, table, kControlDeadlineMs, &reply) !=
      Wait::kData) {
    return std::nullopt;
  }
  persist::StateReader r =
      persist::StateReader::FromPayload(std::move(reply));
  const bool found = r.ReadBool();
  std::string column = r.ReadString();
  if (!r.ok() || !found) return std::nullopt;
  return column;
}

void ForkedBackend::DoSnapshotForOracle() {
  std::string reply;
  (void)RoundTrip(kOracleBegin, "", kControlDeadlineMs, &reply);
}

void ForkedBackend::DoRestoreForOracle() {
  std::string reply;
  (void)RoundTrip(kOracleEnd, "", kControlDeadlineMs, &reply);
}

// ---------------------------------------------------------------------------
// Child side: serves one InProcessBackend, one request per frame.
// ---------------------------------------------------------------------------

void ForkedBackend::ChildLoop() {
  // The engine path is the in-process one; its probes write the shared map
  // so the parent sees coverage even if the child dies.
  InProcessBackend server(profile_, options_, shm_);
  for (;;) {
    uint8_t type = 0;
    std::string payload;
    if (!persist::RecvFrame(cmd_fd_, &type, &payload).ok()) {
      _exit(0);  // parent went away: clean shutdown
    }
    persist::StateWriter reply;
    switch (type) {
      case kReset:
        server.set_setup_script(std::move(payload));
        server.Reset();
        break;
      case kExecute: {
        persist::StateReader request =
            persist::StateReader::FromPayload(std::move(payload));
        const bool want_rows = request.ReadBool();
        auto stmts = sql::Parser::ParseScript(request.ReadString() + ";");
        StmtOutcome out;  // rejected unless it parses
        if (request.ok() && stmts.ok() && !stmts->empty()) {
          // A real defect below this line kills us mid-statement — that
          // *is* the feature: the parent maps our death into a CrashInfo.
          out = server.Execute(*(*stmts)[0], want_rows);
        }
        EncodeOutcome(out, &reply);
        break;
      }
      case kOracleBegin:
        server.SnapshotForOracle();
        break;
      case kOracleEnd:
        server.RestoreForOracle();
        break;
      case kFirstColumn: {
        const std::optional<std::string> column = server.FirstColumnOf(payload);
        reply.WriteBool(column.has_value());
        reply.WriteString(column.value_or(""));
        break;
      }
      case kStorageStats:
        SaveStorageStats(server.storage_stats(), &reply);
        break;
      default:
        break;
    }
    if (!persist::SendFrame(resp_fd_, type, reply.buffer()).ok()) _exit(0);
  }
}

}  // namespace lego::fuzz
