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
#include <cstring>
#include <new>
#include <thread>
#include <utility>

#include "chaos/failpoint.h"
#include "minidb/storage_engine.h"
#include "sql/parser.h"
#include "sql/statement_type.h"
#include "util/hash.h"

namespace lego::fuzz {
namespace {

// Request frame types (parent -> child).
constexpr uint8_t kReqReset = 1;     // payload: setup script
constexpr uint8_t kReqExecute = 2;   // payload: [u8 want_rows][sql text]
constexpr uint8_t kReqOracleBegin = 3;
constexpr uint8_t kReqOracleEnd = 4;
constexpr uint8_t kReqFirstCol = 5;  // payload: table name
constexpr uint8_t kReqStorageStats = 6;

// Response codes (child -> parent).
constexpr uint8_t kRespOk = 0;     // Execute-ok payload: encoded rows
constexpr uint8_t kRespError = 1;  // statement rejected
constexpr uint8_t kRespCrash = 2;  // payload: encoded CrashInfo (synthetic)
constexpr uint8_t kRespCol = 3;    // payload: [u8 found][column name]
constexpr uint8_t kRespStats = 4;  // payload: 10 x u64, see EncodeStorageStats

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

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little reader over a response payload.
class Reader {
 public:
  explicit Reader(const std::string& buf) : buf_(buf) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n) || buf_.size() - pos_ < n) return false;
    s->assign(buf_, pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool Raw(void* out, size_t n) {
    if (buf_.size() - pos_ < n) return false;
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::string& buf_;
  size_t pos_ = 0;
};

void EncodeCrash(std::string* out, const minidb::CrashInfo& crash) {
  PutU64(out, crash.stack_hash);
  PutStr(out, crash.bug_id);
  PutStr(out, crash.component);
  PutStr(out, crash.kind);
  PutStr(out, crash.message);
}

bool DecodeCrash(const std::string& payload, minidb::CrashInfo* crash) {
  Reader r(payload);
  return r.U64(&crash->stack_hash) && r.Str(&crash->bug_id) &&
         r.Str(&crash->component) && r.Str(&crash->kind) &&
         r.Str(&crash->message);
}

void EncodeStorageStats(std::string* out, const BackendStorageStats& s) {
  PutU64(out, s.pool_hits);
  PutU64(out, s.pool_misses);
  PutU64(out, s.pool_evictions);
  PutU64(out, s.pool_writebacks);
  PutU64(out, s.wal_records);
  PutU64(out, s.wal_bytes);
  PutU64(out, s.fsyncs);
  PutU64(out, s.steal_flushes);
  PutU64(out, s.commits);
  PutU64(out, s.checkpoints);
}

bool DecodeStorageStats(const std::string& payload, BackendStorageStats* s) {
  Reader r(payload);
  return r.U64(&s->pool_hits) && r.U64(&s->pool_misses) &&
         r.U64(&s->pool_evictions) && r.U64(&s->pool_writebacks) &&
         r.U64(&s->wal_records) && r.U64(&s->wal_bytes) && r.U64(&s->fsyncs) &&
         r.U64(&s->steal_flushes) && r.U64(&s->commits) &&
         r.U64(&s->checkpoints);
}

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Blocking full read (child side; the parent uses polled reads).
bool ReadAll(int fd, char* data, size_t n) {
  while (n > 0) {
    ssize_t r = ::read(fd, data, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // peer closed
    data += r;
    n -= static_cast<size_t>(r);
  }
  return true;
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
  storage_last_poll_ = {};  // fresh child: cumulative counters restart at 0
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

bool ForkedBackend::SendMsg(uint8_t type, const std::string& payload) {
  if (cmd_fd_ < 0) return false;
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size() + 1));
  frame.push_back(static_cast<char>(type));
  frame.append(payload);
  return WriteAll(cmd_fd_, frame.data(), frame.size());
}

ForkedBackend::Wait ForkedBackend::RecvMsg(int deadline_ms, uint8_t* code,
                                           std::string* payload) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms < 0 ? 0
                                                               : deadline_ms);
  std::string buf;
  size_t need = sizeof(uint32_t);  // first the length prefix
  bool have_len = false;
  for (;;) {
    if (buf.size() >= need) {
      if (!have_len) {
        uint32_t len = 0;
        std::memcpy(&len, buf.data(), sizeof(len));
        buf.erase(0, sizeof(len));
        need = len;
        have_len = true;
        if (need == 0) return Wait::kDead;  // malformed
        continue;
      }
      *code = static_cast<uint8_t>(buf[0]);
      payload->assign(buf, 1, need - 1);
      return Wait::kData;
    }

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
        buf.append(chunk, static_cast<size_t>(r));
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
                                             const std::string& payload,
                                             int deadline_ms, uint8_t* code,
                                             std::string* resp) {
  if (!alive_ || !SendMsg(type, payload)) return Wait::kDead;
  return RecvMsg(deadline_ms, code, resp);
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
    uint8_t code = 0;
    std::string resp;
    const int deadline =
        options_.max_stmt_ms > 0 ? kControlDeadlineMs + options_.max_stmt_ms
                                 : kControlDeadlineMs;
    Wait w = RoundTrip(kReqReset, setup_script(), deadline, &code, &resp);
    if (w == Wait::kData && code == kRespOk) {
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
  std::string payload;
  payload.push_back(want_rows ? 1 : 0);
  payload += sql_text;
  if (DurabilityArmed()) dur_.SetInflight(sql_text);

  uint8_t code = 0;
  std::string resp;
  const int deadline = options_.max_stmt_ms > 0 ? options_.max_stmt_ms : -1;
  Wait w = RoundTrip(kReqExecute, payload, deadline, &code, &resp);

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

  switch (code) {
    case kRespOk: {
      out.status = StmtOutcome::Status::kOk;
      if (want_rows) {
        Reader r(resp);
        uint32_t n = 0;
        if (r.U32(&n)) {
          out.rows.reserve(n);
          for (uint32_t i = 0; i < n; ++i) {
            std::string row;
            if (!r.Str(&row)) break;
            out.rows.push_back(std::move(row));
          }
        }
      }
      return out;
    }
    case kRespCrash: {
      out.status = StmtOutcome::Status::kCrash;
      if (!DecodeCrash(resp, &out.crash)) {
        out.crash.bug_id = "REAL-PROTOCOL";
        out.crash.kind = "PROTOCOL";
        out.crash.stack_hash = Fnv1a64("REAL-PROTOCOL");
      }
      return out;
    }
    case kRespError:
    default:
      out.status = StmtOutcome::Status::kError;
      return out;
  }
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
  uint8_t code = 0;
  std::string resp;
  if (RoundTrip(kReqStorageStats, "", kControlDeadlineMs, &code, &resp) !=
          Wait::kData ||
      code != kRespStats) {
    return;  // dead or stats-less child: keep the total as-is
  }
  BackendStorageStats current;
  if (!DecodeStorageStats(resp, &current)) return;
  BackendStorageStats delta = current;
  // Child counters are monotonic per child lifetime; subtract the previous
  // poll to get this window's contribution.
  delta.pool_hits -= storage_last_poll_.pool_hits;
  delta.pool_misses -= storage_last_poll_.pool_misses;
  delta.pool_evictions -= storage_last_poll_.pool_evictions;
  delta.pool_writebacks -= storage_last_poll_.pool_writebacks;
  delta.wal_records -= storage_last_poll_.wal_records;
  delta.wal_bytes -= storage_last_poll_.wal_bytes;
  delta.fsyncs -= storage_last_poll_.fsyncs;
  delta.steal_flushes -= storage_last_poll_.steal_flushes;
  delta.commits -= storage_last_poll_.commits;
  delta.checkpoints -= storage_last_poll_.checkpoints;
  storage_last_poll_ = current;
  storage_total_.Add(delta);
}

BackendStorageStats ForkedBackend::storage_stats() {
  PollStorageStats();
  return storage_total_;
}

std::optional<std::string> ForkedBackend::FirstColumnOf(
    const std::string& table) {
  uint8_t code = 0;
  std::string resp;
  if (RoundTrip(kReqFirstCol, table, kControlDeadlineMs, &code, &resp) !=
          Wait::kData ||
      code != kRespCol || resp.empty() || resp[0] == 0) {
    return std::nullopt;
  }
  return resp.substr(1);
}

void ForkedBackend::DoSnapshotForOracle() {
  uint8_t code = 0;
  std::string resp;
  (void)RoundTrip(kReqOracleBegin, "", kControlDeadlineMs, &code, &resp);
}

void ForkedBackend::DoRestoreForOracle() {
  uint8_t code = 0;
  std::string resp;
  (void)RoundTrip(kReqOracleEnd, "", kControlDeadlineMs, &code, &resp);
}

// ---------------------------------------------------------------------------
// Child side: a tiny single-connection "server" speaking the pipe protocol.
// ---------------------------------------------------------------------------

void ForkedBackend::ChildLoop() {
  // Fresh sink: never inherit the parent's thread-local probe target.
  cov::CoverageRuntime::SetActiveMap(nullptr);

  minidb::Database db(&profile_);
  faults::BugEngine engine(profile_.name);
  db.set_fault_hook(&engine);

  // Paged storage: the child owns its db directory's lifecycle. Panic mode
  // is what makes the durability oracle sound — a commit that cannot be
  // made durable exits with kStorageFailExitCode *before* the statement is
  // acknowledged, so the parent's shadow never records it.
  std::unique_ptr<minidb::StorageEngine> storage;
  if (options_.storage == StorageKind::kPaged && !options_.db_dir.empty()) {
    minidb::StorageEngine::Options so;
    so.dir = options_.db_dir;
    so.pool_frames = options_.pool_frames;
    so.skip_fsync = options_.planted_skip_fsync;
    so.panic_on_storage_error = true;
    storage = std::make_unique<minidb::StorageEngine>(so);
  }

  // Oracle bracket state (mirrors InProcessBackend's).
  cov::CoverageMap* oracle_saved_map = nullptr;
  minidb::FaultHook* oracle_saved_hook = nullptr;
  size_t oracle_saved_types = 0;
  size_t oracle_saved_features = 0;

  auto reply = [&](uint8_t code, const std::string& payload) {
    std::string frame;
    PutU32(&frame, static_cast<uint32_t>(payload.size() + 1));
    frame.push_back(static_cast<char>(code));
    frame.append(payload);
    if (!WriteAll(resp_fd_, frame.data(), frame.size())) _exit(0);
  };

  for (;;) {
    uint32_t len = 0;
    if (!ReadAll(cmd_fd_, reinterpret_cast<char*>(&len), sizeof(len))) {
      _exit(0);  // parent went away: clean shutdown
    }
    if (len == 0) _exit(0);
    std::string frame(len, '\0');
    if (!ReadAll(cmd_fd_, frame.data(), len)) _exit(0);
    const uint8_t type = static_cast<uint8_t>(frame[0]);
    const std::string payload = frame.substr(1);

    switch (type) {
      case kReqReset: {
        // Same choreography as InProcessBackend::Reset, with the run map in
        // shared memory so the parent sees coverage even if we die.
        db.ResetAll();
        if (storage != nullptr && !storage->ResetFresh(&db).ok()) {
          _exit(minidb::kStorageFailExitCode);
        }
        engine.ResetSession();
        shm_->Reset();
        cov::CoverageRuntime::SetActiveMap(shm_);
        if (!payload.empty()) {
          db.set_fault_hook(nullptr);
          if (storage == nullptr) {
            (void)db.ExecuteScript(payload);
          } else {
            // Per-statement bracket: setup state must be logged so recovery
            // after a mid-run kill reproduces it.
            auto stmts = sql::Parser::ParseScript(payload);
            if (stmts.ok()) {
              for (const sql::StmtPtr& stmt : stmts.value()) {
                storage->BeginStatement(&db);
                auto st = db.Execute(*stmt);
                (void)storage->EndStatement(&db, *stmt, st.ok());
                if (!st.ok() && st.status().IsCrash()) break;
              }
            }
          }
          db.session().type_trace.clear();
          db.session().feature_trace.clear();
          db.set_fault_hook(&engine);
          engine.ResetSession();
        }
        reply(kRespOk, "");
        break;
      }
      case kReqExecute: {
        if (payload.empty()) {
          reply(kRespError, "");
          break;
        }
        const bool want_rows = payload[0] != 0;
        auto stmts = sql::Parser::ParseScript(payload.substr(1) + ";");
        if (!stmts.ok() || stmts->empty()) {
          reply(kRespError, "");
          break;
        }
        // A real defect below this line kills us mid-statement — that *is*
        // the feature: the parent maps our death into a CrashInfo.
        if (storage != nullptr) storage->BeginStatement(&db);
        auto st = db.Execute(*(*stmts)[0]);
        if (storage != nullptr) {
          (void)storage->EndStatement(&db, *(*stmts)[0], st.ok());
        }
        if (st.ok()) {
          std::string rows;
          if (want_rows) {
            PutU32(&rows, static_cast<uint32_t>(st->rows.size()));
            for (const minidb::Row& row : st->rows) {
              PutStr(&rows, detail::RenderRow(row));
            }
          }
          reply(kRespOk, rows);
          break;
        }
        if (st.status().IsCrash()) {
          std::string crash;
          EncodeCrash(&crash, *db.last_crash());
          reply(kRespCrash, crash);
          break;
        }
        reply(kRespError, "");
        break;
      }
      case kReqOracleBegin: {
        oracle_saved_map = cov::CoverageRuntime::active_map();
        cov::CoverageRuntime::SetActiveMap(nullptr);
        oracle_saved_hook = db.fault_hook();
        db.set_fault_hook(nullptr);
        oracle_saved_types = db.session().type_trace.size();
        oracle_saved_features = db.session().feature_trace.size();
        reply(kRespOk, "");
        break;
      }
      case kReqOracleEnd: {
        db.session().type_trace.resize(oracle_saved_types);
        db.session().feature_trace.resize(oracle_saved_features);
        db.set_fault_hook(oracle_saved_hook);
        cov::CoverageRuntime::SetActiveMap(oracle_saved_map);
        oracle_saved_map = nullptr;
        oracle_saved_hook = nullptr;
        reply(kRespOk, "");
        break;
      }
      case kReqFirstCol: {
        std::string resp(1, '\0');
        auto t = db.catalog().GetTable(payload);
        if (t.ok() && !(*t)->schema.columns.empty()) {
          resp[0] = 1;
          resp += (*t)->schema.columns.front().name;
        }
        reply(kRespCol, resp);
        break;
      }
      case kReqStorageStats: {
        if (storage == nullptr) {
          reply(kRespError, "");
          break;
        }
        const minidb::StorageEngine::Stats s = storage->stats();
        BackendStorageStats bs;
        bs.pool_hits = s.pool.hits;
        bs.pool_misses = s.pool.misses;
        bs.pool_evictions = s.pool.evictions;
        bs.pool_writebacks = s.pool.writebacks;
        bs.wal_records = s.wal_records;
        bs.wal_bytes = s.wal_bytes;
        bs.fsyncs = s.fsyncs;
        bs.steal_flushes = s.steal_flushes;
        bs.commits = s.commits;
        bs.checkpoints = s.checkpoints;
        std::string resp;
        EncodeStorageStats(&resp, bs);
        reply(kRespStats, resp);
        break;
      }
      default:
        reply(kRespError, "");
        break;
    }
  }
}

}  // namespace lego::fuzz
