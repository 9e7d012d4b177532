// Chaos layer: deterministic failpoint schedules, damage-tolerant corpus
// import, resource-governed forked children (REAL-OOM / REAL-CPU triage
// buckets), and the spawn circuit breaker with campaign-level parking.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "chaos/failpoint.h"
#include "fuzz/backend.h"
#include "fuzz/backend_forked.h"
#include "fuzz/campaign.h"
#include "fuzz/corpus_file.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "minidb/database.h"
#include "minidb/profile.h"
#include "persist/io.h"

// Rlimit-based OOM tests are incompatible with sanitizer runtimes (ASan
// reserves shadow memory far beyond RLIMIT_AS; TSan likewise) — skip them
// there; the release job covers them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LEGO_SANITIZED 1
#endif
#if !defined(LEGO_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LEGO_SANITIZED 1
#endif
#endif

namespace lego::fuzz {
namespace {

/// Every test leaves the global registry disarmed, even on assertion
/// failure — chaos state must never leak across tests.
class ScopedChaos {
 public:
  ScopedChaos() { chaos::DisarmAll(); }
  ~ScopedChaos() { chaos::DisarmAll(); }
};

class PlantedHang {
 public:
  PlantedHang() { minidb::testing::SetPlantedHangForTesting(true); }
  ~PlantedHang() { minidb::testing::SetPlantedHangForTesting(false); }
};

class PlantedOom {
 public:
  PlantedOom() { minidb::testing::SetPlantedOomForTesting(true); }
  ~PlantedOom() { minidb::testing::SetPlantedOomForTesting(false); }
};

/// Deterministic generation-only fuzzer cycling through fixed scripts.
class ScriptFuzzer : public Fuzzer {
 public:
  explicit ScriptFuzzer(std::vector<std::string> scripts)
      : scripts_(std::move(scripts)) {}

  std::string name() const override { return "script"; }
  void Prepare(ExecutionHarness* harness) override { (void)harness; }

  TestCase Next() override {
    auto tc = TestCase::FromSql(scripts_[next_ % scripts_.size()]);
    ++next_;
    EXPECT_TRUE(tc.ok());
    return std::move(*tc);
  }

  void OnResult(const TestCase& tc, const ExecResult& result) override {
    (void)tc;
    (void)result;
  }

 private:
  std::vector<std::string> scripts_;
  size_t next_ = 0;
};

std::vector<bool> DrawPattern(uint64_t seed, double prob, int n) {
  chaos::ArmAll(seed, prob);
  std::vector<bool> fires;
  fires.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) fires.push_back(LEGO_FAILPOINT("persist.write"));
  chaos::DisarmAll();
  return fires;
}

TEST(FailpointTest, SameSeedSameSchedule) {
  ScopedChaos scope;
  const std::vector<bool> a = DrawPattern(42, 0.3, 200);
  const std::vector<bool> b = DrawPattern(42, 0.3, 200);
  EXPECT_EQ(a, b);
  // A 0.3 schedule over 200 draws fires somewhere strictly inside (0, 200).
  const int fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 200);

  const std::vector<bool> c = DrawPattern(43, 0.3, 200);
  EXPECT_NE(a, c);
}

TEST(FailpointTest, DisarmedNeverFiresAndCountsNothing) {
  ScopedChaos scope;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(LEGO_FAILPOINT("persist.write"));
  }
  EXPECT_EQ(chaos::HitCount("persist.write"), 0u);
  EXPECT_EQ(chaos::FireCount("persist.write"), 0u);
  for (const chaos::FailpointInfo& fp : chaos::Snapshot()) {
    EXPECT_EQ(fp.mode, chaos::FailpointMode::kOff);
    EXPECT_EQ(fp.hits, 0u);
    EXPECT_EQ(fp.fires, 0u);
  }
}

TEST(FailpointTest, NthHitFiresExactlyOnce) {
  ScopedChaos scope;
  ASSERT_TRUE(chaos::ArmSpec("corpus.save=nth:3", 1).ok());
  std::vector<bool> fires;
  for (int i = 0; i < 10; ++i) fires.push_back(LEGO_FAILPOINT("corpus.save"));
  std::vector<bool> expected(10, false);
  expected[2] = true;
  EXPECT_EQ(fires, expected);
  EXPECT_EQ(chaos::HitCount("corpus.save"), 10u);
  EXPECT_EQ(chaos::FireCount("corpus.save"), 1u);
}

TEST(FailpointTest, ProbabilityBounds) {
  ScopedChaos scope;
  ASSERT_TRUE(chaos::ArmSpec("persist.read=prob:0", 1).ok());
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(LEGO_FAILPOINT("persist.read"));
  ASSERT_TRUE(chaos::ArmSpec("persist.read=prob:1", 1).ok());
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(LEGO_FAILPOINT("persist.read"));
  ASSERT_TRUE(chaos::ArmSpec("persist.read=always", 1).ok());
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(LEGO_FAILPOINT("persist.read"));
}

TEST(FailpointTest, ArmSpecRejectsMalformedSpecs) {
  ScopedChaos scope;
  EXPECT_FALSE(chaos::ArmSpec("no-equals-sign", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("not.a.failpoint=always", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=sometimes", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=prob:2.0", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=prob:", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=nth:0", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=kill:x", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=hang:0", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=hang:", 1).ok());
  EXPECT_FALSE(chaos::ArmSpec("persist.write=hang:2x", 1).ok());
  // A rejected spec must leave nothing armed.
  EXPECT_FALSE(chaos::detail::g_armed.load());
}

TEST(FailpointTest, ModeNamesMatchSpecKeywords) {
  ScopedChaos scope;
  const std::pair<const char*, chaos::FailpointMode> modes[] = {
      {"always", chaos::FailpointMode::kAlways},
      {"prob:0.5", chaos::FailpointMode::kProbability},
      {"nth:4", chaos::FailpointMode::kNthHit},
      {"kill:4", chaos::FailpointMode::kKillNthHit},
      {"hang:4", chaos::FailpointMode::kHangNthHit},
      {"off", chaos::FailpointMode::kOff},
  };
  for (const auto& [spec, mode] : modes) {
    ASSERT_TRUE(chaos::ArmSpec(std::string("fleet.heartbeat=") + spec, 1).ok())
        << spec;
    EXPECT_EQ(chaos::ModeOf("fleet.heartbeat"), mode) << spec;
    const std::string_view keyword = std::string_view(spec).substr(
        0, std::string_view(spec).find(':'));
    EXPECT_EQ(chaos::ModeName(mode), keyword);
  }
}

/// Polls `pid` until it exits or `timeout` passes; true with its wait
/// status in `*ws` when it exited.
bool WaitWithTimeout(pid_t pid, std::chrono::milliseconds timeout, int* ws) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (::waitpid(pid, ws, WNOHANG) == pid) return true;
    ::usleep(5 * 1000);
  }
  return false;
}

TEST(FailpointTest, HangBlocksOnNthHitUntilKilled) {
  ScopedChaos scope;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!chaos::ArmSpec("fleet.heartbeat=hang:2", 1).ok()) ::_exit(2);
    if (LEGO_FAILPOINT("fleet.heartbeat")) ::_exit(3);  // hit 1: passes
    (void)LEGO_FAILPOINT("fleet.heartbeat");            // hit 2: blocks
    ::_exit(0);
  }
  int ws = 0;
  // Still blocked well after the first hit returned.
  EXPECT_FALSE(WaitWithTimeout(pid, std::chrono::milliseconds(300), &ws));
  ::kill(pid, SIGKILL);
  ASSERT_TRUE(WaitWithTimeout(pid, std::chrono::seconds(10), &ws));
  EXPECT_TRUE(WIFSIGNALED(ws) && WTERMSIG(ws) == SIGKILL) << ws;
}

TEST(FailpointTest, HungProcessDiesWithItsParent) {
  // The hung grandchild's parent exits without killing it once the hang
  // has begun (its stderr line is the cue). The outer child is made a
  // subreaper so the orphan is re-parented to it and its end observed.
  const pid_t reaper = ::fork();
  ASSERT_GE(reaper, 0);
  if (reaper == 0) {
    if (::prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) ::_exit(2);
    int pid_pipe[2];
    if (::pipe(pid_pipe) != 0) ::_exit(2);
    const pid_t parent = ::fork();
    if (parent < 0) ::_exit(2);
    if (parent == 0) {
      int err_pipe[2];
      if (::pipe(err_pipe) != 0) ::_exit(2);
      const pid_t hung = ::fork();
      if (hung < 0) ::_exit(2);
      if (hung == 0) {
        ::dup2(err_pipe[1], STDERR_FILENO);
        if (!chaos::ArmSpec("fleet.heartbeat=hang:1", 1).ok()) ::_exit(2);
        (void)LEGO_FAILPOINT("fleet.heartbeat");
        ::_exit(0);
      }
      ::close(err_pipe[1]);
      std::string err;
      char buf[256];
      while (err.find("hanging at failpoint") == std::string::npos) {
        const ssize_t n = ::read(err_pipe[0], buf, sizeof(buf));
        if (n <= 0) ::_exit(2);
        err.append(buf, static_cast<size_t>(n));
      }
      (void)!::write(pid_pipe[1], &hung, sizeof(hung));
      ::_exit(0);  // orphan the hung process
    }
    pid_t hung = -1;
    if (::read(pid_pipe[0], &hung, sizeof(hung)) != sizeof(hung)) ::_exit(2);
    int ws = 0;
    if (::waitpid(parent, &ws, 0) != parent) ::_exit(2);
    if (!WaitWithTimeout(hung, std::chrono::seconds(10), &ws)) {
      ::kill(hung, SIGKILL);
      ::_exit(3);  // the orphan kept hanging
    }
    ::_exit(WIFSIGNALED(ws) && WTERMSIG(ws) == SIGKILL ? 0 : 4);
  }
  int ws = 0;
  ASSERT_EQ(::waitpid(reaper, &ws, 0), reaper);
  ASSERT_TRUE(WIFEXITED(ws));
  EXPECT_EQ(WEXITSTATUS(ws), 0);
}

TEST(FailpointTest, RegistryListsAllCompiledSites) {
  const auto names = chaos::RegisteredFailpoints();
  EXPECT_GE(names.size(), 9u);
  for (std::string_view expected :
       {"persist.open", "persist.write", "persist.rename", "persist.read",
        "corpus.save", "corpus.load", "minidb.insert_alloc",
        "minidb.select_alloc", "backend.spawn"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(FailpointTest, AtomicWriteFailsUnderRenameFaultAndRecovers) {
  ScopedChaos scope;
  const std::string path =
      (std::filesystem::temp_directory_path() / "lego_chaos_atomic.state")
          .string();
  std::filesystem::remove(path);

  ASSERT_TRUE(chaos::ArmSpec("persist.rename=always", 1).ok());
  EXPECT_FALSE(persist::WriteTextFileAtomic(path, "payload").ok());
  EXPECT_FALSE(std::filesystem::exists(path));  // no torn file left behind

  chaos::DisarmAll();
  ASSERT_TRUE(persist::WriteTextFileAtomic(path, "payload").ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

// --- tolerant corpus import ---

std::vector<TestCase> MakeCases() {
  const char* sqls[] = {
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);",
      "CREATE TABLE u (b INT); INSERT INTO u VALUES (2); SELECT b FROM u;",
      "CREATE TABLE v (c INT); UPDATE v SET c = 1;",
      "CREATE TABLE w (d INT); DELETE FROM w;",
      "CREATE TABLE x (e INT); INSERT INTO x VALUES (5); SELECT e FROM x;",
      "CREATE TABLE y (f INT); INSERT INTO y VALUES (6);",
  };
  std::vector<TestCase> cases;
  for (const char* sql : sqls) {
    auto tc = TestCase::FromSql(sql);
    EXPECT_TRUE(tc.ok());
    cases.push_back(std::move(*tc));
  }
  return cases;
}

std::string CorpusPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("lego_chaos_" + name))
      .string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TolerantCorpusTest, IntactFileLoadsClean) {
  const std::string path = CorpusPath("intact.corpus");
  ASSERT_TRUE(SaveCorpusFile(MakeCases(), path).ok());
  CorpusLoadStats stats;
  auto loaded = LoadCorpusFileTolerant(path, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 6u);
  EXPECT_EQ(stats.loaded, 6u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_FALSE(stats.degraded);
  std::filesystem::remove(path);
}

TEST(TolerantCorpusTest, TruncatedFileSalvagesPrefix) {
  const std::string path = CorpusPath("truncated.corpus");
  ASSERT_TRUE(SaveCorpusFile(MakeCases(), path).ok());
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes.resize(bytes.size() - 25);  // lose the checksum and part of the tail
  WriteAll(path, bytes);

  // The strict loader refuses the whole file ...
  EXPECT_FALSE(LoadCorpusFile(path).ok());

  // ... the tolerant one salvages every case before the damage.
  CorpusLoadStats stats;
  auto loaded = LoadCorpusFileTolerant(path, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_GE(loaded->size(), 1u);
  EXPECT_LT(loaded->size(), 6u);
  EXPECT_EQ(stats.loaded, loaded->size());
  EXPECT_GE(stats.skipped, 1u);
  EXPECT_TRUE(stats.degraded);
  std::filesystem::remove(path);
}

TEST(TolerantCorpusTest, ChecksumFlipStillSalvagesAllEntries) {
  const std::string path = CorpusPath("badsum.corpus");
  ASSERT_TRUE(SaveCorpusFile(MakeCases(), path).ok());
  std::string bytes = ReadAll(path);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);  // corrupt trailer
  WriteAll(path, bytes);

  EXPECT_FALSE(LoadCorpusFile(path).ok());
  CorpusLoadStats stats;
  auto loaded = LoadCorpusFileTolerant(path, &stats);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 6u);  // payload intact; only the checksum lies
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_TRUE(stats.degraded);
  std::filesystem::remove(path);
}

TEST(TolerantCorpusTest, GarbageFileStillFails) {
  const std::string path = CorpusPath("garbage.corpus");
  WriteAll(path, "this is not a corpus file at all");
  CorpusLoadStats stats;
  EXPECT_FALSE(LoadCorpusFileTolerant(path, &stats).ok());
  std::filesystem::remove(path);
}

TEST(TolerantCorpusTest, LoadFailpointInjectsFault) {
  ScopedChaos scope;
  const std::string path = CorpusPath("fp.corpus");
  ASSERT_TRUE(SaveCorpusFile(MakeCases(), path).ok());
  ASSERT_TRUE(chaos::ArmSpec("corpus.load=always", 1).ok());
  CorpusLoadStats stats;
  EXPECT_FALSE(LoadCorpusFileTolerant(path, &stats).ok());
  chaos::DisarmAll();
  EXPECT_TRUE(LoadCorpusFileTolerant(path, &stats).ok());
  std::filesystem::remove(path);
}

// --- spawn circuit breaker ---

TEST(CircuitBreakerTest, RepeatedSpawnFailureOpensBreaker) {
  ScopedChaos scope;
  ASSERT_TRUE(chaos::ArmSpec("backend.spawn=always", 1).ok());
  BackendOptions options;
  options.kind = BackendKind::kForked;
  options.spawn_failure_limit = 3;
  ForkedBackend backend(minidb::DialectProfile::PgLite(), options);
  EXPECT_TRUE(backend.broken());
  EXPECT_EQ(backend.spawn_count(), 0);
  EXPECT_EQ(backend.spawn_failures(), 3);

  // A broken backend stays inert and error-reporting, never crashing.
  backend.Reset();
  auto tc = TestCase::FromSql("SELECT 1;");
  ASSERT_TRUE(tc.ok());
  StmtOutcome out = backend.Execute(*tc->statements()[0], false);
  EXPECT_EQ(out.status, StmtOutcome::Status::kError);
}

TEST(CircuitBreakerTest, TransientSpawnFailureRetriesAndRecovers) {
  ScopedChaos scope;
  ASSERT_TRUE(chaos::ArmSpec("backend.spawn=nth:1", 1).ok());
  BackendOptions options;
  options.kind = BackendKind::kForked;
  ForkedBackend backend(minidb::DialectProfile::PgLite(), options);
  EXPECT_FALSE(backend.broken());
  EXPECT_EQ(backend.spawn_failures(), 1);  // first attempt injected, retried
  EXPECT_EQ(backend.spawn_count(), 1);

  backend.Reset();
  auto tc = TestCase::FromSql("CREATE TABLE t (a INT);");
  ASSERT_TRUE(tc.ok());
  StmtOutcome out = backend.Execute(*tc->statements()[0], false);
  EXPECT_EQ(out.status, StmtOutcome::Status::kOk);
}

TEST(CircuitBreakerTest, CampaignStopsCleanlyWhenBackendBreaks) {
  ScopedChaos scope;
  // Spawn hit 1 is the harness's first child: injected, and with a limit of
  // 1 the breaker opens at once. The campaign must return at once with
  // nothing executed instead of spinning on a dead backend. (A fleet moves
  // a dead worker's shard to a live slot instead; fleet_test covers that.)
  ASSERT_TRUE(chaos::ArmSpec("backend.spawn=nth:1", 1).ok());

  ScriptFuzzer fuzzer({
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;",
      "CREATE TABLE u (b INT); INSERT INTO u VALUES (2); SELECT b FROM u;",
  });
  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.spawn_failure_limit = 1;
  ExecutionHarness harness(minidb::DialectProfile::PgLite(), backend);

  ASSERT_TRUE(harness.backend().broken());

  CampaignOptions options;
  options.max_executions = 60;
  options.snapshot_every = 0;

  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  EXPECT_EQ(result.executions, 0);
  EXPECT_EQ(result.crashes_total, 0);
  EXPECT_TRUE(result.state_status.ok());
}

// --- resource governance ---

TEST(ResourceGovernanceTest, ChildOomBecomesRealOomCrash) {
#ifdef LEGO_SANITIZED
  GTEST_SKIP() << "RLIMIT_AS is incompatible with sanitizer shadow memory";
#else
  PlantedOom plant;
  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.max_child_mem_mb = 256;
  ExecutionHarness harness(minidb::DialectProfile::PgLite(), backend);

  auto tc = TestCase::FromSql("CREATE TABLE t (a INT); REINDEX; SELECT 1;");
  ASSERT_TRUE(tc.ok());
  ExecResult r = harness.Run(*tc);
  EXPECT_TRUE(r.crashed);
  EXPECT_EQ(r.crash.bug_id, "REAL-OOM");
  EXPECT_EQ(r.executed, 1);  // CREATE ran; REINDEX died; SELECT never ran

  // The child respawns: the same harness keeps executing, and the repro
  // replays to the same bucket (stable stack hash).
  auto again = TestCase::FromSql("CREATE TABLE t (a INT); REINDEX;");
  ASSERT_TRUE(again.ok());
  ExecResult r2 = harness.Run(*again);
  EXPECT_TRUE(r2.crashed);
  EXPECT_EQ(r2.crash.bug_id, "REAL-OOM");
  EXPECT_EQ(r2.crash.stack_hash, r.crash.stack_hash);
#endif
}

TEST(ResourceGovernanceTest, ChildCpuSpinBecomesRealCpuCrash) {
  PlantedHang plant;
  BackendOptions backend;
  backend.kind = BackendKind::kForked;
  backend.max_child_cpu_s = 1;  // no wall-clock watchdog: the rlimit acts
  ExecutionHarness harness(minidb::DialectProfile::PgLite(), backend);

  auto tc = TestCase::FromSql("CREATE TABLE t (a INT); VACUUM;");
  ASSERT_TRUE(tc.ok());
  ExecResult r = harness.Run(*tc);
  EXPECT_TRUE(r.crashed);
  EXPECT_EQ(r.crash.bug_id, "REAL-CPU");
}

}  // namespace
}  // namespace lego::fuzz
