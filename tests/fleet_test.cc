// Fleet coordinator robustness tests: shard purity against an in-process
// reference, corpus distill/redistribute equivalence, worker kills mid-shard,
// coordinator SIGKILL + resume, poisoned-result quarantine, heartbeat-loss
// lease expiry, graceful drain + resume, and the journal's snapshot plus
// appended records (replay, torn records, failed appends).
//
// Every fleet config arms the TLP oracle against the planted NOT-NULL
// evaluator defect: logic bugs then surface within a few hundred executions,
// so small (fast) shard budgets still produce non-empty finding sets worth
// comparing across chaos and clean runs. The planted flag is process-global
// and is inherited by forked workers, so the whole fleet fuzzes the same
// deliberately buggy engine build.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/failpoint.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/protocol.h"
#include "fleet/shard.h"
#include "fleet/status_json.h"
#include "fuzz/state.h"
#include "minidb/env.h"
#include "minidb/eval.h"
#include "persist/io.h"
#include "util/flags.h"

namespace lego::fleet {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "lego_fleet_" + name + "_" +
                    std::to_string(static_cast<long long>(getpid()));
  (void)minidb::Env::Posix()->RemoveDirRecursive(dir);
  return dir;
}

FleetConfig BaseConfig() {
  FleetConfig config;
  config.profile = "pglite";
  config.fuzzer = "lego";
  config.base_seed = 3;
  config.num_shards = 4;
  config.shard_budget = 500;
  config.oracle_spec = "tlp";
  return config;
}

/// SQL of every case, in order: how pools and captures are compared.
std::vector<std::string> SqlOf(const std::vector<fuzz::TestCase>& cases) {
  std::vector<std::string> out;
  for (const fuzz::TestCase& tc : cases) out.push_back(tc.ToSql());
  return out;
}

/// The single-process ground truth: runs every shard in-order in this
/// process through the same ExecuteShard + UpdatePool the coordinator uses,
/// merging the same way. A healthy fleet of any worker count must reproduce
/// it exactly — finding sets, the captured case per finding (the lowest
/// shard's), the pool, and the bug digest — whatever order its shards
/// complete in.
struct Reference {
  int64_t executions = 0;
  std::set<uint64_t> crash_hashes;
  std::set<uint64_t> logic_fps;
  std::map<uint64_t, std::string> crash_sql;  // first capture in shard order
  std::map<uint64_t, std::string> logic_sql;
  cov::GlobalCoverage coverage;
  std::vector<fuzz::TestCase> pool;
  std::vector<fuzz::TestCase> pending;
  int distill_cycles = 0;
  double distill_seconds = 0.0;

  size_t corpus_total() const { return pool.size() + pending.size(); }
  uint64_t bug_digest() const { return BugDigest(crash_hashes, logic_fps); }
};

/// `shards_done` from the fleet's status.json, or -1 before the first write.
int64_t StatusShardsDone(const std::string& fleet_dir) {
  auto json =
      minidb::Env::Posix()->ReadFile(fleet_dir + "/" + kStatusFile);
  if (!json.ok()) return -1;
  const std::string key = "\"shards_done\":";
  const size_t at = json->find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(json->c_str() + at + key.size(), nullptr, 10);
}

Reference RunReference(const FleetConfig& config) {
  Reference ref;
  int completed = 0;
  for (int s = 0; s < config.num_shards; ++s) {
    auto outcome = ExecuteShard(config, s, ref.pool, nullptr, {});
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return ref;
    EXPECT_TRUE(outcome->complete);
    const fuzz::CampaignResult& r = outcome->result;
    ref.executions += r.executions;
    for (uint64_t h : r.crash_hashes) ref.crash_hashes.insert(h);
    for (uint64_t f : r.logic_fingerprints) ref.logic_fps.insert(f);
    for (size_t i = 0; i < r.captured_crashes.size(); ++i) {
      ref.crash_sql.emplace(r.captured_crashes[i].stack_hash,
                            r.captured_cases[i].ToSql());
    }
    for (size_t i = 0; i < r.captured_logic_bugs.size(); ++i) {
      ref.logic_sql.emplace(r.captured_logic_bugs[i].fingerprint,
                            r.captured_logic_cases[i].ToSql());
    }
    ref.coverage.MergeFrom(outcome->coverage);
    ++completed;
    Status st =
        UpdatePool(config, completed, std::move(outcome->result.corpus_export),
                   &ref.pool, &ref.pending, &ref.distill_cycles,
                   &ref.distill_seconds);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return ref;
}

void ExpectMatchesReference(const FleetResult& result, const Reference& ref) {
  EXPECT_EQ(result.executions, ref.executions);
  EXPECT_EQ(result.crash_hashes(), ref.crash_hashes);
  EXPECT_EQ(result.logic_fingerprints(), ref.logic_fps);
  EXPECT_EQ(result.bug_digest(), ref.bug_digest());
  EXPECT_EQ(result.edges(), ref.coverage.CoveredEdges());
  EXPECT_EQ(result.corpus.size() + result.corpus_pending.size(),
            ref.corpus_total());
  EXPECT_TRUE(result.held_exports.empty());
  for (const auto& [hash, sql] : ref.crash_sql) {
    auto it = result.crash_cases.find(hash);
    ASSERT_NE(it, result.crash_cases.end());
    EXPECT_EQ(it->second.ToSql(), sql) << "crash " << hash;
  }
  for (const auto& [fp, sql] : ref.logic_sql) {
    auto it = result.logic_cases.find(fp);
    ASSERT_NE(it, result.logic_cases.end());
    EXPECT_EQ(it->second.ToSql(), sql) << "logic finding " << fp;
  }
}

/// Everything ExpectMatchesReference checks, plus the exact pool: same
/// distill cycles and the same cases, in the same order.
void ExpectPoolMatchesReference(const FleetResult& result,
                                const Reference& ref) {
  ExpectMatchesReference(result, ref);
  EXPECT_EQ(result.distill_cycles, ref.distill_cycles);
  EXPECT_EQ(SqlOf(result.corpus), SqlOf(ref.pool));
  EXPECT_EQ(SqlOf(result.corpus_pending), SqlOf(ref.pending));
}

/// A journaled part of a result as bytes, for field-for-field equality.
std::string StorageBytes(const fuzz::BackendStorageStats& stats) {
  persist::StateWriter w;
  fuzz::SaveStorageStats(stats, &w);
  return w.buffer();
}
std::string CoverageBytes(const cov::GlobalCoverage& coverage) {
  persist::StateWriter w;
  EXPECT_TRUE(coverage.SaveState(&w).ok());
  return w.buffer();
}

/// Every journaled field of two results is equal.
void ExpectSameJournaledState(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.shards_done, b.shards_done);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.statements_executed, b.statements_executed);
  EXPECT_EQ(a.statement_errors, b.statement_errors);
  EXPECT_EQ(a.crashes_total, b.crashes_total);
  EXPECT_EQ(a.logic_bugs_total, b.logic_bugs_total);
  EXPECT_EQ(a.rules, b.rules);
  EXPECT_EQ(a.shards_requeued, b.shards_requeued);
  EXPECT_EQ(a.leases_expired, b.leases_expired);
  EXPECT_EQ(a.results_rejected, b.results_rejected);
  EXPECT_EQ(a.duplicate_results, b.duplicate_results);
  EXPECT_EQ(a.distill_cycles, b.distill_cycles);
  EXPECT_EQ(a.distill_seconds, b.distill_seconds);
  EXPECT_EQ(a.crash_hashes(), b.crash_hashes());
  EXPECT_EQ(a.logic_fingerprints(), b.logic_fingerprints());
  EXPECT_EQ(a.crash_origins, b.crash_origins);
  EXPECT_EQ(a.logic_origins, b.logic_origins);
  EXPECT_EQ(a.crash_shards, b.crash_shards);
  EXPECT_EQ(a.logic_shards, b.logic_shards);
  for (const auto& [hash, tc] : a.crash_cases) {
    auto it = b.crash_cases.find(hash);
    ASSERT_NE(it, b.crash_cases.end()) << hash;
    EXPECT_EQ(tc.ToSql(), it->second.ToSql()) << hash;
  }
  for (const auto& [fp, tc] : a.logic_cases) {
    auto it = b.logic_cases.find(fp);
    ASSERT_NE(it, b.logic_cases.end()) << fp;
    EXPECT_EQ(tc.ToSql(), it->second.ToSql()) << fp;
  }
  EXPECT_EQ(a.corpus_digest(), b.corpus_digest());
  EXPECT_EQ(SqlOf(a.corpus), SqlOf(b.corpus));
  EXPECT_EQ(SqlOf(a.corpus_pending), SqlOf(b.corpus_pending));
  ASSERT_EQ(a.held_exports.size(), b.held_exports.size());
  for (const auto& [shard, cases] : a.held_exports) {
    ASSERT_EQ(b.held_exports.count(shard), 1u) << shard;
    EXPECT_EQ(SqlOf(cases), SqlOf(b.held_exports.at(shard))) << shard;
  }
  EXPECT_EQ(StorageBytes(a.storage), StorageBytes(b.storage));
  EXPECT_EQ(CoverageBytes(a.coverage), CoverageBytes(b.coverage));
}

/// Journals shards the way the coordinator does, in this process: a
/// snapshot of *live, then per shard of `order` an ExecuteShard on the
/// current pool and an AcceptShard, followed by a record, or by a snapshot
/// when the acceptance ran a distill cycle. Returns the journal's size
/// after each write.
std::vector<size_t> JournalInProcess(const FleetConfig& config,
                                     const std::vector<int>& order,
                                     const std::string& fleet_dir,
                                     FleetResult* live) {
  EXPECT_TRUE(minidb::Env::Posix()->CreateDir(fleet_dir).ok());
  const std::string path = JournalPath(fleet_dir);
  std::vector<size_t> sizes;
  EXPECT_TRUE(SaveJournal(fleet_dir, config, *live).ok());
  sizes.push_back(std::filesystem::file_size(path));
  for (int shard : order) {
    auto outcome = ExecuteShard(config, shard, live->corpus, nullptr, {});
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) break;
    const std::string envelope = EncodeShardOutcome(*outcome);
    const std::string origin = shard % 2 == 0 ? "w0@test" : "w1@test";
    const int cycles = live->distill_cycles;
    EXPECT_TRUE(
        AcceptShard(config, std::move(*outcome), origin, live).ok());
    Status st = live->distill_cycles != cycles
                    ? SaveJournal(fleet_dir, config, *live)
                    : AppendJournal(fleet_dir, shard, envelope, origin, *live);
    EXPECT_TRUE(st.ok()) << st.ToString();
    sizes.push_back(std::filesystem::file_size(path));
  }
  return sizes;
}

/// Writes the first `size` bytes of `from`'s journal, with the byte at
/// `flip` (if any) inverted, as the journal of a fresh fleet dir `to`.
void CopyJournal(const std::string& from, const std::string& to, size_t size,
                 size_t flip = std::string::npos) {
  auto bytes = minidb::Env::Posix()->ReadFile(JournalPath(from));
  ASSERT_TRUE(bytes.ok());
  std::string cut = bytes->substr(0, size);
  if (flip < cut.size()) cut[flip] = static_cast<char>(~cut[flip]);
  (void)minidb::Env::Posix()->RemoveDirRecursive(to);
  ASSERT_TRUE(minidb::Env::Posix()->CreateDir(to).ok());
  ASSERT_TRUE(persist::WriteTextFileAtomic(JournalPath(to), cut).ok());
}

/// Runs a coordinator in a child process with `spec` armed, and expects the
/// failpoint to SIGKILL it.
void RunKilledFleet(const FleetConfig& config, const std::string& fleet_dir,
                    int workers, const std::string& spec) {
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    (void)chaos::ArmSpec(spec, config.base_seed);
    FleetOptions options;
    options.config = config;
    options.num_workers = workers;
    options.fleet_dir = fleet_dir;
    (void)RunFleet(options);
    _exit(7);  // unreachable when the failpoint fires
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  EXPECT_EQ(WTERMSIG(wait_status), SIGKILL);
}

FleetResult ResumeFleet(const FleetConfig& config,
                        const std::string& fleet_dir, int workers) {
  FleetOptions options;
  options.config = config;
  options.num_workers = workers;
  options.fleet_dir = fleet_dir;
  options.resume = true;
  FleetResult result = RunFleet(options);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  return result;
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::DisarmAll();
    minidb::Evaluator::SetNotNullEvalBugForTesting(true);
  }
  void TearDown() override {
    minidb::Evaluator::SetNotNullEvalBugForTesting(false);
    chaos::DisarmAll();
  }
};

// --- wire protocol -------------------------------------------------------

TEST_F(FleetTest, FrameRoundTripAndReassembly) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(SendFrame(fds[1], MsgType::kHeartbeat, "payload-bytes").ok());
  uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(RecvFrame(fds[0], &type, &payload).ok());
  EXPECT_EQ(type, static_cast<uint8_t>(MsgType::kHeartbeat));
  EXPECT_EQ(payload, "payload-bytes");
  ::close(fds[1]);
  // Clean EOF (peer gone before a frame started) is NotFound, not an error.
  Status eof = RecvFrame(fds[0], &type, &payload);
  EXPECT_EQ(eof.code(), StatusCode::kNotFound);
  ::close(fds[0]);

  // Byte-at-a-time reassembly: frames only pop once complete.
  std::string wire;
  AppendU32(&wire, 1 + 3);  // type + "abc"
  wire.push_back(static_cast<char>(MsgType::kResult));
  wire += "abc";
  FrameBuffer buffer;
  std::string got;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.Append(wire.data() + i, 1);
    EXPECT_FALSE(buffer.Next(&type, &got));
  }
  buffer.Append(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(buffer.Next(&type, &got));
  EXPECT_EQ(type, static_cast<uint8_t>(MsgType::kResult));
  EXPECT_EQ(got, "abc");
  EXPECT_EQ(buffer.buffered(), 0u);

  // A corrupt length prefix poisons the buffer instead of allocating.
  std::string bogus;
  AppendU32(&bogus, kMaxFrameBytes + 1);
  buffer.Append(bogus.data(), bogus.size());
  EXPECT_FALSE(buffer.Next(&type, &got));
  EXPECT_TRUE(buffer.Overflowed());
}

// --- clean fleets reproduce the single-process campaign ------------------

TEST_F(FleetTest, CleanFleetMatchesReference) {
  FleetConfig config = BaseConfig();
  Reference ref = RunReference(config);
  ASSERT_FALSE(ref.logic_fps.empty());  // planted bug must be visible

  for (int workers : {1, 2}) {
    FleetOptions options;
    options.config = config;
    options.num_workers = workers;
    options.fleet_dir = FreshDir("clean_w" + std::to_string(workers));
    FleetResult result = RunFleet(options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.degraded);
    EXPECT_FALSE(result.stopped_early);
    EXPECT_EQ(result.shards_done.size(),
              static_cast<size_t>(config.num_shards));
    EXPECT_EQ(result.shards_requeued, 0);
    EXPECT_EQ(result.results_rejected, 0);
    ExpectMatchesReference(result, ref);

    // The control plane left a parseable final status behind.
    auto status_json = minidb::Env::Posix()->ReadFile(options.fleet_dir + "/" +
                                                      kStatusFile);
    ASSERT_TRUE(status_json.ok());
    for (const char* key :
         {"\"shards_done\"", "\"execs_per_sec\"", "\"workers\"",
          "\"unique_logic_bugs\"", "\"distill_seconds\"", "\"degraded\"",
          "\"storage\""}) {
      EXPECT_NE(status_json->find(key), std::string::npos) << key;
    }
  }
}

// --- merge -> distill -> redistribute ------------------------------------

TEST_F(FleetTest, DistillRedistributeMatchesReference) {
  FleetConfig config = BaseConfig();
  config.num_shards = 6;
  config.shard_budget = 400;
  config.distill_every = 2;  // generations {0,1} {2,3} {4,5}
  Reference ref = RunReference(config);
  ASSERT_GE(ref.distill_cycles, 2);
  ASSERT_FALSE(ref.logic_fps.empty());

  // Shards of one generation finish in any order across workers; the lease
  // gate and the shard-ordered merge must still rebuild the reference's
  // pool generation by generation, and its captures.
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FleetOptions options;
    options.config = config;
    options.num_workers = workers;
    options.fleet_dir = FreshDir("distill_w" + std::to_string(workers));
    FleetResult result = RunFleet(options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.shards_done.size(),
              static_cast<size_t>(config.num_shards));
    ExpectPoolMatchesReference(result, ref);
  }

  // Coordinator SIGKILL at its third journal write (one accepted result on
  // disk, possibly held for a lower shard), then a resume at another worker
  // count: the journal carries the pool, the held exports and the capture
  // shards, so the result is still the reference's.
  const std::string fleet_dir = FreshDir("distill_kill");
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    (void)chaos::ArmSpec("fleet.journal_write=kill:3", config.base_seed);
    FleetOptions options;
    options.config = config;
    options.num_workers = 4;
    options.fleet_dir = fleet_dir;
    (void)RunFleet(options);
    _exit(7);  // unreachable when the failpoint fires
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  EXPECT_EQ(WTERMSIG(wait_status), SIGKILL);

  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = fleet_dir;
  options.resume = true;
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  ExpectPoolMatchesReference(result, ref);
}

// --- incremental distill -------------------------------------------------

TEST_F(FleetTest, FootprintCacheKeepsPoolStepwiseEqual) {
  // One pool evolution through fresh UpdatePool calls, one through calls
  // that share a footprint cache, fed the same exports in shard order: they
  // must agree after every call, through four distill cycles. The pool's
  // footprints carry from the first distill to the second; then the cache
  // is dropped twice, as a coordinator resume drops it: once with
  // footprinted exports pending, once right after a distill.
  FleetConfig config = BaseConfig();
  config.num_shards = 8;
  config.shard_budget = 400;
  config.distill_every = 2;

  struct PoolState {
    std::vector<fuzz::TestCase> pool;
    std::vector<fuzz::TestCase> pending;
    int cycles = 0;
    double seconds = 0.0;
  };
  PoolState fresh, cached;
  PoolFootprints cache;
  for (int s = 0; s < config.num_shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    auto outcome = ExecuteShard(config, s, fresh.pool, nullptr, {});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    std::vector<fuzz::TestCase> exports;
    for (const fuzz::TestCase& tc : outcome->result.corpus_export) {
      exports.push_back(tc.Clone());
    }
    ASSERT_TRUE(UpdatePool(config, s + 1,
                           std::move(outcome->result.corpus_export),
                           &fresh.pool, &fresh.pending, &fresh.cycles,
                           &fresh.seconds)
                    .ok());
    if (s == 5 || s == 6) cache = PoolFootprints{};
    ASSERT_TRUE(UpdatePool(config, s + 1, std::move(exports), &cached.pool,
                           &cached.pending, &cached.cycles, &cached.seconds,
                           &cache)
                    .ok());
    EXPECT_EQ(SqlOf(cached.pool), SqlOf(fresh.pool));
    EXPECT_EQ(SqlOf(cached.pending), SqlOf(fresh.pending));
    EXPECT_EQ(cached.cycles, fresh.cycles);
    // Every case is footprinted on arrival (after a drop, the pool again),
    // and a boundary keeps the kept cases' footprints as the pool's.
    EXPECT_EQ(cache.pool.size(), cached.pool.size());
    EXPECT_EQ(cache.pending.size(), cached.pending.size());
  }
  EXPECT_EQ(fresh.cycles, 4);
  EXPECT_FALSE(fresh.pool.empty());
}

// --- worker killed mid-shard: requeue without loss ------------------------

TEST_F(FleetTest, WorkerKillMidShardRequeuesWithoutLoss) {
  FleetConfig config = BaseConfig();
  config.num_shards = 4;
  config.shard_budget = 800;  // 13 heartbeats per shard, one per 64 executions

  Reference ref = RunReference(config);

  // Every slot dies on its 20th heartbeat in every incarnation: each
  // incarnation completes the first shard it leases (13 beats) and is
  // SIGKILLed partway into its second. So no incarnation completes more
  // than one shard, and 4 shards over 2 slots need at least 4 incarnations
  // and at least one requeue, whichever slot wins which lease.
  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = FreshDir("workerkill");
  options.respawn_backoff_ms = 10;
  options.strike_limit = 8;
  options.worker_chaos.push_back({-1, "fleet.heartbeat=kill:20"});
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  EXPECT_GE(result.shards_requeued, 1);
  EXPECT_GE(result.workers_spawned, 4);
  ExpectMatchesReference(result, ref);
}

// --- coordinator SIGKILL mid-campaign, then --resume ----------------------

TEST_F(FleetTest, CoordinatorKillAndResumeLosesNothing) {
  FleetConfig config = BaseConfig();
  Reference ref = RunReference(config);
  const std::string fleet_dir = FreshDir("coordkill");

  // Child coordinator arms fleet.journal_write=kill:3: the setup journal
  // and the first accepted-result journal land on disk, then the third save
  // SIGKILLs the coordinator before writing a byte — the journal on disk
  // stays the last good state.
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    (void)chaos::ArmSpec("fleet.journal_write=kill:3", config.base_seed);
    FleetOptions options;
    options.config = config;
    options.num_workers = 2;
    options.fleet_dir = fleet_dir;
    (void)RunFleet(options);
    _exit(7);  // unreachable when the failpoint fires
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  EXPECT_EQ(WTERMSIG(wait_status), SIGKILL);

  // The journal survived the kill and already holds completed shards.
  FleetResult journaled;
  ASSERT_TRUE(LoadJournal(fleet_dir, config, &journaled).ok());
  EXPECT_GE(journaled.shards_done.size(), 1u);
  EXPECT_LT(journaled.shards_done.size(),
            static_cast<size_t>(config.num_shards));

  // Resume (failpoints clean): only the missing shards re-run, and the
  // merged outcome equals an uninterrupted campaign.
  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = fleet_dir;
  options.resume = true;
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  ExpectMatchesReference(result, ref);

  // A resume under a different campaign identity must refuse the journal.
  FleetConfig other = config;
  other.base_seed = config.base_seed + 1;
  FleetOptions mismatched = options;
  mismatched.config = other;
  FleetResult refused = RunFleet(mismatched);
  EXPECT_FALSE(refused.status.ok());
}

// --- poisoned results: strikes, quarantine, graceful degradation ----------

TEST_F(FleetTest, QuarantineAfterThreePoisonedResults) {
  FleetConfig config = BaseConfig();
  config.num_shards = 2;
  config.shard_budget = 200;

  // The only worker poisons every result envelope, so the coordinator
  // rejects 3 results (checksum mismatch), strikes the slot each time, and
  // quarantines it — then returns degraded instead of stalling.
  FleetOptions options;
  options.config = config;
  options.num_workers = 1;
  options.fleet_dir = FreshDir("poison");
  options.strike_limit = 3;
  options.respawn_backoff_ms = 10;
  options.worker_chaos.push_back({0, "fleet.result_write=always"});
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.results_rejected, 3);
  EXPECT_EQ(result.workers_quarantined, 1);
  EXPECT_TRUE(result.shards_done.empty());
  EXPECT_EQ(result.shards_requeued, 3);
  // Nothing poisoned leaked into the merged state.
  EXPECT_EQ(result.executions, 0);
  EXPECT_TRUE(result.crashes.empty());
  EXPECT_TRUE(result.logic.empty());
}

// --- invalid configs are refused before any worker forks -----------------

/// Runs a fleet over `config` and requires RunFleet to refuse it up front:
/// InvalidArgument, and no worker spawned.
void ExpectRefusedBeforeSpawn(const FleetConfig& config,
                              const std::string& name) {
  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = FreshDir(name);
  FleetResult result = RunFleet(options);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
      << result.status.ToString();
  EXPECT_EQ(result.workers_spawned, 0);
  EXPECT_TRUE(result.shards_done.empty());
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
}

TEST_F(FleetTest, PagedStorageWithoutDbDirIsRefused) {
  FleetConfig config = BaseConfig();
  config.backend.storage = fuzz::StorageKind::kPaged;
  ExpectRefusedBeforeSpawn(config, "paged_no_dir");
}

TEST_F(FleetTest, DurabilityOracleWithoutForkedPagedIsRefused) {
  FleetConfig config = BaseConfig();
  config.oracle_spec = "dur";
  ExpectRefusedBeforeSpawn(config, "dur_inproc");
}

TEST_F(FleetTest, UnknownOracleIsRefused) {
  FleetConfig config = BaseConfig();
  config.oracle_spec = "bogus";
  ExpectRefusedBeforeSpawn(config, "bogus_oracle");
}

// --- campaign builder ------------------------------------------------------

TEST_F(FleetTest, CheckCampaignRefusesUnknownNames) {
  FleetConfig config = BaseConfig();
  EXPECT_TRUE(CheckCampaign(config).ok());
  FleetConfig bad_profile = config;
  bad_profile.profile = "nosuchdb";
  EXPECT_EQ(CheckCampaign(bad_profile).code(), StatusCode::kInvalidArgument);
  FleetConfig bad_fuzzer = config;
  bad_fuzzer.fuzzer = "nosuchfuzzer";
  EXPECT_EQ(BuildCampaign(bad_fuzzer, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FleetTest, RepeatedOracleFlagsGiveOneSpec) {
  auto spec_of = [](std::vector<const char*> argv) {
    FleetConfig config;
    const flags::CommandLine cli = {"cli", CampaignFlags(&config)};
    std::vector<std::string> positionals;
    Status st = cli.Parse(static_cast<int>(argv.size()), argv.data(),
                          &positionals);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return config.oracle_spec;
  };
  const std::string one_flag = spec_of({"cli", "--oracle=tlp,norec"});
  EXPECT_EQ(one_flag, "tlp,norec");
  EXPECT_EQ(spec_of({"cli", "--oracle", "tlp", "--oracle", "norec"}),
            one_flag);
}

TEST_F(FleetTest, ConcurrentInterleavingsFollowTheCampaignSeed) {
  FleetConfig config = BaseConfig();
  config.oracle_spec.clear();
  config.backend.kind = fuzz::BackendKind::kConcurrent;
  config.backend.sessions = 2;
  auto tc = fuzz::TestCase::FromSql(
      "CREATE TABLE t (a INT, b INT);"
      "INSERT INTO t VALUES (1, 10);"
      "UPDATE t SET b = b + 1 WHERE a = 1;"
      "UPDATE t SET b = b * 2 WHERE a = 1;"
      "SELECT b FROM t;");
  ASSERT_TRUE(tc.ok()) << tc.status().ToString();
  std::vector<uint64_t> interleave_seeds;
  for (uint64_t seed : {11, 12}) {
    auto campaign = BuildCampaign(config, seed);
    ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
    EXPECT_EQ(campaign->harness->backend_options().concurrency_seed, seed);
    interleave_seeds.push_back(campaign->harness->Run(*tc).interleave_seed);
  }
  EXPECT_NE(interleave_seeds[0], interleave_seeds[1]);
}

TEST_F(FleetTest, BuilderArmsOnlyASuiteWithMembers) {
  FleetConfig config = BaseConfig();
  {
    auto tlp = BuildCampaign(config, 1);
    ASSERT_TRUE(tlp.ok()) << tlp.status().ToString();
    ASSERT_NE(tlp->suite, nullptr);
    EXPECT_EQ(tlp->harness->logic_oracle(), tlp->suite.get());
    EXPECT_FALSE(tlp->harness->backend_options().durability_check);
  }
  // "dur" alone is the backend's crash-recovery check: the harness gets
  // no per-SELECT oracle, so no statement pays an empty oracle bracket.
  const std::string db_dir = FreshDir("dur_only");
  config.oracle_spec = "dur";
  config.backend.kind = fuzz::BackendKind::kForked;
  config.backend.storage = fuzz::StorageKind::kPaged;
  config.backend.db_dir = db_dir;
  {
    auto dur = BuildCampaign(config, 1);
    ASSERT_TRUE(dur.ok()) << dur.status().ToString();
    ASSERT_NE(dur->suite, nullptr);
    EXPECT_EQ(dur->harness->logic_oracle(), nullptr);
    EXPECT_TRUE(dur->harness->backend_options().durability_check);
  }
  (void)minidb::Env::Posix()->RemoveDirRecursive(db_dir);
}

// --- heartbeat loss: lease expiry requeues the shard ----------------------

TEST_F(FleetTest, HeartbeatLossExpiresLeaseAndRequeues) {
  FleetConfig config = BaseConfig();
  config.num_shards = 2;
  config.shard_budget = 4000;
  Reference ref = RunReference(config);

  // Slot 0 hangs at its lease-accept heartbeat until the coordinator kills
  // it, so its lease can only end by expiry, however fast the build runs;
  // the shard then re-queues to the healthy slot. strike_limit=1
  // quarantines the mute slot on that first expiry. The deadline is about
  // six times the healthy slot's longest heartbeat gap (64 executions, or
  // shard start-up) in an ASan+UBSan -O0 build, 0.85 s on a 4-core Xeon.
  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = FreshDir("mute");
  options.lease_deadline_ms = 5000;
  options.strike_limit = 1;
  options.worker_chaos.push_back({0, "fleet.heartbeat=hang:1"});
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.degraded);
  EXPECT_GE(result.leases_expired, 1);
  EXPECT_EQ(result.workers_quarantined, 1);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  ExpectMatchesReference(result, ref);
}

// --- graceful drain + resume ----------------------------------------------

TEST_F(FleetTest, GracefulShutdownDrainsAndResumeCompletes) {
  FleetConfig config = BaseConfig();
  config.shard_budget = 5000;
  Reference ref = RunReference(config);
  const std::string fleet_dir = FreshDir("drain");

  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = fleet_dir;
  options.status_every_ms = 5;  // status.json follows merges closely
  // Stop once status.json shows a merged shard: the drain then lands
  // mid-campaign on any build speed, with at least one shard to keep.
  std::atomic<bool> stop{false};
  std::atomic<bool> fleet_returned{false};
  std::thread stopper([&] {
    while (!fleet_returned.load() && StatusShardsDone(fleet_dir) < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });
  options.stop_flag = &stop;
  FleetResult drained = RunFleet(options);
  fleet_returned.store(true);
  stopper.join();
  ASSERT_TRUE(drained.status.ok()) << drained.status.ToString();
  EXPECT_TRUE(drained.stopped_early);
  EXPECT_LT(drained.shards_done.size(),
            static_cast<size_t>(config.num_shards));

  // Partial (drained) results were discarded, not merged: resume reproduces
  // the uninterrupted campaign exactly.
  options.stop_flag = nullptr;
  options.resume = true;
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_FALSE(result.stopped_early);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  ExpectMatchesReference(result, ref);
}

// --- merged bug ids --------------------------------------------------------

TEST_F(FleetTest, MergedBugIdsNameEveryBugClass) {
  // fleet_cli prints these on its "bug ids" line, which is what CI greps
  // for DUR-* and ISO-* findings: crash ids verbatim, logic findings under
  // their triage ids.
  FleetResult result;
  result.crashes[1].bug_id = "DUR-LOST-COMMIT";
  result.crashes[2].bug_id = "PG-OPT-01";
  result.logic[3].check = "iso-lost-update";
  result.logic[4].check = "tlp";
  EXPECT_EQ(result.merged_bug_ids(),
            (std::set<std::string>{"DUR-LOST-COMMIT", "ISO-LOST-UPDATE",
                                   "LOGIC-TLP", "PG-OPT-01"}));
}

// --- journal round trip ----------------------------------------------------

TEST_F(FleetTest, JournalRoundTripsMergedState) {
  FleetConfig config = BaseConfig();
  config.num_shards = 2;
  config.shard_budget = 300;

  FleetOptions options;
  options.config = config;
  options.num_workers = 1;
  options.fleet_dir = FreshDir("journal");
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  FleetResult loaded;
  ASSERT_TRUE(LoadJournal(options.fleet_dir, config, &loaded).ok());
  EXPECT_EQ(loaded.executions, result.executions);
  EXPECT_EQ(loaded.shards_done, result.shards_done);
  EXPECT_EQ(loaded.crash_hashes(), result.crash_hashes());
  EXPECT_EQ(loaded.logic_fingerprints(), result.logic_fingerprints());
  EXPECT_EQ(loaded.edges(), result.edges());
  EXPECT_EQ(loaded.corpus.size(), result.corpus.size());
  EXPECT_EQ(loaded.corpus_pending.size(), result.corpus_pending.size());
  for (const auto& [hash, origin] : result.crash_origins) {
    EXPECT_EQ(loaded.crash_origins[hash], origin);
  }
  for (const auto& [fp, origin] : result.logic_origins) {
    EXPECT_EQ(loaded.logic_origins[fp], origin);
  }
  EXPECT_EQ(loaded.crash_shards, result.crash_shards);
  EXPECT_EQ(loaded.logic_shards, result.logic_shards);
  EXPECT_EQ(loaded.bug_digest(), result.bug_digest());
}

TEST_F(FleetTest, OldJournalLayoutIsRefused) {
  // Version 3 had the current fingerprint layout, but its concurrent shards
  // ran every interleaving from one fixed seed; version 4 had no records
  // after its snapshot. Both must be refused with a version error, not
  // merged with shards run since.
  FleetConfig config = BaseConfig();
  const std::string fleet_dir = FreshDir("old_journal");
  ASSERT_TRUE(minidb::Env::Posix()->CreateDir(fleet_dir).ok());
  for (uint32_t version : {3u, 4u}) {
    persist::StateWriter w;
    w.BeginChunk(persist::ChunkTag("FLFP"));
    w.WriteU32(version);  // layout version
    w.WriteString(config.profile);
    w.WriteString(config.fuzzer);
    w.WriteU64(config.base_seed);
    w.WriteU32(static_cast<uint32_t>(config.num_shards));
    w.WriteU32(static_cast<uint32_t>(config.shard_budget));
    w.WriteString(config.oracle_spec);
    w.WriteBool(config.rule_coverage);
    w.WriteString("inproc");
    w.WriteString("mem");
    w.WriteU32(static_cast<uint32_t>(config.distill_every));
    w.EndChunk();
    ASSERT_TRUE(w.WriteFileAtomic(JournalPath(fleet_dir)).ok());

    FleetResult loaded;
    Status st = LoadJournal(fleet_dir, config, &loaded);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("layout version " + std::to_string(version)),
              std::string::npos)
        << st.ToString();
  }
  (void)minidb::Env::Posix()->RemoveDirRecursive(fleet_dir);
}

// --- snapshot + appended records -------------------------------------------

TEST_F(FleetTest, ReplayedRecordsMatchTheSnapshot) {
  // Generations of three: shards 0-2 end in a distill snapshot, shard 3
  // lands in the pending exports and shard 5 is held for shard 4. The log
  // after the snapshot must rebuild every journaled field that a snapshot
  // of the same in-memory state holds.
  FleetConfig config = BaseConfig();
  config.num_shards = 9;
  config.shard_budget = 300;
  config.distill_every = 3;
  const std::string fleet_dir = FreshDir("replay");
  FleetResult live;
  std::vector<size_t> sizes =
      JournalInProcess(config, {0, 1, 2, 3}, fleet_dir, &live);
  ASSERT_EQ(live.distill_cycles, 1);
  // Counters that no outcome carries travel in the records.
  live.shards_requeued = 2;
  live.duplicate_results = 1;
  auto outcome = ExecuteShard(config, 5, live.corpus, nullptr, {});
  ASSERT_TRUE(outcome.ok());
  const std::string envelope = EncodeShardOutcome(*outcome);
  ASSERT_TRUE(AcceptShard(config, std::move(*outcome), "w1@test", &live).ok());
  ASSERT_TRUE(AppendJournal(fleet_dir, 5, envelope, "w1@test", live).ok());
  ASSERT_FALSE(live.corpus.empty());
  ASSERT_FALSE(live.corpus_pending.empty());
  ASSERT_EQ(live.held_exports.size(), 1u);
  // A record of a shard the state already holds changes nothing.
  ASSERT_TRUE(AppendJournal(fleet_dir, 5, envelope, "w1@test", live).ok());

  FleetResult replayed;
  ASSERT_TRUE(LoadJournal(fleet_dir, config, &replayed).ok());
  const std::string snap_dir = FreshDir("replay_snapshot");
  ASSERT_TRUE(minidb::Env::Posix()->CreateDir(snap_dir).ok());
  ASSERT_TRUE(SaveJournal(snap_dir, config, live).ok());
  FleetResult snapshot;
  ASSERT_TRUE(LoadJournal(snap_dir, config, &snapshot).ok());
  ExpectSameJournaledState(replayed, snapshot);
  EXPECT_EQ(replayed.shards_done, (std::set<int>{0, 1, 2, 3, 5}));
  // The distill snapshot is the file's third write: records follow it.
  EXPECT_LT(sizes[3], std::filesystem::file_size(JournalPath(fleet_dir)));
  (void)minidb::Env::Posix()->RemoveDirRecursive(fleet_dir);
  (void)minidb::Env::Posix()->RemoveDirRecursive(snap_dir);
}

TEST_F(FleetTest, ReplayStopsAtATornOrCorruptRecord) {
  FleetConfig config = BaseConfig();
  Reference ref = RunReference(config);
  const std::string fleet_dir = FreshDir("torn");
  FleetResult live;
  // sizes[j] is where record j starts.
  std::vector<size_t> sizes =
      JournalInProcess(config, {0, 1, 2, 3}, fleet_dir, &live);
  ASSERT_EQ(sizes.size(), 5u);

  // What the journal holds with records 0 and 1 only.
  const std::string whole_dir = FreshDir("torn_whole");
  CopyJournal(fleet_dir, whole_dir, sizes[2]);
  FleetResult two;
  ASSERT_TRUE(LoadJournal(whole_dir, config, &two).ok());
  ASSERT_EQ(two.shards_done, (std::set<int>{0, 1}));

  // Record 2 cut in half, or with one byte flipped: replay keeps the
  // records before it, and drops record 3 after it.
  const size_t middle = (sizes[2] + sizes[3]) / 2;
  const std::string cut_dir = FreshDir("torn_cut");
  const std::string flip_dir = FreshDir("torn_flip");
  CopyJournal(fleet_dir, cut_dir, middle);
  CopyJournal(fleet_dir, flip_dir, sizes[4], middle);
  for (const std::string& dir : {cut_dir, flip_dir}) {
    SCOPED_TRACE(dir);
    FleetResult loaded;
    ASSERT_TRUE(LoadJournal(dir, config, &loaded).ok());
    ExpectSameJournaledState(loaded, two);
    FleetResult resumed = ResumeFleet(config, dir, 2);
    ExpectMatchesReference(resumed, ref);
  }
  for (const std::string& dir : {fleet_dir, whole_dir, cut_dir, flip_dir}) {
    (void)minidb::Env::Posix()->RemoveDirRecursive(dir);
  }
}

TEST_F(FleetTest, KillAtAnAppendAfterADistillSnapshotResumes) {
  // Generations of two over four shards: write 3 is the distill snapshot of
  // shards 0-1, write 4 appends the first shard of generation 1, and
  // write 5 is the second distill snapshot. Killed at 4, the journal is
  // that snapshot alone; killed at 5, it is the snapshot and one record.
  FleetConfig config = BaseConfig();
  config.distill_every = 2;
  Reference ref = RunReference(config);
  for (int kill : {4, 5}) {
    SCOPED_TRACE("kill:" + std::to_string(kill));
    const std::string fleet_dir = FreshDir("distill_append");
    RunKilledFleet(config, fleet_dir, 2,
                   "fleet.journal_write=kill:" + std::to_string(kill));
    FleetResult journaled;
    ASSERT_TRUE(LoadJournal(fleet_dir, config, &journaled).ok());
    EXPECT_EQ(journaled.shards_done.size(), static_cast<size_t>(kill - 2));
    EXPECT_EQ(journaled.distill_cycles, 1);
    FleetResult result = ResumeFleet(config, fleet_dir, 2);
    ExpectPoolMatchesReference(result, ref);
    (void)minidb::Env::Posix()->RemoveDirRecursive(fleet_dir);
  }
}

TEST_F(FleetTest, FailedAppendIsFollowedByASnapshot) {
  // One worker accepts shards in id order. Write 2, shard 0's record,
  // fails; write 3 must then be a snapshot holding shards 0 and 1, or the
  // records after the gap would journal a fleet without shard 0.
  FleetConfig config = BaseConfig();
  Reference ref = RunReference(config);
  ASSERT_TRUE(chaos::ArmSpec("fleet.journal_write=nth:2", 1).ok());
  FleetOptions options;
  options.config = config;
  options.num_workers = 1;
  options.fleet_dir = FreshDir("failed_append");
  FleetResult result = RunFleet(options);
  chaos::DisarmAll();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.journal_failures, 1);
  ExpectMatchesReference(result, ref);

  FleetResult journaled;
  ASSERT_TRUE(LoadJournal(options.fleet_dir, config, &journaled).ok());
  ExpectSameJournaledState(journaled, result);
  auto bytes = minidb::Env::Posix()->ReadFile(JournalPath(options.fleet_dir));
  ASSERT_TRUE(bytes.ok());
  const std::string snap_dir = FreshDir("failed_append_snapshot");
  CopyJournal(options.fleet_dir, snap_dir,
              persist::LeadingEnvelopeSize(*bytes));
  FleetResult snapshot;
  ASSERT_TRUE(LoadJournal(snap_dir, config, &snapshot).ok());
  EXPECT_EQ(snapshot.shards_done, (std::set<int>{0, 1}));
  (void)minidb::Env::Posix()->RemoveDirRecursive(options.fleet_dir);
  (void)minidb::Env::Posix()->RemoveDirRecursive(snap_dir);
}

}  // namespace
}  // namespace lego::fleet
