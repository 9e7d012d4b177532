#include "fuzz/backend_concurrent.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "concurrency/history_checker.h"
#include "fuzz/harness.h"
#include "fuzz/multi_case.h"
#include "fuzz/testcase.h"
#include "minidb/profile.h"
#include "minidb/storage_engine.h"
#include "minidb/storage_serde.h"
#include "sql/parser.h"
#include "util/hash.h"

namespace lego::fuzz {
namespace {

TestCase Parse(const char* sql_text) {
  auto tc = TestCase::FromSql(sql_text);
  EXPECT_TRUE(tc.ok()) << tc.status().ToString();
  return std::move(*tc);
}

/// Hand-built two-session case: setup creates the table, each session gets
/// its own script (no seeded splitting — the test controls contention).
MultiSessionCase TwoSessions(const char* setup, const char* s0,
                             const char* s1) {
  MultiSessionCase mc;
  mc.setup = Parse(setup);
  mc.sessions.push_back(Parse(s0));
  mc.sessions.push_back(Parse(s1));
  return mc;
}

BackendOptions ConcurrentOptions() {
  BackendOptions options;
  options.kind = BackendKind::kConcurrent;
  options.sessions = 2;
  return options;
}

constexpr const char* kSetup =
    "CREATE TABLE t (a INT, b INT);"
    "INSERT INTO t VALUES (1, 10);"
    "INSERT INTO t VALUES (2, 20);";

TEST(ConcurrentBackendTest, CleanRmwCaseHasNoAnomalies) {
  ConcurrentBackend backend(minidb::DialectProfile::PgLite(),
                            ConcurrentOptions());
  MultiSessionCase mc = TwoSessions(
      kSetup,
      "UPDATE t SET b = b + 1 WHERE a = 1; SELECT b FROM t;",
      "UPDATE t SET b = b + 1 WHERE a = 1; SELECT a FROM t;");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    backend.Reset();
    auto result = backend.RunCase(mc, seed);
    EXPECT_FALSE(result.stats.crashed);
    EXPECT_EQ(result.setup_errors, 0);
    auto anomaly = concurrency::CheckHistory(backend.history());
    EXPECT_FALSE(anomaly.has_value())
        << "seed " << seed << ": " << anomaly->id << " — " << anomaly->detail
        << "\n" << backend.history().Render();
  }
}

TEST(ConcurrentBackendTest, SameSeedReplaysBitIdentically) {
  ConcurrentBackend backend(minidb::DialectProfile::PgLite(),
                            ConcurrentOptions());
  MultiSessionCase mc = TwoSessions(
      kSetup,
      "BEGIN; UPDATE t SET b = b + 1 WHERE a = 1; SELECT b FROM t; COMMIT;",
      "BEGIN; UPDATE t SET b = b * 2 WHERE a = 1; DELETE FROM t WHERE a = 2;"
      " COMMIT;");
  backend.Reset();
  auto first = backend.RunCase(mc, 42);
  ASSERT_FALSE(first.stats.crashed);
  for (int rerun = 0; rerun < 50; ++rerun) {
    backend.Reset();
    auto again = backend.RunCase(mc, 42);
    ASSERT_EQ(again.stats.trace_digest, first.stats.trace_digest)
        << "rerun " << rerun;
    ASSERT_EQ(again.stats.history_digest, first.stats.history_digest)
        << "rerun " << rerun;
    ASSERT_EQ(again.stats.executed, first.stats.executed);
    ASSERT_EQ(again.stats.errors, first.stats.errors);
    ASSERT_EQ(again.stats.epochs, first.stats.epochs);
    ASSERT_EQ(again.stats.switches, first.stats.switches);
  }
}

TEST(ConcurrentBackendTest, DifferentSeedsProduceDistinctInterleavings) {
  ConcurrentBackend backend(minidb::DialectProfile::PgLite(),
                            ConcurrentOptions());
  MultiSessionCase mc = TwoSessions(
      kSetup,
      "UPDATE t SET b = b + 1 WHERE a = 1;"
      "UPDATE t SET b = b + 1 WHERE a = 2; SELECT b FROM t;",
      "UPDATE t SET b = b * 2 WHERE a = 1;"
      "UPDATE t SET b = b * 2 WHERE a = 2; SELECT b FROM t;");
  std::set<uint64_t> traces;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    backend.Reset();
    auto result = backend.RunCase(mc, seed);
    ASSERT_FALSE(result.stats.crashed);
    traces.insert(result.stats.trace_digest);
  }
  // 16 seeds over dozens of schedule points: at least two genuinely
  // different interleavings must appear (in practice nearly all differ).
  EXPECT_GT(traces.size(), 1u);
}

TEST(ConcurrentBackendTest, PlantedLostUpdateIsDetected) {
  BackendOptions options = ConcurrentOptions();
  options.planted_lost_update = true;
  ConcurrentBackend backend(minidb::DialectProfile::PgLite(), options);
  // Classic unprotected RMW: both sessions increment the same row.
  MultiSessionCase mc = TwoSessions(
      kSetup,
      "UPDATE t SET b = b + 1 WHERE a = 1;",
      "UPDATE t SET b = b + 1 WHERE a = 1;");
  bool found = false;
  for (uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    backend.Reset();
    auto result = backend.RunCase(mc, seed);
    ASSERT_FALSE(result.stats.crashed);
    auto anomaly = concurrency::CheckHistory(backend.history());
    if (anomaly.has_value()) {
      EXPECT_EQ(anomaly->id, "iso-lost-update") << anomaly->detail;
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no interleaving in 32 seeds exposed the plant";
}

TEST(ConcurrentBackendTest, PlantedDirtyReadIsDetected) {
  BackendOptions options = ConcurrentOptions();
  options.planted_dirty_read = true;
  ConcurrentBackend backend(minidb::DialectProfile::PgLite(), options);
  // A long writer txn and an autocommit reader of the same row.
  MultiSessionCase mc = TwoSessions(
      kSetup,
      "BEGIN; UPDATE t SET b = 99 WHERE a = 1;"
      " UPDATE t SET b = 98 WHERE a = 2; COMMIT;",
      "SELECT b FROM t; SELECT b FROM t;");
  bool found = false;
  for (uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    backend.Reset();
    auto result = backend.RunCase(mc, seed);
    ASSERT_FALSE(result.stats.crashed);
    auto anomaly = concurrency::CheckHistory(backend.history());
    if (anomaly.has_value()) {
      EXPECT_TRUE(anomaly->id == "iso-dirty-read" ||
                  anomaly->id == "iso-non-repeatable-read")
          << anomaly->id << " — " << anomaly->detail;
      found = anomaly->id == "iso-dirty-read";
    }
  }
  EXPECT_TRUE(found) << "no interleaving in 32 seeds exposed the plant";
}

TEST(ConcurrentBackendTest, UpgradeDeadlockResolvesViaVictimAbort) {
  ConcurrentBackend backend(minidb::DialectProfile::PgLite(),
                            ConcurrentOptions());
  // Scans acquire rows in heap order, so opposed-order UPDATE deadlocks
  // cannot form; the reachable deadlock shape is the S->X upgrade race:
  // both txns S-lock the row via SELECT, then both try to upgrade for the
  // UPDATE. The second upgrader closes the wait-for cycle and must die.
  MultiSessionCase mc = TwoSessions(
      kSetup,
      "BEGIN; SELECT b FROM t; UPDATE t SET b = 1 WHERE a = 1; COMMIT;",
      "BEGIN; SELECT b FROM t; UPDATE t SET b = 2 WHERE a = 1; COMMIT;");
  int deadlocks = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    backend.Reset();
    auto result = backend.RunCase(mc, seed);
    ASSERT_FALSE(result.stats.crashed);
    deadlocks += result.stats.deadlocks;
    // Whatever happened, the post-state must be lock-consistent: verify the
    // history carries no anomaly (the victim's txn rolled back cleanly).
    auto anomaly = concurrency::CheckHistory(backend.history());
    EXPECT_FALSE(anomaly.has_value())
        << "seed " << seed << ": " << anomaly->id << " — " << anomaly->detail;
  }
  EXPECT_GT(deadlocks, 0) << "no seed produced an actual deadlock";
}

TEST(ConcurrentBackendTest, CrashUnwindsParkedSessionsAndReplays) {
  // Session 0 runs marialite's INSERT -> UPDATE -> DELETE trigger
  // (MA-DML-01) on its own table, so it always reaches the crash, while
  // sessions 1 and 2 sit parked inside open transactions that contend for
  // row a = 1. The crash aborts the run: every parked session must wake,
  // unwind, and leave the backend reusable for an identical replay.
  BackendOptions options = ConcurrentOptions();
  options.sessions = 3;
  ConcurrentBackend backend(minidb::DialectProfile::MariaLite(), options);
  MultiSessionCase mc;
  mc.setup = Parse(
      "CREATE TABLE t (a INT, b INT);"
      "INSERT INTO t VALUES (1, 10);"
      "INSERT INTO t VALUES (2, 20);"
      "CREATE TABLE u (x INT);");
  mc.sessions.push_back(Parse(
      "INSERT INTO u VALUES (1); UPDATE u SET x = 2; DELETE FROM u;"));
  mc.sessions.push_back(Parse(
      "BEGIN; UPDATE t SET b = b + 1 WHERE a = 1; SELECT b FROM t;"
      " UPDATE t SET b = b + 1 WHERE a = 2; COMMIT;"));
  mc.sessions.push_back(Parse(
      "BEGIN; UPDATE t SET b = b * 2 WHERE a = 1; SELECT a FROM t; COMMIT;"));
  const int total_statements = 3 + 5 + 4;

  for (uint64_t seed = 1; seed <= 16; ++seed) {
    backend.Reset();
    auto first = backend.RunCase(mc, seed);
    ASSERT_TRUE(first.stats.crashed) << "seed " << seed;
    ASSERT_TRUE(first.stats.crash.has_value());
    EXPECT_EQ(first.stats.crash->bug_id, "MA-DML-01");
    EXPECT_EQ(first.stats.crash->component, "DML");
    EXPECT_LT(first.stats.executed + first.stats.errors, total_statements);

    // Sessions 1 and 2 began their transactions before session 0's third
    // statement, and the crash left them neither committed nor aborted.
    std::set<uint64_t> open;
    for (const concurrency::Event& e : backend.history().events()) {
      if (e.session == 0) continue;
      if (e.type == concurrency::Event::Type::kBegin) open.insert(e.txn);
      if (e.type == concurrency::Event::Type::kCommit ||
          e.type == concurrency::Event::Type::kAbort) {
        open.erase(e.txn);
      }
    }
    EXPECT_FALSE(open.empty()) << "seed " << seed << "\n"
                               << backend.history().Render();

    backend.Reset();
    auto again = backend.RunCase(mc, seed);
    ASSERT_TRUE(again.stats.crashed);
    ASSERT_TRUE(again.stats.crash.has_value());
    EXPECT_EQ(again.stats.crash->bug_id, first.stats.crash->bug_id);
    EXPECT_EQ(again.stats.trace_digest, first.stats.trace_digest);
    EXPECT_EQ(again.stats.history_digest, first.stats.history_digest);
    EXPECT_EQ(again.stats.executed, first.stats.executed);
    EXPECT_EQ(again.stats.errors, first.stats.errors);
  }
}

TEST(ConcurrentBackendTest, HarnessDerivedSeedsAreCheckpointStable) {
  // The harness derives each case's seed from (campaign seed, execution
  // index); a forced seed overrides it. Replaying the same case with the
  // same forced seed must reproduce digests exactly.
  BackendOptions options = ConcurrentOptions();
  options.concurrency_seed = 7;
  ExecutionHarness harness(minidb::DialectProfile::PgLite(), options);
  TestCase tc = Parse(
      "CREATE TABLE t (a INT, b INT);"
      "INSERT INTO t VALUES (1, 10);"
      "UPDATE t SET b = b + 1 WHERE a = 1;"
      "UPDATE t SET b = b * 2 WHERE a = 1;"
      "SELECT b FROM t;");
  ExecResult first = harness.Run(tc);
  EXPECT_EQ(first.interleave_seed, HashMix(7, 1));

  harness.set_forced_interleave_seed(first.interleave_seed);
  ExecResult replay = harness.Run(tc);
  EXPECT_EQ(replay.interleave_seed, first.interleave_seed);
  EXPECT_EQ(replay.trace_digest, first.trace_digest);
  EXPECT_EQ(replay.history_digest, first.history_digest);
  EXPECT_EQ(replay.executed, first.executed);
  EXPECT_EQ(replay.errors, first.errors);

  harness.set_forced_interleave_seed(std::nullopt);
  ExecResult derived = harness.Run(tc);  // execution 3 -> a different seed
  EXPECT_EQ(derived.interleave_seed, HashMix(7, 3));
}

TEST(ConcurrentBackendTest, SingleSessionFallsBackToSerialPath) {
  // sessions=1 must not route through the scheduler at all: the serial
  // in-process path keeps single-session campaigns bit-identical.
  BackendOptions options = ConcurrentOptions();
  options.sessions = 1;
  ExecutionHarness concurrent(minidb::DialectProfile::PgLite(), options);
  ExecutionHarness inproc(minidb::DialectProfile::PgLite());
  TestCase tc = Parse(
      "CREATE TABLE t (a INT);"
      "INSERT INTO t VALUES (1);"
      "UPDATE t SET a = a + 1;"
      "SELECT a FROM t;");
  ExecResult a = concurrent.Run(tc);
  ExecResult b = inproc.Run(tc);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.total_edges, b.total_edges);
  EXPECT_EQ(a.interleave_seed, 0u);  // serial path: no seed derived
}

TEST(ConcurrentBackendTest, PagedSessionsAreCheckpointedNotLogged) {
  // On paged storage the sessions' statements write no WAL record of their
  // own: the case's only storage work after its serial setup is the
  // checkpoint that makes the concurrent phase durable.
  const std::string dir = ::testing::TempDir() + "concurrent_backend_paged_db";
  std::filesystem::remove_all(dir);
  BackendOptions options = ConcurrentOptions();
  options.storage = StorageKind::kPaged;
  options.db_dir = dir;
  {
    ConcurrentBackend backend(minidb::DialectProfile::PgLite(), options);
    ASSERT_NE(backend.storage_engine(), nullptr);
    backend.Reset();
    auto setup = sql::Parser::ParseScript(kSetup);
    ASSERT_TRUE(setup.ok());
    for (const sql::StmtPtr& stmt : setup.value()) {
      ASSERT_EQ(backend.Execute(*stmt, /*want_rows=*/false).status,
                StmtOutcome::Status::kOk);
    }
    const BackendStorageStats before = backend.storage_stats();
    ASSERT_GT(before.wal_records, 0u);  // the serial setup is logged

    MultiSessionCase mc;
    mc.sessions.push_back(Parse(
        "INSERT INTO t VALUES (3, 30); UPDATE t SET b = b + 1 WHERE a = 1;"
        " BEGIN; DELETE FROM t WHERE a = 2; COMMIT;"));
    mc.sessions.push_back(Parse(
        "INSERT INTO t VALUES (4, 40); UPDATE t SET b = b * 2 WHERE a = 3;"));
    auto result = backend.RunCase(mc, 11);
    ASSERT_FALSE(result.stats.crashed);
    EXPECT_EQ(result.stats.errors, 0);
    EXPECT_GT(result.stats.executed, 0);

    const BackendStorageStats after = backend.storage_stats();
    EXPECT_EQ(after.wal_records, before.wal_records);
    EXPECT_EQ(after.wal_bytes, before.wal_bytes);
    EXPECT_EQ(after.commits, before.commits);
    EXPECT_EQ(after.fsyncs, before.fsyncs);
    EXPECT_EQ(after.checkpoints, before.checkpoints + 1);

    // The checkpoint alone carries the sessions' writes to disk.
    minidb::Database recovered(&minidb::DialectProfile::PgLite());
    minidb::WalLoadStats wal_stats;
    ASSERT_TRUE(minidb::StorageEngine::RecoverInto(minidb::Env::Posix(), dir,
                                                   &recovered, &wal_stats)
                    .ok());
    EXPECT_EQ(minidb::StateDigest(recovered.catalog()),
              minidb::StateDigest(backend.database().catalog()));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lego::fuzz
