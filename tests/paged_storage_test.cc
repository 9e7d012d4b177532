// Paged-heap source-of-truth tests: scans stay correct when the working
// set exceeds the buffer pool (rows genuinely evict and reload through
// Env), and the steal/undo protocol recovers correctly — streamed records
// of unresolved transactions reach the durable WAL mid-transaction and the
// redo-then-undo pass rolls them back via their before-images.

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/storage_engine.h"
#include "minidb/storage_serde.h"
#include "sql/parser.h"

namespace lego::minidb {
namespace {

class PagedStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profile_ = DialectProfile::ByName("pglite");
    ASSERT_NE(profile_, nullptr);
    MakeEngine();
    db_ = std::make_unique<Database>(profile_);
    ASSERT_TRUE(engine_->ResetFresh(db_.get()).ok());
  }

  void MakeEngine(size_t pool_frames = 4, size_t steal_flush_bytes = 1) {
    StorageEngine::Options opts;
    opts.env = &env_;
    opts.dir = "db";
    opts.pool_frames = pool_frames;
    // Tiny steal threshold: every in-transaction statement's records are
    // pushed to the durable log immediately, maximizing undo exposure.
    opts.steal_flush_bytes = steal_flush_bytes;
    engine_ = std::make_unique<StorageEngine>(opts);
  }

  // The database brackets each statement for the engine, its storage
  // hook; these scripts never degrade it.
  void Exec(const std::string& sql) {
    auto stmts = sql::Parser::ParseScript(sql + ";");
    ASSERT_TRUE(stmts.ok()) << sql;
    for (const sql::StmtPtr& stmt : stmts.value()) {
      (void)db_->Execute(*stmt);
      ASSERT_FALSE(engine_->degraded()) << sql;
    }
  }

  size_t QueryRowCount(const std::string& sql) {
    auto stmts = sql::Parser::ParseScript(sql + ";");
    EXPECT_TRUE(stmts.ok()) << sql;
    if (!stmts.ok() || stmts->size() != 1) return 0;
    auto result = db_->Execute(*stmts.value()[0]);
    EXPECT_FALSE(engine_->degraded()) << sql;
    EXPECT_TRUE(result.ok()) << sql;
    return result.ok() ? result->rows.size() : 0;
  }

  uint64_t CrashAndRecoverDigest(size_t pool_frames = 4) {
    env_.SimulateCrash();
    MakeEngine(pool_frames);
    db_ = std::make_unique<Database>(profile_);
    Status st = engine_->OpenOrRecover(db_.get());
    EXPECT_TRUE(st.ok()) << st.ToString();
    return StateDigest(db_->catalog());
  }

  const DialectProfile* profile_ = nullptr;
  MemEnv env_;
  std::unique_ptr<StorageEngine> engine_;
  std::unique_ptr<Database> db_;
};

// A working set far beyond 4 frames must still scan, point-read, and
// aggregate correctly: rows round-trip through eviction and reload rather
// than living in pool frames.
TEST_F(PagedStorageTest, ScansStayCorrectUnderEvictionPressure) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  const std::string filler(200, 'x');
  for (int i = 0; i < 300; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '" + filler +
         "')");
  }
  EXPECT_GT(engine_->stats().pool.evictions, 0u)
      << "dataset did not exceed the pool; the test is vacuous";

  EXPECT_EQ(QueryRowCount("SELECT a FROM t"), 300u);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t WHERE a = 299"), 1u);
  Exec("DELETE FROM t WHERE a < 100");
  EXPECT_EQ(QueryRowCount("SELECT a FROM t"), 200u);
  Exec("UPDATE t SET b = 'y' WHERE a >= 290");
  EXPECT_EQ(QueryRowCount("SELECT a FROM t WHERE b = 'y'"), 10u);

  // The same script against a plain in-memory database lands on the same
  // state: eviction/reload is invisible to execution semantics.
  Database mem_db(profile_);
  auto run = [&](const std::string& sql) {
    auto stmts = sql::Parser::ParseScript(sql + ";");
    ASSERT_TRUE(stmts.ok());
    for (const sql::StmtPtr& stmt : stmts.value()) {
      (void)mem_db.Execute(*stmt);
    }
  };
  run("CREATE TABLE t (a INT, b TEXT)");
  for (int i = 0; i < 300; ++i) {
    run("INSERT INTO t VALUES (" + std::to_string(i) + ", '" + filler +
        "')");
  }
  run("DELETE FROM t WHERE a < 100");
  run("UPDATE t SET b = 'y' WHERE a >= 290");
  EXPECT_EQ(StateDigest(db_->catalog()), StateDigest(mem_db.catalog()));
}

// Evicted-and-reloaded state must survive a crash exactly like pool-hot
// state: the recovery replay is driven by the WAL, not by what happened to
// be resident.
TEST_F(PagedStorageTest, EvictedStateSurvivesCrash) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  const std::string filler(200, 'x');
  for (int i = 0; i < 200; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", '" + filler +
         "')");
  }
  ASSERT_GT(engine_->stats().pool.evictions, 0u);
  const uint64_t before = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), before);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t"), 200u);
}

// The steal policy's core obligation: an open transaction's records reach
// the durable log mid-transaction, and recovery must undo them (the
// transaction never committed) instead of replaying them as committed work.
TEST_F(PagedStorageTest, StealFlushedUncommittedWorkIsUndone) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  Exec("INSERT INTO t VALUES (1, 'committed')");
  const uint64_t committed = StateDigest(db_->catalog());

  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2, 'stolen')");
  Exec("UPDATE t SET b = 'dirty' WHERE a = 1");
  Exec("DELETE FROM t WHERE a = 1");
  ASSERT_GT(engine_->stats().steal_flushes, 0u)
      << "no mid-transaction flush happened; the test is vacuous";
  // No COMMIT: the flushed records are losers.
  EXPECT_EQ(CrashAndRecoverDigest(), committed);
  EXPECT_GT(engine_->stats().loser_records, 0u);
  EXPECT_GT(engine_->stats().undo_applied, 0u);
  EXPECT_EQ(QueryRowCount("SELECT b FROM t WHERE b = 'committed'"), 1u);
}

// An explicit ROLLBACK after streamed records appends a compensating abort;
// work committed afterwards (possibly reusing the undone row ids) must
// survive a later crash.
TEST_F(PagedStorageTest, RollbackOfStreamedRecordsThenCommitRecovers) {
  Exec("CREATE TABLE t (a INT)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1)");
  Exec("INSERT INTO t VALUES (2)");
  Exec("ROLLBACK");
  Exec("INSERT INTO t VALUES (3)");
  const uint64_t before = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), before);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t"), 1u);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t WHERE a = 3"), 1u);
}

// ROLLBACK TO with streamed records appends kAbortTo; the partial undo must
// replay at its log position so the committed suffix lands on the right
// heap state.
TEST_F(PagedStorageTest, SavepointPartialUndoOfStreamedRecordsRecovers) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 'keep')");
  Exec("SAVEPOINT sp");
  Exec("INSERT INTO t VALUES (2, 'drop')");
  Exec("UPDATE t SET b = 'mutated' WHERE a = 1");
  Exec("ROLLBACK TO sp");
  Exec("INSERT INTO t VALUES (3, 'after')");
  Exec("COMMIT");
  const uint64_t before = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), before);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t"), 2u);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t WHERE b = 'keep'"), 1u);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t WHERE b = 'after'"), 1u);
}

// A second crash immediately after a losers pass must recover to the same
// state: the compensating kAbort markers written at recovery keep the undo
// from re-running against reused row ids.
TEST_F(PagedStorageTest, RepeatedCrashAfterUndoIsIdempotent) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2)");
  const uint64_t first = CrashAndRecoverDigest();
  // New committed work after recovery, then another crash.
  Exec("INSERT INTO t VALUES (3)");
  const uint64_t extended = StateDigest(db_->catalog());
  ASSERT_NE(extended, first);
  EXPECT_EQ(CrashAndRecoverDigest(), extended);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t"), 2u);
}

// Mixed mode: once a transaction logs a logical record (schema change),
// the remainder defers; an unresolved such transaction must vanish wholly.
TEST_F(PagedStorageTest, LogicalModeTransactionVanishesWholly) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  const uint64_t committed = StateDigest(db_->catalog());
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2)");       // streamed
  Exec("CREATE TABLE u (b INT)");         // logical: rest defers
  Exec("INSERT INTO u VALUES (3)");       // deferred
  Exec("INSERT INTO t VALUES (4)");       // deferred
  EXPECT_EQ(CrashAndRecoverDigest(), committed);
  EXPECT_EQ(QueryRowCount("SELECT a FROM t"), 1u);
}

}  // namespace
}  // namespace lego::minidb
