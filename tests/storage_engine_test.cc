// Storage-engine crash/recovery tests over the in-memory Env: committed
// work survives SimulateCrash, uncommitted and rolled-back work stays
// invisible, checkpoints rotate generations, mem and paged execution reach
// identical digests, the planted skip-fsync defect observably loses
// acknowledged commits, and a per-case ResetFresh — after a plain case, a
// checkpoint, a failed checkpoint or a recovery — leaves nothing of the
// previous case behind.

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/storage_engine.h"
#include "minidb/storage_serde.h"
#include "minidb/wal.h"
#include "sql/parser.h"

namespace lego::minidb {
namespace {

// Runs a script statement by statement; the database brackets each one
// for `engine`, its storage hook. Unless the engine is degraded (it then
// stops logging), a CHECKPOINT run outside a transaction must complete.
void ExecOn(StorageEngine* engine, Database* db, const std::string& sql) {
  auto stmts = sql::Parser::ParseScript(sql + ";");
  ASSERT_TRUE(stmts.ok()) << sql;
  for (const sql::StmtPtr& stmt : stmts.value()) {
    const bool must_checkpoint =
        stmt->type() == sql::StatementType::kCheckpoint &&
        !engine->degraded() && !db->session().in_transaction;
    const uint64_t checkpoints = engine->stats().checkpoints;
    Status st = db->Execute(*stmt).status();
    if (must_checkpoint && st.ok()) {
      ASSERT_EQ(engine->stats().checkpoints, checkpoints + 1) << sql;
    }
  }
}

// One INSERT of `rows` rows: at 64 rows a logical page, 700 rows span
// eleven page chains, more than the fixture's eight pool frames.
std::string BulkInsert(const std::string& table, int rows) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) sql += ", ";
    sql += '(';
    sql += std::to_string(i);
    sql += ", 'v')";
  }
  return sql;
}

void ExecAll(StorageEngine* engine, Database* db,
             const std::vector<std::string>& script) {
  for (const std::string& sql : script) ExecOn(engine, db, sql);
}

// A MemEnv whose next atomic file write (the manifest) can be made to
// fail with MemEnv's own write or sync fault, so a checkpoint can fail at
// its manifest flip after its snapshot and new log are in place.
class ManifestFaultEnv : public MemEnv {
 public:
  void FailNextManifest(bool sync) { manifest_fault_ = sync ? 2 : 1; }

  Status WriteFileAtomic(const std::string& path,
                         std::string_view content) override {
    if (manifest_fault_ == 1) FailNextWrites(1);
    if (manifest_fault_ == 2) FailNextSyncs(1);
    manifest_fault_ = 0;
    return MemEnv::WriteFileAtomic(path, content);
  }

 private:
  int manifest_fault_ = 0;  // 0 none, 1 write, 2 sync
};

class StorageEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profile_ = DialectProfile::ByName("pglite");
    ASSERT_NE(profile_, nullptr);
    MakeEngine(/*skip_fsync=*/false);
    db_ = std::make_unique<Database>(profile_);
    ASSERT_TRUE(engine_->ResetFresh(db_.get()).ok());
  }

  void MakeEngine(bool skip_fsync) {
    StorageEngine::Options opts;
    opts.env = &env_;
    opts.dir = "db";
    opts.pool_frames = 8;
    opts.skip_fsync = skip_fsync;
    engine_ = std::make_unique<StorageEngine>(opts);
  }

  void Exec(const std::string& sql) { ExecOn(engine_.get(), db_.get(), sql); }

  // Runs `script` on a fresh engine over its own MemEnv, the way a
  // backend's first case does.
  struct Solo {
    MemEnv env;
    std::unique_ptr<StorageEngine> engine;
    std::unique_ptr<Database> db;
  };
  std::unique_ptr<Solo> RunSolo(const std::vector<std::string>& script) {
    auto solo = std::make_unique<Solo>();
    StorageEngine::Options opts = engine_->options();
    opts.env = &solo->env;
    solo->engine = std::make_unique<StorageEngine>(opts);
    solo->db = std::make_unique<Database>(profile_);
    EXPECT_TRUE(solo->engine->ResetFresh(solo->db.get()).ok());
    ExecAll(solo->engine.get(), solo->db.get(), script);
    return solo;
  }

  // Types of the records in the current generation's log (the one wal.*
  // file of the directory), in log order. Only synced records are seen.
  std::vector<WalRecordType> WalTypes() {
    std::vector<WalRecordType> types;
    const std::vector<std::string> names = env_.ListDir("db").value();
    for (const std::string& name : names) {
      if (name.rfind("wal.", 0) != 0) continue;
      WalLoadStats stats;
      auto records = WalManager::Load(&env_, "db/" + name, &stats);
      EXPECT_TRUE(records.ok()) << name;
      if (!records.ok()) break;
      for (const WalRecord& rec : records.value()) types.push_back(rec.type);
    }
    return types;
  }

  // The directory holds exactly a fresh generation 0 (MANIFEST reading 0,
  // wal.0, heap.pages) and recovers, in place and after a crash, to the
  // empty catalog.
  void ExpectEmptyGenerationZero(MemEnv* env) {
    const std::vector<std::string> expected = {"MANIFEST", "heap.pages",
                                               "wal.0"};
    EXPECT_EQ(env->ListDir("db").value(), expected);
    auto manifest = persist::StateReader::FromEnvelope(
        env->ReadFile("db/MANIFEST").value());
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest.value().ReadU64(), 0u);

    const uint64_t empty = StateDigest(Database(profile_).catalog());
    Database probe(profile_);
    ASSERT_TRUE(StorageEngine::RecoverInto(env, "db", &probe, nullptr).ok());
    EXPECT_TRUE(probe.catalog().TableNames().empty());
    EXPECT_EQ(StateDigest(probe.catalog()), empty);
    env->SimulateCrash();
    StorageEngine::Options opts = engine_->options();
    opts.env = env;
    StorageEngine recovered(opts);
    Database db(profile_);
    ASSERT_TRUE(recovered.OpenOrRecover(&db).ok());
    EXPECT_EQ(StateDigest(db.catalog()), empty);
  }

  // Crash, then recover into a fresh Database (fresh engine too — the old
  // one's open handles are gone with the "process").
  uint64_t CrashAndRecoverDigest() {
    env_.SimulateCrash();
    MakeEngine(false);
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

TEST_F(StorageEngineTest, CommittedStatementsSurviveCrash) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  Exec("INSERT INTO t VALUES (1, 'x')");
  Exec("INSERT INTO t VALUES (2, 'y')");
  Exec("UPDATE t SET b = 'z' WHERE a = 2");
  const uint64_t before = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), before);
}

TEST_F(StorageEngineTest, OpenTransactionVanishesAtCrash) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  const uint64_t committed = StateDigest(db_->catalog());
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2)");
  Exec("CREATE TABLE u (b INT)");
  // No COMMIT: the no-steal buffer never reached the WAL.
  EXPECT_EQ(CrashAndRecoverDigest(), committed);
}

TEST_F(StorageEngineTest, CommittedTransactionSurvivesRollbackDoesNot) {
  Exec("CREATE TABLE t (a INT)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1)");
  Exec("COMMIT");
  const uint64_t after_commit = StateDigest(db_->catalog());
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (2)");
  Exec("ROLLBACK");
  EXPECT_EQ(StateDigest(db_->catalog()), after_commit);
  EXPECT_EQ(CrashAndRecoverDigest(), after_commit);
}

TEST_F(StorageEngineTest, SavepointPartialRollbackRecovers) {
  Exec("CREATE TABLE t (a INT)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1)");
  Exec("SAVEPOINT sp");
  Exec("INSERT INTO t VALUES (2)");
  Exec("ROLLBACK TO sp");
  Exec("COMMIT");
  const uint64_t before = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), before);
}

TEST_F(StorageEngineTest, CheckpointThenMoreWalThenCrash) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  for (int i = 0; i < 20; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 'row')");
  }
  Exec("CHECKPOINT");
  EXPECT_EQ(engine_->stats().checkpoints, 1u);
  Exec("DELETE FROM t WHERE a < 5");
  Exec("INSERT INTO t VALUES (99, 'post-checkpoint')");
  const uint64_t before = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), before);
}

TEST_F(StorageEngineTest, LogicalStatementsReplay) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  Exec("CREATE INDEX idx ON t (a)");
  Exec("CREATE VIEW v AS SELECT a FROM t");
  Exec("CREATE SEQUENCE s");
  Exec("SELECT NEXTVAL('s')");
  Exec("ALTER TABLE t ADD COLUMN b TEXT");
  Exec("INSERT INTO t VALUES (2, 'x')");
  const uint64_t before = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), before);
}

TEST_F(StorageEngineTest, MemAndPagedDigestsMatch) {
  const char* script[] = {
      "CREATE TABLE t (a INT, b TEXT)",
      "INSERT INTO t VALUES (1, 'x')",
      "BEGIN",
      "INSERT INTO t VALUES (2, 'y')",
      "COMMIT",
      "UPDATE t SET b = 'q' WHERE a = 1",
      "DELETE FROM t WHERE a = 2",
      "CREATE INDEX idx ON t (a)",
  };
  for (const char* sql : script) Exec(sql);

  // The same script on a plain in-memory Database (no engine observing)
  // must land on the same digest: --storage=mem is bit-identical because
  // the engine only observes, never steers.
  Database mem_db(profile_);
  for (const char* sql : script) {
    auto stmts = sql::Parser::ParseScript(std::string(sql) + ";");
    ASSERT_TRUE(stmts.ok());
    for (const sql::StmtPtr& stmt : stmts.value()) {
      (void)mem_db.Execute(*stmt);
    }
  }
  EXPECT_EQ(StateDigest(db_->catalog()), StateDigest(mem_db.catalog()));
}

TEST_F(StorageEngineTest, PlantedSkipFsyncLosesAcknowledgedCommits) {
  Exec("CREATE TABLE t (a INT)");
  Exec("CHECKPOINT");  // durable baseline via the snapshot path
  MakeEngine(/*skip_fsync=*/true);
  // Re-adopt the directory with the defective engine, then "acknowledge"
  // an insert whose commit never fsynced.
  db_ = std::make_unique<Database>(profile_);
  ASSERT_TRUE(engine_->OpenOrRecover(db_.get()).ok());
  const uint64_t baseline = StateDigest(db_->catalog());
  Exec("INSERT INTO t VALUES (1)");
  const uint64_t acked = StateDigest(db_->catalog());
  ASSERT_NE(acked, baseline);
  // The crash eats the buffered batch: recovered state equals the baseline,
  // not the acknowledged state — exactly what DUR-LOST-COMMIT reports.
  EXPECT_EQ(CrashAndRecoverDigest(), baseline);
}

TEST_F(StorageEngineTest, DegradesInsteadOfFailingWhenSyncDies) {
  Exec("CREATE TABLE t (a INT)");
  env_.FailNextSyncs(1);
  Exec("INSERT INTO t VALUES (1)");
  EXPECT_TRUE(engine_->degraded());
  // Execution continues in memory after degradation.
  Exec("INSERT INTO t VALUES (2)");
  EXPECT_TRUE(db_->catalog().HasTable("t"));
}

TEST_F(StorageEngineTest, DoubleRecoveryIsIdempotent) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  Exec("INSERT INTO t VALUES (2)");
  const uint64_t first = CrashAndRecoverDigest();
  // Recover again from the repaired directory without an intervening crash.
  MakeEngine(false);
  db_ = std::make_unique<Database>(profile_);
  ASSERT_TRUE(engine_->OpenOrRecover(db_.get()).ok());
  EXPECT_EQ(StateDigest(db_->catalog()), first);
}

TEST_F(StorageEngineTest, RecoverIntoMatchesOpenOrRecover) {
  Exec("CREATE TABLE t (a INT, b TEXT)");
  Exec("INSERT INTO t VALUES (1, 'x')");
  env_.SimulateCrash();
  // The parent-side pure-read checker must see the same state the engine
  // itself would recover to.
  Database probe(profile_);
  WalLoadStats wal_stats;
  ASSERT_TRUE(StorageEngine::RecoverInto(&env_, "db", &probe, &wal_stats).ok());
  const uint64_t probe_digest = StateDigest(probe.catalog());
  MakeEngine(false);
  db_ = std::make_unique<Database>(profile_);
  ASSERT_TRUE(engine_->OpenOrRecover(db_.get()).ok());
  EXPECT_EQ(StateDigest(db_->catalog()), probe_digest);
}

// A case that ends inside an open transaction leaves streamed records in
// the log's unsynced buffer. The next reset must drop them unwritten and
// empty the file: the next case's log and recovered state are exactly those
// of that case run alone.
TEST_F(StorageEngineTest, ResetDropsStaleLogTail) {
  Exec("CREATE TABLE a1 (x INT)");
  Exec("INSERT INTO a1 VALUES (1)");
  Exec("BEGIN");
  const std::string synced = env_.ReadFile("db/wal.0").value();
  const uint64_t records = engine_->stats().wal_records;
  Exec("INSERT INTO a1 VALUES (2)");
  // Streamed to the log but below steal_flush_bytes: still buffered.
  ASSERT_GT(engine_->stats().wal_records, records);
  ASSERT_EQ(env_.ReadFile("db/wal.0").value(), synced);

  const std::vector<std::string> case2 = {
      "CREATE TABLE b2 (y TEXT)", "INSERT INTO b2 VALUES ('k')", "BEGIN",
      "INSERT INTO b2 VALUES ('m')", "COMMIT"};
  ASSERT_TRUE(engine_->ResetFresh(db_.get()).ok());
  for (const std::string& sql : case2) Exec(sql);
  std::unique_ptr<Solo> alone = RunSolo(case2);

  EXPECT_EQ(env_.ListDir("db").value(), alone->env.ListDir("db").value());
  EXPECT_EQ(env_.ReadFile("db/wal.0").value(),
            alone->env.ReadFile("db/wal.0").value());
  const uint64_t expected = StateDigest(alone->db->catalog());
  Database probe(profile_);
  ASSERT_TRUE(StorageEngine::RecoverInto(&env_, "db", &probe, nullptr).ok());
  EXPECT_EQ(StateDigest(probe.catalog()), expected);
  EXPECT_EQ(CrashAndRecoverDigest(), expected);
}

// After a checkpoint the directory holds another generation; the reset
// must roll back to exactly generation 0.
TEST_F(StorageEngineTest, ResetAfterCheckpointRollsBackToGenerationZero) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  Exec("CHECKPOINT");
  Exec("INSERT INTO t VALUES (2)");
  ASSERT_TRUE(engine_->ResetFresh(db_.get()).ok());
  ExpectEmptyGenerationZero(&env_);
}

// A checkpoint that fails in its snapshot or at its manifest flip, by a
// write or a sync fault, leaves the engine on the old generation; the next
// reset must still roll back to exactly generation 0.
TEST_F(StorageEngineTest, ResetAfterFailedCheckpointRollsBackToGenerationZero) {
  for (const bool at_manifest : {false, true}) {
    for (const bool sync : {false, true}) {
      SCOPED_TRACE(std::string(at_manifest ? "manifest " : "snapshot ") +
                   (sync ? "sync" : "write"));
      ManifestFaultEnv env;
      StorageEngine::Options opts = engine_->options();
      opts.env = &env;
      StorageEngine engine(opts);
      Database db(profile_);
      ASSERT_TRUE(engine.ResetFresh(&db).ok());
      ExecAll(&engine, &db,
              {"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)"});
      if (at_manifest) {
        env.FailNextManifest(sync);
      } else if (sync) {
        env.FailNextSyncs(1);
      } else {
        env.FailNextWrites(1);
      }
      EXPECT_FALSE(engine.Checkpoint(&db).ok());
      EXPECT_EQ(engine.stats().checkpoints, 0u);
      EXPECT_FALSE(engine.degraded());
      ExecOn(&engine, &db, "INSERT INTO t VALUES (2)");
      // The engine cannot vouch for its directory after the attempt, so
      // the reset lays generation 0 out anew: one manifest write.
      const uint64_t syncs = env.stats().syncs;
      ASSERT_TRUE(engine.ResetFresh(&db).ok());
      EXPECT_EQ(env.stats().syncs - syncs, 1u);
      ExpectEmptyGenerationZero(&env);
    }
  }
}

// A reset that fails leaves the database without its storage hook: the
// case runs on memory-mode heaps and nothing of it is logged, and the next
// reset lays generation 0 out anew and logs again.
TEST_F(StorageEngineTest, FailedResetRunsTheCaseUnlogged) {
  ManifestFaultEnv env;
  StorageEngine::Options opts = engine_->options();
  opts.env = &env;
  StorageEngine engine(opts);
  Database db(profile_);
  ASSERT_TRUE(engine.ResetFresh(&db).ok());
  ExecAll(&engine, &db, {"CREATE TABLE t (a INT)", "CHECKPOINT"});
  env.FailNextManifest(/*sync=*/true);
  ASSERT_FALSE(engine.ResetFresh(&db).ok());
  EXPECT_EQ(db.storage_hook(), nullptr);
  const uint64_t records = engine.stats().wal_records;
  ExecAll(&engine, &db, {"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)",
                         "BEGIN", "INSERT INTO t VALUES (2)", "COMMIT"});
  EXPECT_EQ(engine.stats().wal_records, records);
  EXPECT_EQ(db.catalog().GetTable("t").value()->heap.LiveRowCount(), 2u);

  ASSERT_TRUE(engine.ResetFresh(&db).ok());
  ExpectEmptyGenerationZero(&env);
  ExecOn(&engine, &db, "CREATE TABLE u (b INT)");
  EXPECT_GT(engine.stats().wal_records, records);
}

// Recovery adopts a later generation and sweeps an interrupted
// checkpoint's leftover; the reset after it must roll back to exactly
// generation 0.
TEST_F(StorageEngineTest, ResetAfterRecoveryRollsBackToGenerationZero) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  Exec("CHECKPOINT");
  Exec("INSERT INTO t VALUES (2)");
  ASSERT_TRUE(env_.WriteFileAtomic("db/snap.tmp", "partial").ok());
  const std::vector<std::string> before = {"MANIFEST", "heap.pages", "snap.5",
                                           "snap.tmp", "wal.5"};
  ASSERT_EQ(env_.ListDir("db").value(), before);
  const uint64_t committed = StateDigest(db_->catalog());
  ASSERT_EQ(CrashAndRecoverDigest(), committed);
  const std::vector<std::string> recovered = {"MANIFEST", "heap.pages",
                                              "snap.5", "wal.5"};
  EXPECT_EQ(env_.ListDir("db").value(), recovered);
  ASSERT_TRUE(engine_->ResetFresh(db_.get()).ok());
  ExpectEmptyGenerationZero(&env_);
}

// A degraded engine stopped logging; the reset must bring durability back,
// whether the WAL sync or a page write-back failed. The engine cannot
// vouch for a directory a write failed in, so such a reset lays
// generation 0 out anew: one manifest write (one Env sync).
TEST_F(StorageEngineTest, ResetAfterDegradationRestoresDurability) {
  auto reset_syncs = [&] {
    const uint64_t syncs = env_.stats().syncs;
    EXPECT_TRUE(engine_->ResetFresh(db_.get()).ok());
    return env_.stats().syncs - syncs;
  };
  Exec("CREATE TABLE t (a INT)");
  env_.FailNextSyncs(1);
  Exec("INSERT INTO t VALUES (1)");
  ASSERT_TRUE(engine_->degraded());
  EXPECT_EQ(reset_syncs(), 1u);
  EXPECT_FALSE(engine_->degraded());

  // The bulk insert evicts before it commits: the failed write-back flips
  // the page store into its RAM overlay.
  Exec("CREATE TABLE p (a INT, b TEXT)");
  env_.FailNextWrites(1);
  Exec(BulkInsert("p", 700));
  ASSERT_TRUE(engine_->page_store().degraded());
  EXPECT_EQ(reset_syncs(), 1u);
  EXPECT_FALSE(engine_->degraded());

  Exec("CREATE TABLE u (b INT)");
  Exec("INSERT INTO u VALUES (7)");
  Exec("BEGIN");
  Exec("INSERT INTO u VALUES (8)");
  Exec("COMMIT");
  const uint64_t committed = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), committed);
}

// The pool now lives across cases: one engine running five cases must
// count exactly what five fresh engines count for the same cases, write
// the manifest only at its first reset and at resets that follow a
// checkpoint, and hold after each case the files of that case alone.
TEST_F(StorageEngineTest, ResetKeepsStatsExactAcrossCases) {
  // Every case pages through more chains than the pool has frames, and
  // ends with dirty frames, an open transaction, or both. The last two
  // checkpoint mid-case and go on with DML: by a CHECKPOINT statement, and
  // through checkpoint_every_commits (128) autocommits.
  std::vector<std::vector<std::string>> cases;
  cases.push_back({"CREATE TABLE p (a INT, b TEXT)", BulkInsert("p", 700),
                   "SELECT a FROM p", "DELETE FROM p WHERE a < 100",
                   "SELECT a FROM p"});
  cases.push_back({"CREATE TABLE t (a INT, b TEXT)", "BEGIN",
                   BulkInsert("t", 600), "UPDATE t SET a = 3 WHERE a = 1",
                   "COMMIT", "DELETE FROM t WHERE a = 2", "SELECT a FROM t"});
  cases.push_back({"CREATE TABLE s (a INT, b TEXT)", BulkInsert("s", 300),
                   "BEGIN", "INSERT INTO s VALUES (2, 'w')", "SAVEPOINT sp",
                   "INSERT INTO s VALUES (3, 'w')", "ROLLBACK TO sp", "COMMIT",
                   "BEGIN", BulkInsert("s", 500)});
  cases.push_back({"CREATE TABLE c (a INT, b TEXT)", BulkInsert("c", 700),
                   "CHECKPOINT", "DELETE FROM c WHERE a < 50",
                   "INSERT INTO c VALUES (1, 'z')", "SELECT a FROM c"});
  std::vector<std::string> autocheckpoint = {"CREATE TABLE q (a INT, b TEXT)",
                                             BulkInsert("q", 600)};
  for (int i = 0; i < 130; ++i) {
    autocheckpoint.push_back("INSERT INTO q VALUES (" + std::to_string(i) +
                             ", 'n')");
  }
  autocheckpoint.push_back("UPDATE q SET b = 'u' WHERE a < 40");
  cases.push_back(autocheckpoint);

  MemEnv shared_env;
  StorageEngine::Options opts = engine_->options();
  opts.env = &shared_env;
  StorageEngine shared(opts);
  Database shared_db(profile_);
  StorageEngine::Stats sum;
  EnvStats env_sum;
  std::unique_ptr<Solo> solo;
  uint64_t checkpoints_at_last_reset = 0;
  int manifest_writes = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const bool rewrites_manifest =
        i == 0 || shared.stats().checkpoints > checkpoints_at_last_reset;
    manifest_writes += rewrites_manifest ? 1 : 0;
    const uint64_t syncs = shared_env.stats().syncs;
    ASSERT_TRUE(shared.ResetFresh(&shared_db).ok());
    EXPECT_EQ(shared_env.stats().syncs - syncs, rewrites_manifest ? 1u : 0u)
        << "reset " << i;
    checkpoints_at_last_reset = shared.stats().checkpoints;
    ExecAll(&shared, &shared_db, cases[i]);

    solo = RunSolo(cases[i]);
    const StorageEngine::Stats one = solo->engine->stats();
    sum.pool.Add(one.pool);
    sum.pages.Add(one.pages);
    sum.wal_records += one.wal_records;
    sum.wal_bytes += one.wal_bytes;
    sum.fsyncs += one.fsyncs;
    sum.commits += one.commits;
    sum.checkpoints += one.checkpoints;
    sum.steal_flushes += one.steal_flushes;
    env_sum.bytes_written += solo->env.stats().bytes_written;
    env_sum.syncs += solo->env.stats().syncs;
    const std::vector<std::string> files = solo->env.ListDir("db").value();
    EXPECT_EQ(shared_env.ListDir("db").value(), files) << "case " << i;
    for (const std::string& file : files) {
      EXPECT_EQ(shared_env.ReadFile("db/" + file).value(),
                solo->env.ReadFile("db/" + file).value())
          << "case " << i << ": " << file;
    }
  }
  const StorageEngine::Stats got = shared.stats();
  EXPECT_GT(sum.pool.evictions, 0u);
  EXPECT_EQ(sum.checkpoints, 2u);
  EXPECT_GT(sum.pages.sweeps, 0u);
  EXPECT_EQ(got.pool.hits, sum.pool.hits);
  EXPECT_EQ(got.pool.misses, sum.pool.misses);
  EXPECT_EQ(got.pool.evictions, sum.pool.evictions);
  EXPECT_EQ(got.pool.writebacks, sum.pool.writebacks);
  EXPECT_EQ(got.pages.blob_reads, sum.pages.blob_reads);
  EXPECT_EQ(got.pages.blob_writes, sum.pages.blob_writes);
  EXPECT_EQ(got.pages.cow_writes, sum.pages.cow_writes);
  EXPECT_EQ(got.pages.pages_allocated, sum.pages.pages_allocated);
  EXPECT_EQ(got.pages.pages_swept, sum.pages.pages_swept);
  EXPECT_EQ(got.pages.sweeps, sum.pages.sweeps);
  EXPECT_EQ(got.wal_records, sum.wal_records);
  EXPECT_EQ(got.wal_bytes, sum.wal_bytes);
  EXPECT_EQ(got.fsyncs, sum.fsyncs);
  EXPECT_EQ(got.commits, sum.commits);
  EXPECT_EQ(got.checkpoints, sum.checkpoints);
  EXPECT_EQ(got.steal_flushes, sum.steal_flushes);

  // Every solo engine wrote the manifest at its one reset; the shared one
  // only where a checkpoint had moved it. All other traffic is the same.
  EXPECT_EQ(manifest_writes, 2);
  const uint64_t skipped = cases.size() - manifest_writes;
  const uint64_t manifest_bytes = shared_env.ReadFile("db/MANIFEST")->size();
  EXPECT_EQ(shared_env.stats().syncs, env_sum.syncs - skipped);
  EXPECT_EQ(shared_env.stats().bytes_written,
            env_sum.bytes_written - skipped * manifest_bytes);
}

// The engine reuses its schema fingerprint for as long as the catalog's
// schema epoch stays put. Each case below would compare against a stale
// fingerprint if a reuse were wrong (after a restore, a checkpoint, work
// outside the bracket or a reset), which flips the statement between
// logical and physiological logging.
constexpr WalRecordType kLogical = WalRecordType::kLogical;
constexpr WalRecordType kPut = WalRecordType::kPut;
constexpr WalRecordType kCommit = WalRecordType::kCommit;

// ROLLBACK undoes a CREATE TABLE; the INSERT after it changed no schema and
// is logged physiologically.
TEST_F(StorageEngineTest, DdlUndoneByRollbackThenDmlIsPhysiological) {
  Exec("CREATE TABLE t (a INT)");
  Exec("BEGIN");
  Exec("CREATE TABLE u (b INT)");
  Exec("ROLLBACK");
  Exec("INSERT INTO t VALUES (1)");
  EXPECT_EQ(WalTypes(),
            (std::vector<WalRecordType>{kLogical, kCommit, kPut, kCommit}));
  EXPECT_EQ(CrashAndRecoverDigest(), StateDigest(db_->catalog()));
}

// The same through ROLLBACK TO a savepoint, inside the transaction.
TEST_F(StorageEngineTest, DdlUndoneByRollbackToThenDmlIsPhysiological) {
  Exec("CREATE TABLE t (a INT)");
  Exec("BEGIN");
  Exec("SAVEPOINT sp");
  Exec("CREATE TABLE u (b INT)");
  Exec("ROLLBACK TO sp");
  Exec("INSERT INTO t VALUES (1)");
  Exec("COMMIT");
  const std::vector<WalRecordType> types = WalTypes();
  ASSERT_GE(types.size(), 2u);
  EXPECT_EQ(types[types.size() - 2], kPut);
  EXPECT_EQ(types.back(), kCommit);
  EXPECT_EQ(CrashAndRecoverDigest(), StateDigest(db_->catalog()));
}

// DDL right after a CHECKPOINT statement is still seen as a schema change,
// and DML after it is physiological again.
TEST_F(StorageEngineTest, CheckpointThenDdlIsLogical) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  Exec("CHECKPOINT");
  Exec("CREATE TABLE u (b INT)");
  Exec("INSERT INTO u VALUES (2)");
  EXPECT_EQ(WalTypes(),
            (std::vector<WalRecordType>{kLogical, kCommit, kPut, kCommit}));
  EXPECT_EQ(CrashAndRecoverDigest(), StateDigest(db_->catalog()));
}

// A statement executed straight through Database::Execute, with nothing
// around it, is bracketed by the database itself: it is logged and
// survives a crash.
TEST_F(StorageEngineTest, DirectDatabaseExecuteIsLoggedAndSurvivesCrash) {
  for (const char* sql : {"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)",
                          "INSERT INTO t VALUES (2)"}) {
    auto stmt = sql::Parser::ParseStatement(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    ASSERT_TRUE(db_->Execute(*stmt.value()).ok()) << sql;
  }
  EXPECT_EQ(WalTypes(), (std::vector<WalRecordType>{kLogical, kCommit, kPut,
                                                    kCommit, kPut, kCommit}));
  const uint64_t committed = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), committed);
  EXPECT_EQ(db_->catalog().GetTable("t").value()->heap.LiveRowCount(), 2u);
}

// Work outside the statement bracket (as concurrent sessions do, with the
// storage hook uninstalled) followed by a Checkpoint call, the way
// ConcurrentBackend re-establishes durability: the next statement must
// fingerprint the catalog afresh.
TEST_F(StorageEngineTest, CheckpointAfterWorkOutsideTheBracket) {
  Exec("CREATE TABLE t (a INT)");
  auto ddl = sql::Parser::ParseStatement("CREATE TABLE u (b INT)");
  ASSERT_TRUE(ddl.ok());
  db_->set_storage_hook(nullptr);
  ASSERT_TRUE(db_->Execute(*ddl.value()).ok());
  db_->set_storage_hook(engine_.get());
  ASSERT_TRUE(engine_->Checkpoint(db_.get()).ok());
  Exec("INSERT INTO u VALUES (1)");
  EXPECT_EQ(WalTypes(), (std::vector<WalRecordType>{kPut, kCommit}));
  EXPECT_EQ(CrashAndRecoverDigest(), StateDigest(db_->catalog()));
}

// A temporary table is session state: DML on it writes no WAL record,
// while the same DML on an ordinary table is logged.
TEST_F(StorageEngineTest, TemporaryTableDmlWritesNoWal) {
  Exec("CREATE TEMPORARY TABLE tmp (a INT)");
  Exec("CREATE TABLE t (a INT)");
  const uint64_t records = engine_->stats().wal_records;
  const uint64_t bytes = engine_->stats().wal_bytes;
  Exec("INSERT INTO tmp VALUES (1)");
  Exec("INSERT INTO tmp VALUES (2)");
  Exec("UPDATE tmp SET a = 3 WHERE a = 1");
  Exec("DELETE FROM tmp WHERE a = 2");
  Exec("TRUNCATE tmp");
  EXPECT_EQ(engine_->stats().wal_records, records);
  EXPECT_EQ(engine_->stats().wal_bytes, bytes);
  Exec("INSERT INTO t VALUES (1)");
  EXPECT_EQ(engine_->stats().wal_records, records + 2);  // kPut, kCommit
  EXPECT_EQ(CrashAndRecoverDigest(), StateDigest(db_->catalog()));
}

// A reset into a case with the previous case's schema: its CREATE TABLE
// is a schema change against the empty catalog, not against the last case.
TEST_F(StorageEngineTest, ResetIntoSameSchemaCaseLogsTheDdl) {
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (1)");
  ASSERT_TRUE(engine_->ResetFresh(db_.get()).ok());
  Exec("CREATE TABLE t (a INT)");
  Exec("INSERT INTO t VALUES (2)");
  EXPECT_EQ(WalTypes(), (std::vector<WalRecordType>{kLogical, kCommit, kPut,
                                                    kCommit}));
  EXPECT_EQ(CrashAndRecoverDigest(), StateDigest(db_->catalog()));
}

// A snapshot keeps each table's indexes in creation order, which is not
// their name order.
TEST_F(StorageEngineTest, CheckpointKeepsIndexCreationOrder) {
  Exec("CREATE TABLE t (a INT, b INT)");
  Exec("CREATE INDEX zz ON t (a)");
  Exec("CREATE INDEX aa ON t (b)");
  Exec("INSERT INTO t VALUES (1, 2)");
  Exec("CHECKPOINT");
  const uint64_t schema = SchemaFingerprint(db_->catalog());
  const uint64_t state = StateDigest(db_->catalog());
  EXPECT_EQ(CrashAndRecoverDigest(), state);
  EXPECT_EQ(SchemaFingerprint(db_->catalog()), schema);
  EXPECT_EQ(db_->catalog().GetTable("t").value()->index_names,
            (std::vector<std::string>{"zz", "aa"}));
}

// Only a statement that moves the catalog's schema epoch takes a schema
// fingerprint, and only one that moves the sequence epoch is checked for
// kSeqSet records. The first statement after a ROLLBACK, which restored an
// older catalog under a new epoch, fingerprints it at its begin.
TEST_F(StorageEngineTest, FingerprintsOnlyStatementsThatMoveTheSchemaEpoch) {
  const uint64_t start = engine_->stats().schema_fingerprints;
  auto taken = [&] { return engine_->stats().schema_fingerprints - start; };
  Exec("CREATE TABLE t (a INT, b TEXT)");
  EXPECT_EQ(taken(), 1u);  // after the reset, the "before" is known
  Exec("CREATE SEQUENCE sq");
  EXPECT_EQ(taken(), 2u);
  for (const char* sql : {"INSERT INTO t VALUES (1, 'x')",
                          "UPDATE t SET b = 'y' WHERE a = 1",
                          "SELECT a FROM t", "SELECT NEXTVAL('sq')", "BEGIN",
                          "INSERT INTO t VALUES (2, NULL)",
                          "DELETE FROM t WHERE a = 1", "COMMIT"}) {
    Exec(sql);
    EXPECT_EQ(taken(), 2u) << sql;
  }
  Exec("BEGIN");
  Exec("ALTER TABLE t ADD COLUMN c INT");
  EXPECT_EQ(taken(), 3u);
  Exec("ROLLBACK");
  EXPECT_EQ(taken(), 3u);
  Exec("INSERT INTO t VALUES (3, 'z')");
  EXPECT_EQ(taken(), 4u);
  const std::vector<WalRecordType> types = WalTypes();
  EXPECT_EQ(std::count(types.begin(), types.end(), WalRecordType::kSeqSet),
            1);
  EXPECT_EQ(types.back(), WalRecordType::kCommit);
  EXPECT_EQ(types[types.size() - 2], WalRecordType::kPut);
  EXPECT_EQ(CrashAndRecoverDigest(), StateDigest(db_->catalog()));
}

}  // namespace
}  // namespace lego::minidb
