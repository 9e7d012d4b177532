// Campaign-level paged-storage conformance: for every backend kind, a
// campaign on paged storage must land on the same ResultDigest as the same
// campaign on mem storage (the pager is invisible to fuzzing outcomes), the
// storage telemetry must report real pool/WAL traffic without entering the
// digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/sqlancer_like.h"
#include "baselines/sqlsmith_like.h"
#include "baselines/squirrel_like.h"
#include "chaos/failpoint.h"
#include "fuzz/backend.h"
#include "fuzz/backend_inproc.h"
#include "fuzz/campaign.h"
#include "fuzz/checkpoint.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "lego/lego_fuzzer.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/profile.h"
#include "minidb/storage_engine.h"
#include "minidb/storage_serde.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "triage/oracle_suite.h"

namespace lego::fuzz {
namespace {

/// Deterministic generation-only fuzzer cycling through fixed scripts (no
/// feedback), so campaign outcomes depend only on (scripts, backend).
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

std::vector<std::string> WorkloadScripts() {
  return {
      "CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1, 'x'); "
      "INSERT INTO t VALUES (2, 'y'); UPDATE t SET b = 'z' WHERE a = 2; "
      "SELECT a FROM t;",
      "CREATE TABLE u (c INT); BEGIN; INSERT INTO u VALUES (3); "
      "INSERT INTO u VALUES (4); COMMIT; DELETE FROM u WHERE c = 3;",
      "CREATE TABLE v (d INT); BEGIN; INSERT INTO v VALUES (5); "
      "ROLLBACK; INSERT INTO v VALUES (6); SELECT d FROM v;",
  };
}

CampaignResult RunWith(const BackendOptions& backend, int executions) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  EXPECT_NE(profile, nullptr);
  ExecutionHarness harness(*profile, backend);
  ScriptFuzzer fuzzer(WorkloadScripts());
  CampaignOptions options;
  options.max_executions = executions;
  options.snapshot_every = 0;
  return RunCampaign(&fuzzer, &harness, options);
}

BackendOptions PagedOptions(BackendKind kind, const std::string& dir,
                            size_t pool_frames = 32) {
  std::filesystem::remove_all(dir);
  BackendOptions backend;
  backend.kind = kind;
  backend.storage = StorageKind::kPaged;
  backend.db_dir = dir;
  backend.pool_frames = pool_frames;
  return backend;
}

/// mem and paged campaigns must be observationally identical: same
/// executions, statements, errors, crashes, coverage — the whole digest.
void ExpectStorageParity(BackendKind kind, const std::string& dir) {
  BackendOptions mem;
  mem.kind = kind;
  if (kind == BackendKind::kConcurrent) {
    mem.sessions = 2;
    mem.concurrency_seed = 7;
  }
  BackendOptions paged = PagedOptions(kind, dir);
  if (kind == BackendKind::kConcurrent) {
    paged.sessions = 2;
    paged.concurrency_seed = 7;
  }

  CampaignResult on_mem = RunWith(mem, 9);
  CampaignResult on_paged = RunWith(paged, 9);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(ResultDigest(on_mem), ResultDigest(on_paged))
      << BackendKindName(kind);
  EXPECT_EQ(on_mem.statements_executed, on_paged.statements_executed);
  EXPECT_EQ(on_mem.statement_errors, on_paged.statement_errors);
  EXPECT_EQ(on_mem.edges, on_paged.edges);

  // Telemetry must reflect the storage actually used — and never leak into
  // the digest (asserted above: digests match despite differing stats).
  EXPECT_EQ(on_mem.storage.wal_records, 0u);
  EXPECT_EQ(on_mem.storage.pool_hits + on_mem.storage.pool_misses, 0u);
  EXPECT_GT(on_paged.storage.wal_records, 0u) << BackendKindName(kind);
  EXPECT_GT(on_paged.storage.commits, 0u) << BackendKindName(kind);
}

TEST(PagedCampaignTest, InprocPagedMatchesMem) {
  ExpectStorageParity(BackendKind::kInProcess,
                      ::testing::TempDir() + "paged_parity_inproc_db");
}

TEST(PagedCampaignTest, ForkedPagedMatchesMem) {
  ExpectStorageParity(BackendKind::kForked,
                      ::testing::TempDir() + "paged_parity_forked_db");
}

TEST(PagedCampaignTest, ConcurrentPagedMatchesMem) {
  ExpectStorageParity(BackendKind::kConcurrent,
                      ::testing::TempDir() + "paged_parity_concurrent_db");
}

// A statement run straight through database(), not through the backend's
// Execute, is logged like any other: a read-only recovery of the
// directory, which sees only what reached the disk (all a crash would
// leave), finds every such statement's effect.
TEST(PagedCampaignTest, DirectDatabaseStatementsAreLoggedAndRecover) {
  const std::string dir = ::testing::TempDir() + "paged_direct_db";
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  {
    InProcessBackend backend(*profile,
                             PagedOptions(BackendKind::kInProcess, dir));
    backend.Reset();
    auto script = backend.database().ExecuteScript(
        "CREATE TABLE t (a INT, b TEXT); INSERT INTO t VALUES (1, 'x');"
        " BEGIN; INSERT INTO t VALUES (2, 'y'); COMMIT;"
        " UPDATE t SET b = 'z' WHERE a = 1;");
    ASSERT_TRUE(script.ok());
    ASSERT_EQ(script->errors, 0);
    EXPECT_EQ(backend.storage_stats().commits, 4u);

    minidb::Database recovered(profile);
    minidb::WalLoadStats wal_stats;
    ASSERT_TRUE(minidb::StorageEngine::RecoverInto(minidb::Env::Posix(), dir,
                                                   &recovered, &wal_stats)
                    .ok());
    EXPECT_EQ(wal_stats.commits, 4u);
    EXPECT_EQ(recovered.catalog().GetTable("t").value()->heap.LiveRowCount(),
              2u);
    EXPECT_EQ(minidb::StateDigest(recovered.catalog()),
              minidb::StateDigest(backend.database().catalog()));
  }
  std::filesystem::remove_all(dir);
}

// A campaign whose dataset exceeds the pool must finish with real eviction
// traffic reported in the telemetry.
TEST(PagedCampaignTest, TinyPoolCampaignReportsEvictions) {
  const std::string dir = ::testing::TempDir() + "paged_tinypool_db";
  BackendOptions backend =
      PagedOptions(BackendKind::kInProcess, dir, /*pool_frames=*/4);

  std::string big_script = "CREATE TABLE big (a INT, b TEXT);";
  const std::string filler(200, 'x');
  for (int i = 0; i < 250; ++i) {
    big_script += " INSERT INTO big VALUES (" + std::to_string(i) + ", '" +
                  filler + "');";
  }
  big_script += " SELECT a FROM big;";

  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  ExecutionHarness harness(*profile, backend);
  ScriptFuzzer fuzzer({big_script});
  CampaignOptions options;
  options.max_executions = 2;
  options.snapshot_every = 0;
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(result.executions, 2);
  EXPECT_EQ(result.crashes_total, 0);
  EXPECT_GT(result.storage.pool_evictions, 0u);
  EXPECT_GT(result.storage.pool_hit_rate(), 0.0);
  EXPECT_GT(result.storage.wal_bytes, 0u);
  EXPECT_GT(result.storage.fsyncs, 0u);
}

// A reset whose ResetFresh fails runs its case unlogged on memory-mode
// heaps; the campaign counts each one. env.write fails every write until the
// first progress call, after 64 executions: each of those resets rewrites
// the MANIFEST, because the reset before it failed, so exactly 64 fail.
TEST(PagedCampaignTest, FailedResetsAreCounted) {
  const std::string dir = ::testing::TempDir() + "paged_reset_fail_db";
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName("pglite");
  ASSERT_NE(profile, nullptr);
  ExecutionHarness harness(*profile,
                           PagedOptions(BackendKind::kInProcess, dir));
  ScriptFuzzer fuzzer(WorkloadScripts());
  CampaignOptions options;
  options.max_executions = 200;
  options.snapshot_every = 0;
  options.on_progress = [](int64_t) { chaos::DisarmAll(); };
  ASSERT_TRUE(chaos::ArmSpec("env.write=always", /*seed=*/1).ok());
  CampaignResult result = RunCampaign(&fuzzer, &harness, options);
  chaos::DisarmAll();
  std::filesystem::remove_all(dir);

  EXPECT_EQ(result.executions, 200);
  EXPECT_EQ(result.storage.reset_failures, 64u);
  EXPECT_GT(result.storage.wal_records, 0u);
}

/// One rule-weighted lego campaign with the metamorphic oracles armed:
/// 2000 executions, snapshots every 200 — the settings of
/// `fuzz_campaign_cli <profile> lego 2000 <seed> --oracle=tlp,norec,clause
/// --rule-coverage`.
CampaignResult RunRuleWeightedLego(const std::string& profile_name,
                                   const BackendOptions& backend,
                                   uint64_t seed) {
  const minidb::DialectProfile* profile =
      minidb::DialectProfile::ByName(profile_name);
  EXPECT_NE(profile, nullptr);
  core::LegoOptions lego_options;
  lego_options.rng_seed = seed;
  core::LegoFuzzer fuzzer(*profile, lego_options);
  std::string error;
  auto suite = triage::OracleSuite::FromSpec("tlp,norec,clause", &error);
  EXPECT_NE(suite, nullptr) << error;
  ExecutionHarness harness(*profile, backend);
  harness.set_logic_oracle(suite.get());
  harness.set_rule_coverage(true);
  CampaignOptions options;
  options.max_executions = 2000;
  options.snapshot_every = 200;
  return RunCampaign(&fuzzer, &harness, options);
}

/// One rule-weighted campaign's pinned outcome on mem and paged storage.
struct RuleWeightedGolden {
  const char* profile;
  uint64_t seed;
  uint64_t digest;
  uint64_t rules;
  uint64_t corpus_seeds;
  uint64_t wal_records;
  uint64_t wal_bytes;
  uint64_t commits;  // each commit is one fsync
  uint64_t checkpoints;
};

void ExpectRuleWeightedGoldens(const std::vector<RuleWeightedGolden>& goldens) {
  for (const RuleWeightedGolden& g : goldens) {
    SCOPED_TRACE(std::string(g.profile) + " seed " + std::to_string(g.seed));
    CampaignResult on_mem =
        RunRuleWeightedLego(g.profile, BackendOptions{}, g.seed);
    EXPECT_EQ(ResultDigest(on_mem), g.digest);
    EXPECT_EQ(on_mem.rules, g.rules);
    EXPECT_EQ(on_mem.fuzzer_stats.corpus_seeds, g.corpus_seeds);

    const std::string dir = ::testing::TempDir() + "paged_golden_rules_db";
    CampaignResult on_paged = RunRuleWeightedLego(
        g.profile, PagedOptions(BackendKind::kInProcess, dir, 64), g.seed);
    std::filesystem::remove_all(dir);
    EXPECT_EQ(ResultDigest(on_paged), g.digest);
    EXPECT_EQ(on_paged.rules, g.rules);
    EXPECT_EQ(on_paged.fuzzer_stats.corpus_seeds, g.corpus_seeds);
    EXPECT_EQ(on_paged.storage.wal_records, g.wal_records);
    EXPECT_EQ(on_paged.storage.wal_bytes, g.wal_bytes);
    EXPECT_EQ(on_paged.storage.fsyncs, g.commits);
    EXPECT_EQ(on_paged.storage.commits, g.commits);
    EXPECT_EQ(on_paged.storage.checkpoints, g.checkpoints);
  }
}

// Golden for the grammar-rule feedback loop: the rule sets the harness
// merges and hands to the corpus, the rarity-weighted seed picks and the
// paged engine's choice between physiological and logical WAL records all
// feed these numbers. The digest is the one the CLI prints for the same
// settings. Re-capture only for an intended change of fuzzing behaviour.
TEST(GoldenCampaignTest, RuleWeightedLegoPgliteMemAndPaged) {
  // Seed 1 checkpoints often, so most of its per-case resets follow a
  // checkpoint; seed 5 checkpoints rarely. (comdlite never does.)
  ExpectRuleWeightedGoldens({
      {"pglite", 1, 0x902321e42208bf7dULL, 128, 283, 6472, 404891, 2581, 175},
      {"pglite", 5, 0x8c5998cabce3ad5eULL, 135, 257, 6150, 371101, 2600, 5},
  });
}

// The same golden on the other dialects. Each accepts its own statement
// set (rules, COPY, window functions and more are per profile), so the
// fuzzer reaches different schema-changing paths on each, and a schema
// change the paged engine misclassifies on one of them moves its WAL
// counters.
TEST(GoldenCampaignTest, RuleWeightedLegoOtherProfilesMemAndPaged) {
  ExpectRuleWeightedGoldens({
      {"mylite", 1, 0x60136859d9be8819ULL, 118, 282, 6143, 367780, 2591, 2},
      {"marialite", 1, 0x4daf445fb6a8813dULL, 138, 384, 7266, 424973, 3055,
       11},
      {"comdlite", 1, 0x2df9c727f718b58fULL, 97, 287, 7643, 454555, 3202, 0},
  });
}

/// Every sequence's (current, started).
std::map<std::string, std::pair<int64_t, bool>> SequencePositions(
    const minidb::Catalog& catalog) {
  std::map<std::string, std::pair<int64_t, bool>> positions;
  for (const std::string& name : catalog.SequenceNames()) {
    const minidb::SequenceInfo* seq = catalog.FindSequence(name);
    positions[name] = {seq->current, seq->started};
  }
  return positions;
}

/// The paged engine's statement bracket, checked: forwards every call to
/// the engine and, around every statement, recomputes what the catalog's
/// epochs vouch for. An unmoved schema epoch must mean an unchanged
/// SchemaFingerprint, and an unmoved sequence epoch unmoved sequences.
class CheckedBracket : public minidb::StorageHook {
 public:
  explicit CheckedBracket(minidb::StorageHook* engine) : engine_(engine) {}

  void OnStatementBegin(minidb::Database& db) override {
    schema_epoch_ = db.catalog().schema_epoch();
    sequence_epoch_ = db.catalog().sequence_epoch();
    fingerprint_ = minidb::SchemaFingerprint(db.catalog());
    sequences_ = SequencePositions(db.catalog());
    engine_->OnStatementBegin(db);
  }

  void OnStatementEnd(minidb::Database& db, const sql::Statement& stmt,
                      bool executed_ok) override {
    const minidb::Catalog& catalog = db.catalog();
    if (catalog.schema_epoch() == schema_epoch_) {
      ++schema_unmoved;
      if (minidb::SchemaFingerprint(catalog) != fingerprint_) {
        violations.push_back("schema changed, epoch did not: " +
                             sql::ToSql(stmt));
      }
    }
    if (catalog.sequence_epoch() == sequence_epoch_) {
      ++sequences_unmoved;
      if (SequencePositions(catalog) != sequences_) {
        violations.push_back("sequence moved, epoch did not: " +
                             sql::ToSql(stmt));
      }
    }
    if (executed_ok) ++executed[stmt.type()];
    engine_->OnStatementEnd(db, stmt, executed_ok);
  }

  void OnTxnBegin(minidb::Database& db) override { engine_->OnTxnBegin(db); }
  void OnTxnCommit(minidb::Database& db) override {
    engine_->OnTxnCommit(db);
  }
  void OnTxnRollback(minidb::Database& db) override {
    engine_->OnTxnRollback(db);
  }
  void OnTxnSavepoint(minidb::Database& db, const std::string& name) override {
    engine_->OnTxnSavepoint(db, name);
  }
  void OnTxnRelease(minidb::Database& db, const std::string& name) override {
    engine_->OnTxnRelease(db, name);
  }
  void OnTxnRollbackTo(minidb::Database& db,
                       const std::string& name) override {
    engine_->OnTxnRollbackTo(db, name);
  }

  std::vector<std::string> violations;
  int64_t schema_unmoved = 0;
  int64_t sequences_unmoved = 0;
  /// Successful statements per type.
  std::map<sql::StatementType, int64_t> executed;

 private:
  minidb::StorageHook* engine_;
  uint64_t schema_epoch_ = 0;
  uint64_t sequence_epoch_ = 0;
  uint64_t fingerprint_ = 0;
  std::map<std::string, std::pair<int64_t, bool>> sequences_;
};

std::unique_ptr<Fuzzer> MakeFuzzer(const std::string& name,
                                   const minidb::DialectProfile& profile,
                                   uint64_t seed) {
  if (name == "lego") {
    core::LegoOptions options;
    options.rng_seed = seed;
    return std::make_unique<core::LegoFuzzer>(profile, options);
  }
  if (name == "squirrel") {
    return std::make_unique<baselines::SquirrelLikeFuzzer>(profile, seed);
  }
  if (name == "sqlancer") {
    return std::make_unique<baselines::SqlancerLikeFuzzer>(profile, seed);
  }
  return std::make_unique<baselines::SqlsmithLikeFuzzer>(profile, seed);
}

/// Parses `sql`, one statement.
sql::StmtPtr Parse(const std::string& sql) {
  auto stmt = sql::Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  return stmt.ok() ? std::move(stmt).ValueOrDie() : nullptr;
}

// Fuzzer-generated cases, for every profile and fuzzer, run on a paged
// database whose statement bracket is checked: the epochs the engine
// trusts instead of fingerprinting every statement must never miss a
// schema or sequence change. A mem harness runs each case too, so the
// fuzzers get their usual feedback. Every other case runs inside a
// transaction that moves a sequence, undoes the case with ROLLBACK TO a
// savepoint, runs it again and commits or rolls back, so the generated
// schema changes also meet the catalog restores. Each fuzzer runs at three
// seeds: a 300-case lego run executes an ANALYZE in only about a third of
// runs, so one seed would make the final reach check a coin toss on the
// fuzzer's trajectory.
TEST(CheckedBracketTest, UnmovedEpochsMeanUnchangedSchemaAndSequences) {
  constexpr int kCases = 300;
  const sql::StmtPtr create_seq = Parse("CREATE SEQUENCE chk");
  const sql::StmtPtr begin = Parse("BEGIN");
  const sql::StmtPtr nextval = Parse("SELECT NEXTVAL('chk')");
  const sql::StmtPtr savepoint = Parse("SAVEPOINT sp");
  const sql::StmtPtr rollback_to = Parse("ROLLBACK TO SAVEPOINT sp");
  const sql::StmtPtr commit = Parse("COMMIT");
  const sql::StmtPtr rollback = Parse("ROLLBACK");
  std::map<sql::StatementType, int64_t> executed;
  for (const minidb::DialectProfile* profile : minidb::DialectProfile::All()) {
    for (const char* name : {"lego", "squirrel", "sqlancer", "sqlsmith"}) {
      for (uint64_t seed : {3, 4, 5}) {
        SCOPED_TRACE(profile->name + "/" + name + " seed " +
                     std::to_string(seed));
        std::unique_ptr<Fuzzer> fuzzer = MakeFuzzer(name, *profile, seed);
        ExecutionHarness harness(*profile);
        fuzzer->Prepare(&harness);

        minidb::MemEnv env;
        minidb::StorageEngine::Options options;
        options.env = &env;
        options.dir = "db";
        minidb::StorageEngine engine(options);
        minidb::Database db(profile);
        CheckedBracket checked(&engine);
        for (int i = 0; i < kCases; ++i) {
          TestCase tc = fuzzer->Next();
          fuzzer->OnResult(tc, harness.Run(tc));
          ASSERT_TRUE(engine.ResetFresh(&db).ok());
          db.set_storage_hook(&checked);
          std::vector<const sql::Statement*> script;
          for (const sql::StmtPtr& stmt : tc.statements()) {
            script.push_back(stmt.get());
          }
          if (i % 2 == 1) {
            std::vector<const sql::Statement*> wrapped = {
                create_seq.get(), begin.get(), nextval.get(), savepoint.get()};
            wrapped.insert(wrapped.end(), script.begin(), script.end());
            wrapped.push_back(rollback_to.get());
            wrapped.insert(wrapped.end(), script.begin(), script.end());
            wrapped.push_back(nextval.get());
            wrapped.push_back(i % 4 == 1 ? commit.get() : rollback.get());
            script = std::move(wrapped);
          }
          for (const sql::Statement* stmt : script) (void)db.Execute(*stmt);
        }
        EXPECT_TRUE(checked.violations.empty())
            << checked.violations.size() << " violations, first: "
            << checked.violations.front();
        EXPECT_GT(checked.schema_unmoved, 0);
        EXPECT_GT(checked.sequences_unmoved, 0);
        for (const auto& [type, count] : checked.executed) {
          executed[type] += count;
        }
      }
    }
  }
  // The cases reached transactions, savepoints and the in-place schema
  // writes, not only CREATE and DROP.
  for (sql::StatementType type :
       {sql::StatementType::kBegin, sql::StatementType::kRollback,
        sql::StatementType::kSavepoint, sql::StatementType::kRollbackTo,
        sql::StatementType::kAlterTable, sql::StatementType::kComment,
        sql::StatementType::kAnalyze, sql::StatementType::kCreateIndex,
        sql::StatementType::kCreateSequence}) {
    EXPECT_GT(executed[type], 0) << sql::StatementTypeName(type);
  }
}

}  // namespace
}  // namespace lego::fuzz
