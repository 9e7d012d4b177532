#include "minidb/catalog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "minidb/database.h"
#include "minidb/storage_serde.h"
#include "sql/parser.h"

namespace lego::minidb {
namespace {

TableInfo MakeTable(const std::string& name) {
  TableInfo t;
  t.name = name;
  t.schema.columns.push_back(
      {.name = "a", .type = ValueType::kInt, .default_value = nullptr});
  t.schema.columns.push_back(
      {.name = "b", .type = ValueType::kText, .default_value = nullptr});
  return t;
}

TEST(CatalogTest, TableLifecycle) {
  Catalog catalog;
  EXPECT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  EXPECT_EQ(catalog.CreateTable(MakeTable("t")).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.GetTable("t").ok());
  EXPECT_EQ(catalog.GetTable("missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(catalog.DropTable("t").ok());
  EXPECT_EQ(catalog.DropTable("t").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, SchemaFindColumn) {
  TableInfo t = MakeTable("t");
  EXPECT_EQ(t.schema.FindColumn("a"), 0);
  EXPECT_EQ(t.schema.FindColumn("b"), 1);
  EXPECT_EQ(t.schema.FindColumn("c"), -1);
}

TEST(CatalogTest, DropTableCascades) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  IndexInfo ix;
  ix.name = "ix";
  ix.table = "t";
  ix.columns = {"a"};
  ASSERT_TRUE(catalog.CreateIndex(std::move(ix)).ok());
  TriggerInfo tg;
  tg.name = "tg";
  tg.table = "t";
  ASSERT_TRUE(catalog.CreateTrigger(std::move(tg)).ok());
  RuleInfo rule;
  rule.name = "r";
  rule.table = "t";
  ASSERT_TRUE(catalog.CreateRule(std::move(rule), false).ok());

  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.HasIndex("ix"));
  EXPECT_FALSE(catalog.HasTrigger("tg"));
  EXPECT_FALSE(catalog.HasRule("r"));
}

TEST(CatalogTest, RenameTableUpdatesDependents) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  IndexInfo ix;
  ix.name = "ix";
  ix.table = "t";
  ix.columns = {"a"};
  ASSERT_TRUE(catalog.CreateIndex(std::move(ix)).ok());
  ASSERT_TRUE(catalog.RenameTable("t", "u").ok());
  EXPECT_FALSE(catalog.HasTable("t"));
  EXPECT_TRUE(catalog.HasTable("u"));
  EXPECT_EQ((*catalog.GetIndex("ix"))->table, "u");
  EXPECT_EQ(catalog.IndexesOf("u").size(), 1u);
  // Rename onto an existing name is rejected.
  ASSERT_TRUE(catalog.CreateTable(MakeTable("v")).ok());
  EXPECT_EQ(catalog.RenameTable("u", "v").code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, ViewNamespaceSharedWithTables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  ViewInfo view;
  view.name = "t";
  EXPECT_EQ(catalog.CreateView(std::move(view), false).code(),
            StatusCode::kAlreadyExists);
  ViewInfo v2;
  v2.name = "v";
  ASSERT_TRUE(catalog.CreateView(std::move(v2), false).ok());
  EXPECT_EQ(catalog.CreateTable(MakeTable("v")).code(),
            StatusCode::kAlreadyExists);
  // OR REPLACE replaces.
  ViewInfo v3;
  v3.name = "v";
  EXPECT_TRUE(catalog.CreateView(std::move(v3), true).ok());
}

TEST(CatalogTest, IndexRequiresTable) {
  Catalog catalog;
  IndexInfo ix;
  ix.name = "ix";
  ix.table = "missing";
  EXPECT_EQ(catalog.CreateIndex(std::move(ix)).code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, TriggersForFiltersByEventAndTiming) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  for (int i = 0; i < 4; ++i) {
    TriggerInfo tg;
    tg.name = "tg" + std::to_string(i);
    tg.table = "t";
    tg.event = (i % 2 == 0) ? sql::TriggerEvent::kInsert
                            : sql::TriggerEvent::kDelete;
    tg.timing = (i < 2) ? sql::TriggerTiming::kBefore
                        : sql::TriggerTiming::kAfter;
    ASSERT_TRUE(catalog.CreateTrigger(std::move(tg)).ok());
  }
  EXPECT_EQ(catalog
                .TriggersFor("t", sql::TriggerEvent::kInsert,
                             sql::TriggerTiming::kBefore)
                .size(),
            1u);
  EXPECT_EQ(catalog
                .TriggersFor("t", sql::TriggerEvent::kDelete,
                             sql::TriggerTiming::kAfter)
                .size(),
            1u);
  EXPECT_TRUE(catalog
                  .TriggersFor("t", sql::TriggerEvent::kUpdate,
                               sql::TriggerTiming::kAfter)
                  .empty());
}

TEST(CatalogTest, RuleForFindsInsteadRules) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  RuleInfo rule;
  rule.name = "r";
  rule.table = "t";
  rule.event = sql::TriggerEvent::kInsert;
  rule.instead = true;
  ASSERT_TRUE(catalog.CreateRule(std::move(rule), false).ok());
  EXPECT_NE(catalog.RuleFor("t", sql::TriggerEvent::kInsert), nullptr);
  EXPECT_EQ(catalog.RuleFor("t", sql::TriggerEvent::kDelete), nullptr);
  EXPECT_EQ(catalog.RuleFor("u", sql::TriggerEvent::kInsert), nullptr);
}

TEST(CatalogTest, SequencesLifecycle) {
  Catalog catalog;
  SequenceInfo sq;
  sq.name = "s";
  ASSERT_TRUE(catalog.CreateSequence(std::move(sq)).ok());
  EXPECT_TRUE(catalog.HasSequence("s"));
  SequenceInfo dup;
  dup.name = "s";
  EXPECT_EQ(catalog.CreateSequence(std::move(dup)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.DropSequence("s").ok());
  EXPECT_EQ(catalog.DropSequence("s").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, UsersAndPrivileges) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  ASSERT_TRUE(catalog.CreateUser("alice", false).ok());
  EXPECT_EQ(catalog.CreateUser("alice", false).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.CreateUser("alice", true).ok());  // IF NOT EXISTS

  EXPECT_FALSE(catalog.HasPrivilege("alice", "t", kPrivSelect));
  catalog.Grant("alice", "t", kPrivSelect | kPrivInsert);
  EXPECT_TRUE(catalog.HasPrivilege("alice", "t", kPrivSelect));
  EXPECT_TRUE(catalog.HasPrivilege("alice", "t", kPrivInsert));
  EXPECT_FALSE(catalog.HasPrivilege("alice", "t", kPrivDelete));
  catalog.Revoke("alice", "t", kPrivInsert);
  EXPECT_FALSE(catalog.HasPrivilege("alice", "t", kPrivInsert));
  EXPECT_TRUE(catalog.HasPrivilege("alice", "t", kPrivSelect));

  // root is implicit superuser.
  EXPECT_TRUE(catalog.HasUser("root"));
  EXPECT_TRUE(catalog.HasPrivilege("root", "t", kPrivAll));

  // Dropping the user clears grants.
  ASSERT_TRUE(catalog.DropUser("alice", false).ok());
  EXPECT_FALSE(catalog.HasPrivilege("alice", "t", kPrivSelect));
  EXPECT_EQ(catalog.DropUser("alice", false).code(), StatusCode::kNotFound);
  EXPECT_TRUE(catalog.DropUser("alice", true).ok());
}

TEST(CatalogTest, MaskOfMapsPrivileges) {
  EXPECT_EQ(MaskOf(sql::Privilege::kSelect), kPrivSelect);
  EXPECT_EQ(MaskOf(sql::Privilege::kAll), kPrivAll);
}

TEST(CatalogTest, CopySnapshotIsIndependent) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable(MakeTable("t")).ok());
  (*catalog.GetTable("t"))->heap.Insert({Value::Int(1), Value::Text("x")});

  Catalog snapshot = catalog;  // what BEGIN does
  (*catalog.GetTable("t"))->heap.Insert({Value::Int(2), Value::Text("y")});
  ASSERT_TRUE(catalog.DropTable("t").ok());

  // The snapshot still has the original single-row table.
  ASSERT_TRUE(snapshot.HasTable("t"));
  EXPECT_EQ((*snapshot.GetTable("t"))->heap.LiveRowCount(), 1u);
}

TEST(CatalogTest, DropTemporaryTables) {
  Catalog catalog;
  TableInfo tmp = MakeTable("tmp");
  tmp.temporary = true;
  ASSERT_TRUE(catalog.CreateTable(std::move(tmp)).ok());
  ASSERT_TRUE(catalog.CreateTable(MakeTable("keep")).ok());
  catalog.DropTemporaryTables();
  EXPECT_FALSE(catalog.HasTable("tmp"));
  EXPECT_TRUE(catalog.HasTable("keep"));
}

// --- change epochs ---------------------------------------------------------

// Runs one statement, which must succeed.
void Exec(Database* db, const std::string& sql) {
  auto stmt = sql::Parser::ParseStatement(sql);
  ASSERT_TRUE(stmt.ok()) << sql;
  auto result = db->Execute(*stmt.value());
  ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
}

// Every statement that writes what SchemaFingerprint covers moves the
// schema epoch (and the fingerprint), whichever executor path writes it:
// catalog object DDL, in-place ALTER TABLE, COMMENT ON, ANALYZE, users and
// privileges, and DISCARD TEMP.
TEST(CatalogEpochTest, EverySchemaMutatorMovesTheSchemaEpoch) {
  Database db;
  for (const char* sql : {
           "CREATE TABLE t (a INT, b TEXT)",
           "CREATE TEMPORARY TABLE tmp (x INT)",
           "ALTER TABLE t ADD COLUMN c INT",
           "ALTER TABLE t RENAME COLUMN c TO d",
           "ALTER TABLE t DROP COLUMN d",
           "ALTER TABLE t RENAME TO u",
           "COMMENT ON TABLE u IS 'doc'",
           "ANALYZE u",
           "CREATE INDEX ix ON u (a)",
           "ALTER TABLE u RENAME COLUMN a TO k",
           "DROP INDEX ix",
           "CREATE VIEW v AS SELECT b FROM u",
           "CREATE OR REPLACE VIEW v AS SELECT k FROM u",
           "DROP VIEW v",
           "CREATE TRIGGER tg AFTER INSERT ON u FOR EACH ROW "
           "INSERT INTO tmp VALUES (1)",
           "DROP TRIGGER tg",
           "CREATE RULE r AS ON DELETE TO u DO INSTEAD NOTHING",
           "DROP RULE r",
           "CREATE SEQUENCE sq",
           "DROP SEQUENCE sq",
           "CREATE USER alice",
           "GRANT SELECT ON u TO alice",
           "REVOKE SELECT ON u FROM alice",
           "DROP USER alice",
           "DISCARD TEMP",
           "DROP TABLE u",
       }) {
    const uint64_t epoch = db.catalog().schema_epoch();
    const uint64_t fingerprint = SchemaFingerprint(db.catalog());
    Exec(&db, sql);
    EXPECT_GT(db.catalog().schema_epoch(), epoch) << sql;
    EXPECT_NE(SchemaFingerprint(db.catalog()), fingerprint) << sql;
  }
}

// nextval and the WAL's sequence replay move only the sequence epoch.
TEST(CatalogEpochTest, SequencePositionsMoveOnlyTheSequenceEpoch) {
  Database db;
  Exec(&db, "CREATE SEQUENCE sq START 5");
  for (int i = 0; i < 2; ++i) {
    const uint64_t schema = db.catalog().schema_epoch();
    const uint64_t sequence = db.catalog().sequence_epoch();
    Exec(&db, "SELECT NEXTVAL('sq')");
    EXPECT_EQ(db.catalog().schema_epoch(), schema);
    EXPECT_GT(db.catalog().sequence_epoch(), sequence);
  }
  const uint64_t schema = db.catalog().schema_epoch();
  const uint64_t sequence = db.catalog().sequence_epoch();
  Exec(&db, "SELECT CURRVAL('sq')");
  EXPECT_EQ(db.catalog().sequence_epoch(), sequence);
  ASSERT_TRUE(db.catalog().SetSequencePosition("sq", 40, true).ok());
  EXPECT_EQ(db.catalog().schema_epoch(), schema);
  EXPECT_GT(db.catalog().sequence_epoch(), sequence);
  EXPECT_EQ(db.catalog().FindSequence("sq")->current, 40);
  EXPECT_EQ(db.catalog().NextVal("missing").status().code(),
            StatusCode::kNotFound);
}

// Row-level statements move neither epoch, also where an index, a view, a
// sequence and a trigger that writes rows are around.
TEST(CatalogEpochTest, RowStatementsMoveNeitherEpoch) {
  Database db;
  Exec(&db, "CREATE TABLE t (a INT, b TEXT)");
  Exec(&db, "CREATE TABLE audit (n INT)");
  Exec(&db, "CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW "
            "INSERT INTO audit VALUES (1)");
  Exec(&db, "CREATE INDEX ta ON t (a)");
  Exec(&db, "CREATE VIEW v AS SELECT a FROM t WHERE a > 1");
  Exec(&db, "CREATE SEQUENCE sq");
  Exec(&db, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  for (const char* sql : {
           "INSERT INTO t VALUES (3, 'z')",
           "UPDATE t SET b = 'w' WHERE a = 2",
           "DELETE FROM t WHERE a = 1",
           "SELECT a, b FROM t WHERE a = 3",
           "SELECT a FROM v",
       }) {
    const uint64_t schema = db.catalog().schema_epoch();
    const uint64_t sequence = db.catalog().sequence_epoch();
    Exec(&db, sql);
    EXPECT_EQ(db.catalog().schema_epoch(), schema) << sql;
    EXPECT_EQ(db.catalog().sequence_epoch(), sequence) << sql;
  }
}

// Assigning a catalog (ROLLBACK, ROLLBACK TO, ResetAll) moves both epochs
// to values the object never held before, though the schema it restores
// is one seen earlier: equal epochs can only mean "not touched".
TEST(CatalogEpochTest, RestoringACatalogNeverRepeatsAnEpoch) {
  Database db;
  std::set<uint64_t> seen;
  auto expect_new = [&](const std::string& step) {
    EXPECT_TRUE(seen.insert(db.catalog().schema_epoch()).second) << step;
    EXPECT_TRUE(seen.insert(db.catalog().sequence_epoch()).second) << step;
  };
  Exec(&db, "CREATE TABLE t (a INT)");
  Exec(&db, "CREATE SEQUENCE sq");
  expect_new("setup");
  Exec(&db, "BEGIN");
  Exec(&db, "SELECT NEXTVAL('sq')");
  Exec(&db, "CREATE TABLE u (b INT)");
  expect_new("in transaction");
  Exec(&db, "ROLLBACK");
  expect_new("ROLLBACK");
  Exec(&db, "BEGIN");
  Exec(&db, "SAVEPOINT sp");
  Exec(&db, "ROLLBACK TO SAVEPOINT sp");
  expect_new("ROLLBACK TO an untouched savepoint");
  Exec(&db, "SELECT NEXTVAL('sq')");
  Exec(&db, "DROP TABLE t");
  expect_new("after the savepoint");
  Exec(&db, "ROLLBACK TO SAVEPOINT sp");
  expect_new("ROLLBACK TO");
  EXPECT_TRUE(db.catalog().HasTable("t"));
  Exec(&db, "COMMIT");
  db.ResetAll();
  expect_new("ResetAll");
}

// A copy or move carries no epoch value along: the destination and the
// moved-from source both draw new ones.
TEST(CatalogEpochTest, CopiesAndMovesDrawNewEpochs) {
  Catalog a;
  ASSERT_TRUE(a.CreateTable(MakeTable("t")).ok());
  const uint64_t before = a.schema_epoch();
  Catalog b = a;
  EXPECT_NE(b.schema_epoch(), before);
  EXPECT_EQ(a.schema_epoch(), before);
  Catalog c = std::move(a);
  EXPECT_NE(c.schema_epoch(), before);
  EXPECT_GT(a.schema_epoch(), before);  // NOLINT(bugprone-use-after-move)
  const uint64_t b_epoch = b.schema_epoch();
  b = c;
  EXPECT_GT(b.schema_epoch(), b_epoch);
}

}  // namespace
}  // namespace lego::minidb
