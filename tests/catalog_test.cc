#include "minidb/catalog.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace lego::minidb
