#ifndef LEGO_MINIDB_CATALOG_H_
#define LEGO_MINIDB_CATALOG_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "minidb/btree.h"
#include "minidb/heap_table.h"
#include "minidb/value.h"
#include "sql/ast.h"
#include "util/status.h"

namespace lego::minidb {

/// One column of a stored table. AST fragments (default expressions) are
/// shared immutable, which makes catalog snapshots cheap.
struct ColumnInfo {
  std::string name;
  ValueType type = ValueType::kInt;
  bool primary_key = false;
  bool unique = false;
  bool not_null = false;
  std::shared_ptr<const sql::Expr> default_value;  // may be null
};

/// Ordered column list of a table.
struct TableSchema {
  std::vector<ColumnInfo> columns;

  /// Index of `name` or -1.
  int FindColumn(const std::string& name) const;
};

/// A secondary (or primary) index. Composite declarations are accepted but
/// keyed on the first column (documented simplification); the full column
/// list is retained for SHOW/validation.
struct IndexInfo {
  std::string name;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
  BTreeIndex tree;
};

/// A stored table: schema + heap + bookkeeping.
struct TableInfo {
  std::string name;
  TableSchema schema;
  HeapTable heap;
  std::vector<std::string> index_names;
  bool temporary = false;
  std::string comment;
  /// Row count recorded by the last ANALYZE; -1 when never analyzed. The
  /// planner consults this for join-strategy choice.
  int64_t analyzed_row_count = -1;
};

struct ViewInfo {
  std::string name;
  std::shared_ptr<const sql::SelectStmt> select;
};

struct TriggerInfo {
  std::string name;
  std::string table;
  sql::TriggerTiming timing = sql::TriggerTiming::kAfter;
  sql::TriggerEvent event = sql::TriggerEvent::kInsert;
  bool for_each_row = true;
  std::shared_ptr<const sql::Statement> body;
};

struct RuleInfo {
  std::string name;
  std::string table;
  sql::TriggerEvent event = sql::TriggerEvent::kInsert;
  bool instead = true;
  std::shared_ptr<const sql::Statement> action;  // null = DO INSTEAD NOTHING
};

struct SequenceInfo {
  std::string name;
  int64_t start = 1;
  int64_t increment = 1;
  int64_t current = 0;
  bool started = false;
};

/// Privilege bitmask per (user, table).
using PrivMask = uint8_t;
constexpr PrivMask kPrivSelect = 1 << 0;
constexpr PrivMask kPrivInsert = 1 << 1;
constexpr PrivMask kPrivUpdate = 1 << 2;
constexpr PrivMask kPrivDelete = 1 << 3;
constexpr PrivMask kPrivAll =
    kPrivSelect | kPrivInsert | kPrivUpdate | kPrivDelete;

/// Converts an AST privilege to its mask bit(s).
PrivMask MaskOf(sql::Privilege p);

/// A change counter for one object. Every value comes from one
/// process-wide counter, and construction, copy and move (into the object
/// and out of it) draw a new one, so a value is never seen twice: two
/// equal readings of one object mean nothing moved it in between.
class ChangeEpoch {
 public:
  ChangeEpoch() : value_(Next()) {}
  ChangeEpoch(const ChangeEpoch&) : value_(Next()) {}
  ChangeEpoch(ChangeEpoch&& other) noexcept : value_(Next()) { other.Bump(); }
  ChangeEpoch& operator=(const ChangeEpoch&) {
    Bump();
    return *this;
  }
  ChangeEpoch& operator=(ChangeEpoch&& other) noexcept {
    Bump();
    other.Bump();
    return *this;
  }

  void Bump() { value_ = Next(); }
  uint64_t value() const { return value_; }

 private:
  static uint64_t Next();

  uint64_t value_;
};

/// The database catalog: all persistent objects. Copyable — snapshot-based
/// transactions deep-copy the catalog (heap/index payloads are value types,
/// AST bodies are shared immutable pointers).
///
/// Two change epochs tell the paged engine's statement bracket what a
/// statement may have changed (see ChangeEpoch; assigning a catalog, as
/// ROLLBACK, ROLLBACK TO and Database::ResetAll do, moves both):
///  - schema_epoch() moves on every write to what SchemaFingerprint covers:
///    CreateTable, DropTable (and so DropTemporaryTables), RenameTable,
///    AddColumn, DropColumn, RenameColumn, SetComment, SetAnalyzedRowCount,
///    CreateIndex, DropIndex, CreateView, DropView, CreateTrigger,
///    DropTrigger, CreateRule, DropRule, CreateSequence, DropSequence,
///    CreateUser, DropUser, Grant and Revoke;
///  - sequence_epoch() moves on every write to a sequence's position:
///    NextVal, SetSequencePosition, CreateSequence and DropSequence.
/// Row data (heaps, index trees) moves neither. Table fields are written
/// only through these methods; the mutable TableInfo and IndexInfo
/// pointers are for heap and index-tree access.
class Catalog {
 public:
  // --- tables ---
  Status CreateTable(TableInfo table);
  StatusOr<TableInfo*> GetTable(const std::string& name);
  StatusOr<const TableInfo*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  /// Drops the table and cascades to its indexes, triggers, and rules.
  Status DropTable(const std::string& name);
  Status RenameTable(const std::string& old_name, const std::string& new_name);
  std::vector<std::string> TableNames() const;
  /// Appends `column` to the table's schema; rows are the caller's.
  Status AddColumn(const std::string& table, ColumnInfo column);
  /// Removes the column at position `column` from the schema; rows and the
  /// indexes keyed on it are the caller's.
  Status DropColumn(const std::string& table, int column);
  /// Renames the column in the schema and in every index of the table.
  Status RenameColumn(const std::string& table, const std::string& old_name,
                      const std::string& new_name);
  Status SetComment(const std::string& table, std::string comment);
  /// Records the row count ANALYZE took.
  Status SetAnalyzedRowCount(const std::string& table, int64_t rows);

  // --- indexes ---
  /// Adds the index and appends it to its table's index_names, unless the
  /// table already lists it (a table loaded from a snapshot lists its
  /// indexes in creation order).
  Status CreateIndex(IndexInfo index);
  StatusOr<IndexInfo*> GetIndex(const std::string& name);
  bool HasIndex(const std::string& name) const;
  Status DropIndex(const std::string& name);
  std::vector<std::string> IndexNames() const;
  /// All indexes attached to `table`.
  std::vector<IndexInfo*> IndexesOf(const std::string& table);

  // --- views ---
  Status CreateView(ViewInfo view, bool or_replace);
  const ViewInfo* GetView(const std::string& name) const;
  bool HasView(const std::string& name) const;
  Status DropView(const std::string& name);
  std::vector<std::string> ViewNames() const;

  // --- triggers ---
  Status CreateTrigger(TriggerInfo trigger);
  bool HasTrigger(const std::string& name) const;
  Status DropTrigger(const std::string& name);
  std::vector<std::string> TriggerNames() const;
  /// Triggers on `table` for `event` with the given timing, in name order.
  std::vector<const TriggerInfo*> TriggersFor(const std::string& table,
                                              sql::TriggerEvent event,
                                              sql::TriggerTiming timing) const;

  // --- rules ---
  Status CreateRule(RuleInfo rule, bool or_replace);
  bool HasRule(const std::string& name) const;
  Status DropRule(const std::string& name);
  /// The INSTEAD rule on (table, event) if any.
  const RuleInfo* RuleFor(const std::string& table,
                          sql::TriggerEvent event) const;
  std::vector<std::string> RuleNames() const;

  // --- sequences ---
  Status CreateSequence(SequenceInfo seq);
  bool HasSequence(const std::string& name) const;
  Status DropSequence(const std::string& name);
  /// Advances the sequence (its start on first use) and returns the value.
  StatusOr<int64_t> NextVal(const std::string& name);
  /// Sets the sequence's position (WAL replay of kSeqSet).
  Status SetSequencePosition(const std::string& name, int64_t current,
                             bool started);

  // --- users & privileges ---
  Status CreateUser(const std::string& name, bool if_not_exists);
  Status DropUser(const std::string& name, bool if_exists);
  bool HasUser(const std::string& name) const;
  void Grant(const std::string& user, const std::string& table, PrivMask mask);
  void Revoke(const std::string& user, const std::string& table,
              PrivMask mask);
  /// True if `user` holds all bits of `mask` on `table`. The superuser
  /// ("root") always passes.
  bool HasPrivilege(const std::string& user, const std::string& table,
                    PrivMask mask) const;

  // --- serde surface (const views for snapshot serialization) ---
  std::vector<std::string> SequenceNames() const;
  const IndexInfo* FindIndex(const std::string& name) const;
  const TriggerInfo* FindTrigger(const std::string& name) const;
  const RuleInfo* FindRule(const std::string& name) const;
  const SequenceInfo* FindSequence(const std::string& name) const;
  const std::set<std::string>& users() const { return users_; }
  const std::map<std::string, std::map<std::string, PrivMask>>& privileges()
      const {
    return privileges_;
  }

  /// Drops all temporary tables (DISCARD TEMP / session reset).
  void DropTemporaryTables();

  /// Routes every non-temporary heap (existing and future) through `store`
  /// (paged mode) and has it report its mutations to `observer`, the
  /// storage engine's WAL capture. Catalog copies share both pointers, so
  /// snapshot copies stay paged and copy-on-write keeps their chains
  /// intact. Temporary tables get neither: they stay memory-resident and
  /// unlogged — they are session state, not durable state, and the
  /// snapshot serde already skips them. A null store detaches nothing
  /// (attachment is one-way for a catalog generation; a fresh generation
  /// starts from a fresh Catalog).
  void set_page_store(PageStore* store, StorageObserver* observer);

  /// Mark phase of the page-store sweep: every physical page id reachable
  /// from a (non-temporary) heap chain.
  void CollectChainPages(std::set<uint32_t>* live) const;

  /// While frozen, every schema change (create/drop/rename of any object
  /// kind) fails with a transaction error. The concurrent backend freezes
  /// the catalog for the multi-session phase: sessions share table/index
  /// structures by name, and row-level locking does not cover DDL. This
  /// also catches DDL nested inside trigger/rule bodies, which the
  /// backend's statement-type screen cannot see.
  void set_ddl_frozen(bool frozen) { ddl_frozen_ = frozen; }
  bool ddl_frozen() const { return ddl_frozen_; }

  uint64_t schema_epoch() const { return schema_epoch_.value(); }
  uint64_t sequence_epoch() const { return sequence_epoch_.value(); }

 private:
  /// Error returned by all mutating schema entry points while frozen.
  Status FrozenError() const;

  ChangeEpoch schema_epoch_;
  ChangeEpoch sequence_epoch_;
  bool ddl_frozen_ = false;
  PageStore* page_store_ = nullptr;  // not owned; null = memory mode
  StorageObserver* observer_ = nullptr;  // not owned; set with page_store_
  std::map<std::string, TableInfo> tables_;
  std::map<std::string, IndexInfo> indexes_;
  std::map<std::string, ViewInfo> views_;
  std::map<std::string, TriggerInfo> triggers_;
  std::map<std::string, RuleInfo> rules_;
  std::map<std::string, SequenceInfo> sequences_;
  std::set<std::string> users_;
  std::map<std::string, std::map<std::string, PrivMask>> privileges_;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_CATALOG_H_
