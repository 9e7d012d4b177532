#include "minidb/executor.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "chaos/failpoint.h"
#include "coverage/coverage.h"
#include "minidb/planner.h"
#include "util/string_util.h"

namespace lego::minidb {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::StatementType;

/// Calls `fn` on `expr` and every sub-expression, without descending into
/// subquery SELECT bodies (their aggregates/windows belong to them).
void VisitExprs(const Expr& expr, const std::function<void(const Expr&)>& fn) {
  fn(expr);
  switch (expr.kind()) {
    case ExprKind::kUnary:
      VisitExprs(static_cast<const sql::UnaryExpr&>(expr).operand(), fn);
      break;
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const sql::BinaryExpr&>(expr);
      VisitExprs(bin.lhs(), fn);
      VisitExprs(bin.rhs(), fn);
      break;
    }
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const sql::FunctionCall&>(expr);
      for (const auto& a : call.args()) VisitExprs(*a, fn);
      if (call.window() != nullptr) {
        for (const auto& p : call.window()->partition_by) VisitExprs(*p, fn);
        for (const auto& [e, desc] : call.window()->order_by) {
          VisitExprs(*e, fn);
        }
      }
      break;
    }
    case ExprKind::kCase: {
      const auto& ce = static_cast<const sql::CaseExpr&>(expr);
      if (ce.operand() != nullptr) VisitExprs(*ce.operand(), fn);
      for (const auto& [w, t] : ce.whens()) {
        VisitExprs(*w, fn);
        VisitExprs(*t, fn);
      }
      if (ce.else_expr() != nullptr) VisitExprs(*ce.else_expr(), fn);
      break;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      VisitExprs(in.needle(), fn);
      for (const auto& e : in.list()) VisitExprs(*e, fn);
      break;
    }
    case ExprKind::kInSubquery:
      VisitExprs(static_cast<const sql::InSubqueryExpr&>(expr).needle(), fn);
      break;
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      VisitExprs(bt.operand(), fn);
      VisitExprs(bt.lo(), fn);
      VisitExprs(bt.hi(), fn);
      break;
    }
    case ExprKind::kLike: {
      const auto& lk = static_cast<const sql::LikeExpr&>(expr);
      VisitExprs(lk.operand(), fn);
      VisitExprs(lk.pattern(), fn);
      break;
    }
    case ExprKind::kIsNull:
      VisitExprs(static_cast<const sql::IsNullExpr&>(expr).operand(), fn);
      break;
    case ExprKind::kCast:
      VisitExprs(static_cast<const sql::CastExpr&>(expr).operand(), fn);
      break;
    default:
      break;
  }
}

/// Collects aggregate calls (no OVER clause) appearing in `expr`.
void CollectAggregates(const Expr& expr,
                       std::vector<const sql::FunctionCall*>* out) {
  VisitExprs(expr, [out](const Expr& e) {
    if (e.kind() != ExprKind::kFunctionCall) return;
    const auto& fn = static_cast<const sql::FunctionCall&>(e);
    if (fn.window() == nullptr && Evaluator::IsAggregateFunction(fn.name())) {
      out->push_back(&fn);
    }
  });
}

/// Collects window function calls (ranking functions or any call with OVER).
void CollectWindowCalls(const Expr& expr,
                        std::vector<const sql::FunctionCall*>* out) {
  VisitExprs(expr, [out](const Expr& e) {
    if (e.kind() != ExprKind::kFunctionCall) return;
    const auto& fn = static_cast<const sql::FunctionCall&>(e);
    if (fn.window() != nullptr ||
        Evaluator::IsWindowFunction(fn.name())) {
      out->push_back(&fn);
    }
  });
}

bool ContainsSubquery(const Expr& expr) {
  bool found = false;
  VisitExprs(expr, [&found](const Expr& e) {
    if (e.kind() == ExprKind::kScalarSubquery ||
        e.kind() == ExprKind::kInSubquery || e.kind() == ExprKind::kExists) {
      found = true;
    }
  });
  return found;
}

/// Derives an output column name for a select item without alias.
std::string DeriveItemName(const Expr& expr, size_t position) {
  if (expr.kind() == ExprKind::kColumnRef) {
    return static_cast<const sql::ColumnRef&>(expr).column();
  }
  if (expr.kind() == ExprKind::kFunctionCall) {
    return ToLower(static_cast<const sql::FunctionCall&>(expr).name());
  }
  return "column" + std::to_string(position + 1);
}

/// Three-way row comparison by precomputed sort keys.
struct SortKeyLess {
  const std::vector<std::vector<Value>>* keys;
  const std::vector<bool>* desc;

  bool operator()(size_t a, size_t b) const {
    const auto& ka = (*keys)[a];
    const auto& kb = (*keys)[b];
    for (size_t i = 0; i < ka.size(); ++i) {
      int c = ka[i].Compare(kb[i]);
      if ((*desc)[i]) c = -c;
      if (c != 0) return c < 0;
    }
    return a < b;  // stable tiebreak
  }
};

/// Hashable group key.
struct GroupKey {
  std::vector<Value> values;

  bool operator==(const GroupKey& o) const {
    if (values.size() != o.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].Compare(o.values[i]) != 0) return false;
    }
    return true;
  }
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    uint64_t h = 0x67726f7570ULL;
    for (const Value& v : k.values) h = HashMix(h, v.Hash());
    return static_cast<size_t>(h);
  }
};

/// Whole-row equality key for DISTINCT / set operations.
std::string RowFingerprint(const Row& row) {
  std::string fp;
  for (const Value& v : row) {
    fp += v.ToString();
    fp.push_back('\x1f');
  }
  return fp;
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::Execute(const sql::Statement& stmt) {
  LEGO_RETURN_IF_ERROR(CheckDepth());
  StatementType type = stmt.type();
  if (!db_->profile().Supports(type)) {
    return StatusOr<ResultSet>(Status::Unsupported(
        std::string(sql::StatementTypeName(type)) +
        " is not supported by dialect " + db_->profile().name));
  }
  LEGO_COV_KEYED(static_cast<int>(type));
  if (db_->session().in_transaction) {
    SetFeature(ExecFeature::kInTransaction);
  }
  switch (type) {
    case StatementType::kCreateTable:
      return ExecCreateTable(static_cast<const sql::CreateTableStmt&>(stmt));
    case StatementType::kCreateIndex:
      return ExecCreateIndex(static_cast<const sql::CreateIndexStmt&>(stmt));
    case StatementType::kCreateView:
      return ExecCreateView(static_cast<const sql::CreateViewStmt&>(stmt));
    case StatementType::kCreateTrigger:
      return ExecCreateTrigger(
          static_cast<const sql::CreateTriggerStmt&>(stmt));
    case StatementType::kCreateSequence:
      return ExecCreateSequence(
          static_cast<const sql::CreateSequenceStmt&>(stmt));
    case StatementType::kCreateRule:
      return ExecCreateRule(static_cast<const sql::CreateRuleStmt&>(stmt));
    case StatementType::kDropTable:
    case StatementType::kDropIndex:
    case StatementType::kDropView:
    case StatementType::kDropTrigger:
    case StatementType::kDropSequence:
    case StatementType::kDropRule:
      return ExecDrop(static_cast<const sql::DropStmt&>(stmt));
    case StatementType::kAlterTable:
      return ExecAlterTable(static_cast<const sql::AlterTableStmt&>(stmt));
    case StatementType::kTruncate:
      return ExecTruncate(static_cast<const sql::TruncateStmt&>(stmt));
    case StatementType::kInsert:
    case StatementType::kReplace:
      return ExecInsert(static_cast<const sql::InsertStmt&>(stmt));
    case StatementType::kUpdate:
      return ExecUpdate(static_cast<const sql::UpdateStmt&>(stmt));
    case StatementType::kDelete:
      return ExecDelete(static_cast<const sql::DeleteStmt&>(stmt));
    case StatementType::kCopy:
      return ExecCopy(static_cast<const sql::CopyStmt&>(stmt));
    case StatementType::kSelect:
      return ExecSelect(static_cast<const sql::SelectStmt&>(stmt));
    case StatementType::kValues:
      return ExecValues(static_cast<const sql::ValuesStmt&>(stmt));
    case StatementType::kWith:
      return ExecWith(static_cast<const sql::WithStmt&>(stmt));
    case StatementType::kGrant:
      return ExecGrant(static_cast<const sql::GrantStmt&>(stmt));
    case StatementType::kRevoke:
      return ExecRevoke(static_cast<const sql::RevokeStmt&>(stmt));
    case StatementType::kCreateUser:
      return ExecCreateUser(static_cast<const sql::CreateUserStmt&>(stmt));
    case StatementType::kDropUser:
      return ExecDropUser(static_cast<const sql::DropUserStmt&>(stmt));
    case StatementType::kBegin:
    case StatementType::kCommit:
    case StatementType::kRollback:
    case StatementType::kSavepoint:
    case StatementType::kRelease:
    case StatementType::kRollbackTo:
      return ExecTcl(stmt);
    case StatementType::kPragma:
    case StatementType::kSet:
      return ExecPragma(static_cast<const sql::PragmaStmt&>(stmt));
    case StatementType::kShow:
      return ExecShow(static_cast<const sql::ShowStmt&>(stmt));
    case StatementType::kExplain:
      return ExecExplain(static_cast<const sql::ExplainStmt&>(stmt));
    case StatementType::kAnalyze:
    case StatementType::kVacuum:
    case StatementType::kReindex:
      return ExecMaintenance(static_cast<const sql::MaintenanceStmt&>(stmt));
    case StatementType::kCheckpoint:
      return ExecCheckpoint();
    case StatementType::kNotify:
      return ExecNotify(static_cast<const sql::NotifyStmt&>(stmt));
    case StatementType::kListen: {
      LEGO_COV();
      const auto& named = static_cast<const sql::NamedStmt&>(stmt);
      db_->session().listening.insert(named.name());
      return ResultSet{};
    }
    case StatementType::kUnlisten: {
      LEGO_COV();
      const auto& named = static_cast<const sql::NamedStmt&>(stmt);
      db_->session().listening.erase(named.name());
      return ResultSet{};
    }
    case StatementType::kComment:
      return ExecComment(static_cast<const sql::CommentStmt&>(stmt));
    case StatementType::kAlterSystem:
      return ExecAlterSystem(static_cast<const sql::AlterSystemStmt&>(stmt));
    case StatementType::kDiscard:
      return ExecDiscard(static_cast<const sql::DiscardStmt&>(stmt));
    default:
      return StatusOr<ResultSet>(
          Status::Internal("unhandled statement type"));
  }
}

void Executor::TraceSubStatement(sql::StatementType type) {
  db_->session().type_trace.push_back(type);
  db_->session().feature_trace.push_back(features_);
}

Status Executor::CheckPrivilege(const std::string& table, PrivMask mask) {
  const std::string& user = db_->session().current_user;
  if (!db_->catalog().HasPrivilege(user, table, mask)) {
    LEGO_COV();
    return Status::PermissionDenied("user '" + user +
                                    "' lacks privilege on '" + table + "'");
  }
  return Status::OK();
}

Status Executor::RunNested(const sql::Statement& stmt) {
  ++depth_;
  auto result = Execute(stmt);
  --depth_;
  return result.ok() ? Status::OK() : result.status();
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecCreateTable(
    const sql::CreateTableStmt& stmt) {
  if (db_->catalog().HasTable(stmt.name) || db_->catalog().HasView(stmt.name)) {
    if (stmt.if_not_exists) {
      LEGO_COV();
      return ResultSet{};
    }
    return StatusOr<ResultSet>(Status::AlreadyExists(
        "relation '" + stmt.name + "' already exists"));
  }
  if (stmt.columns.empty()) {
    return StatusOr<ResultSet>(
        Status::SemanticError("table must have at least one column"));
  }
  TableInfo table;
  table.name = stmt.name;
  table.temporary = stmt.temporary;
  if (stmt.temporary) SetFeature(ExecFeature::kTemporaryTable);
  std::set<std::string> seen;
  int pk_count = 0;
  for (const sql::ColumnDef& def : stmt.columns) {
    if (!seen.insert(def.name).second) {
      return StatusOr<ResultSet>(Status::SemanticError(
          "duplicate column name '" + def.name + "'"));
    }
    ColumnInfo col;
    col.name = def.name;
    col.type = FromSqlType(def.type);
    col.primary_key = def.primary_key;
    col.unique = def.unique || def.primary_key;
    col.not_null = def.not_null || def.primary_key;
    if (def.default_value != nullptr) {
      col.default_value =
          std::shared_ptr<const Expr>(def.default_value->Clone().release());
    }
    pk_count += def.primary_key ? 1 : 0;
    table.schema.columns.push_back(std::move(col));
  }
  if (pk_count > 1) {
    return StatusOr<ResultSet>(
        Status::SemanticError("multiple primary keys are not supported"));
  }
  LEGO_COV();
  std::string table_name = table.name;
  LEGO_RETURN_IF_ERROR(db_->catalog().CreateTable(std::move(table)));
  // Auto-create unique indexes backing PRIMARY KEY / UNIQUE columns.
  for (const sql::ColumnDef& def : stmt.columns) {
    if (!def.primary_key && !def.unique) continue;
    IndexInfo index;
    index.name = table_name + "_" + def.name + "_key";
    index.table = table_name;
    index.columns = {def.name};
    index.unique = true;
    if (db_->catalog().HasIndex(index.name)) continue;
    LEGO_RETURN_IF_ERROR(db_->catalog().CreateIndex(std::move(index)));
  }
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecCreateIndex(
    const sql::CreateIndexStmt& stmt) {
  if (db_->catalog().HasIndex(stmt.name)) {
    if (stmt.if_not_exists) return ResultSet{};
    return StatusOr<ResultSet>(
        Status::AlreadyExists("index '" + stmt.name + "' already exists"));
  }
  LEGO_ASSIGN_OR_RETURN(TableInfo * table, db_->catalog().GetTable(stmt.table));
  for (const std::string& col : stmt.columns) {
    if (table->schema.FindColumn(col) < 0) {
      return StatusOr<ResultSet>(Status::SemanticError(
          "column '" + col + "' does not exist in '" + stmt.table + "'"));
    }
  }
  if (stmt.columns.empty()) {
    return StatusOr<ResultSet>(
        Status::SemanticError("index needs at least one column"));
  }
  IndexInfo index;
  index.name = stmt.name;
  index.table = stmt.table;
  index.columns = stmt.columns;
  index.unique = stmt.unique;
  // Build the tree over existing rows (keyed on the first column).
  int key_col = table->schema.FindColumn(stmt.columns[0]);
  Status violation = Status::OK();
  table->heap.Scan([&](RowId rid, const Row& row) {
    const Value& key = row[static_cast<size_t>(key_col)];
    if (index.unique && !key.is_null() && index.tree.Contains(key)) {
      violation = Status::ConstraintViolation(
          "could not create unique index '" + stmt.name +
          "': duplicate key " + key.ToString());
      return false;
    }
    index.tree.Insert(key, rid);
    return true;
  });
  LEGO_RETURN_IF_ERROR(violation);
  LEGO_COV();
  return db_->catalog().CreateIndex(std::move(index)).ok()
             ? StatusOr<ResultSet>(ResultSet{})
             : StatusOr<ResultSet>(Status::Internal("index creation raced"));
}

StatusOr<ResultSet> Executor::ExecCreateView(const sql::CreateViewStmt& stmt) {
  // Validate the defining query by planning it against the current catalog.
  Planner planner(&db_->catalog(), &db_->profile(), &cte_bindings_);
  LEGO_ASSIGN_OR_RETURN(SelectPlan plan, planner.PlanSelect(*stmt.select));
  (void)plan;
  ViewInfo view;
  view.name = stmt.name;
  view.select = std::shared_ptr<const sql::SelectStmt>(
      stmt.select->CloneSelect().release());
  LEGO_COV();
  LEGO_RETURN_IF_ERROR(
      db_->catalog().CreateView(std::move(view), stmt.or_replace));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecCreateTrigger(
    const sql::CreateTriggerStmt& stmt) {
  if (db_->catalog().HasTrigger(stmt.name)) {
    return StatusOr<ResultSet>(
        Status::AlreadyExists("trigger '" + stmt.name + "' already exists"));
  }
  if (!db_->catalog().HasTable(stmt.table)) {
    return StatusOr<ResultSet>(
        Status::NotFound("table '" + stmt.table + "' does not exist"));
  }
  // Trigger bodies must themselves be supported statements.
  if (!db_->profile().Supports(stmt.body->type())) {
    return StatusOr<ResultSet>(Status::Unsupported(
        "trigger body statement type not supported by dialect"));
  }
  TriggerInfo trigger;
  trigger.name = stmt.name;
  trigger.table = stmt.table;
  trigger.timing = stmt.timing;
  trigger.event = stmt.event;
  trigger.for_each_row = stmt.for_each_row;
  trigger.body =
      std::shared_ptr<const sql::Statement>(stmt.body->Clone().release());
  LEGO_COV();
  LEGO_RETURN_IF_ERROR(db_->catalog().CreateTrigger(std::move(trigger)));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecCreateSequence(
    const sql::CreateSequenceStmt& stmt) {
  if (db_->catalog().HasSequence(stmt.name)) {
    if (stmt.if_not_exists) return ResultSet{};
    return StatusOr<ResultSet>(
        Status::AlreadyExists("sequence '" + stmt.name + "' already exists"));
  }
  if (stmt.increment == 0) {
    return StatusOr<ResultSet>(
        Status::SemanticError("sequence increment must not be zero"));
  }
  SequenceInfo seq;
  seq.name = stmt.name;
  seq.start = stmt.start;
  seq.increment = stmt.increment;
  LEGO_COV();
  LEGO_RETURN_IF_ERROR(db_->catalog().CreateSequence(std::move(seq)));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecCreateRule(const sql::CreateRuleStmt& stmt) {
  if (!db_->profile().supports_rules) {
    return StatusOr<ResultSet>(
        Status::Unsupported("rules are not supported by this dialect"));
  }
  RuleInfo rule;
  rule.name = stmt.name;
  rule.table = stmt.table;
  rule.event = stmt.event;
  rule.instead = stmt.instead;
  if (stmt.action != nullptr) {
    if (!db_->profile().Supports(stmt.action->type())) {
      return StatusOr<ResultSet>(Status::Unsupported(
          "rule action statement type not supported by dialect"));
    }
    rule.action =
        std::shared_ptr<const sql::Statement>(stmt.action->Clone().release());
  }
  LEGO_COV();
  StatementType action_type =
      stmt.action != nullptr ? stmt.action->type() : StatementType::kNumTypes;
  LEGO_RETURN_IF_ERROR(
      db_->catalog().CreateRule(std::move(rule), stmt.or_replace));
  // Defining a rule registers its action in the execution trace — the
  // paper's case study counts the NOTIFY inside CREATE RULE as part of the
  // SQL Type Sequence.
  if (action_type != StatementType::kNumTypes) {
    TraceSubStatement(action_type);
  }
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecDrop(const sql::DropStmt& stmt) {
  Status status;
  switch (stmt.type()) {
    case StatementType::kDropTable:
      status = db_->catalog().DropTable(stmt.name());
      break;
    case StatementType::kDropIndex:
      status = db_->catalog().DropIndex(stmt.name());
      break;
    case StatementType::kDropView:
      status = db_->catalog().DropView(stmt.name());
      break;
    case StatementType::kDropTrigger:
      status = db_->catalog().DropTrigger(stmt.name());
      break;
    case StatementType::kDropSequence:
      status = db_->catalog().DropSequence(stmt.name());
      break;
    case StatementType::kDropRule:
      status = db_->catalog().DropRule(stmt.name());
      break;
    default:
      status = Status::Internal("bad drop type");
      break;
  }
  if (!status.ok() && status.code() == StatusCode::kNotFound &&
      stmt.if_exists()) {
    LEGO_COV();
    return ResultSet{};
  }
  LEGO_RETURN_IF_ERROR(status);
  LEGO_COV_KEYED(static_cast<int>(stmt.type()));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecAlterTable(const sql::AlterTableStmt& stmt) {
  LEGO_ASSIGN_OR_RETURN(TableInfo * table, db_->catalog().GetTable(stmt.table));
  switch (stmt.action) {
    case sql::AlterAction::kAddColumn: {
      LEGO_COV();
      if (table->schema.FindColumn(stmt.new_column.name) >= 0) {
        return StatusOr<ResultSet>(Status::AlreadyExists(
            "column '" + stmt.new_column.name + "' already exists"));
      }
      ColumnInfo col;
      col.name = stmt.new_column.name;
      col.type = FromSqlType(stmt.new_column.type);
      col.not_null = stmt.new_column.not_null;
      col.unique = stmt.new_column.unique;
      if (stmt.new_column.default_value != nullptr) {
        col.default_value = std::shared_ptr<const Expr>(
            stmt.new_column.default_value->Clone().release());
      }
      Value fill = Value::Null();
      if (col.default_value != nullptr) {
        EvalContext ctx;
        ctx.hooks = this;
        LEGO_ASSIGN_OR_RETURN(fill, Evaluator::Eval(*col.default_value, ctx));
        fill = fill.CastTo(col.type);
      }
      if (col.not_null && fill.is_null() && table->heap.LiveRowCount() > 0) {
        return StatusOr<ResultSet>(Status::SemanticError(
            "cannot add NOT NULL column without default to non-empty table"));
      }
      LEGO_RETURN_IF_ERROR(db_->catalog().AddColumn(stmt.table, col));
      std::vector<std::pair<RowId, Row>> updates;
      table->heap.Scan([&](RowId rid, const Row& row) {
        Row wider = row;
        wider.push_back(fill);
        updates.emplace_back(rid, std::move(wider));
        return true;
      });
      for (auto& [rid, row] : updates) table->heap.Update(rid, std::move(row));
      return ResultSet{};
    }
    case sql::AlterAction::kDropColumn: {
      LEGO_COV();
      int idx = table->schema.FindColumn(stmt.old_name);
      if (idx < 0) {
        return StatusOr<ResultSet>(Status::NotFound(
            "column '" + stmt.old_name + "' does not exist"));
      }
      if (table->schema.columns.size() == 1) {
        return StatusOr<ResultSet>(Status::SemanticError(
            "cannot drop the only column of a table"));
      }
      // Drop indexes keyed on the column.
      std::vector<std::string> doomed;
      for (IndexInfo* index : db_->catalog().IndexesOf(stmt.table)) {
        if (!index->columns.empty() && index->columns[0] == stmt.old_name) {
          doomed.push_back(index->name);
        }
      }
      for (const std::string& name : doomed) {
        LEGO_RETURN_IF_ERROR(db_->catalog().DropIndex(name));
      }
      LEGO_RETURN_IF_ERROR(db_->catalog().DropColumn(stmt.table, idx));
      std::vector<std::pair<RowId, Row>> updates;
      table->heap.Scan([&](RowId rid, const Row& row) {
        Row narrower = row;
        narrower.erase(narrower.begin() + idx);
        updates.emplace_back(rid, std::move(narrower));
        return true;
      });
      for (auto& [rid, row] : updates) table->heap.Update(rid, std::move(row));
      return ResultSet{};
    }
    case sql::AlterAction::kRenameColumn: {
      LEGO_COV();
      int idx = table->schema.FindColumn(stmt.old_name);
      if (idx < 0) {
        return StatusOr<ResultSet>(Status::NotFound(
            "column '" + stmt.old_name + "' does not exist"));
      }
      if (table->schema.FindColumn(stmt.new_name) >= 0) {
        return StatusOr<ResultSet>(Status::AlreadyExists(
            "column '" + stmt.new_name + "' already exists"));
      }
      // The catalog renames the column in the table's schema and in the
      // column list of each of its indexes, which must keep finding their
      // key column.
      LEGO_RETURN_IF_ERROR(db_->catalog().RenameColumn(
          stmt.table, stmt.old_name, stmt.new_name));

      return ResultSet{};
    }
    case sql::AlterAction::kRenameTable: {
      LEGO_COV();
      LEGO_RETURN_IF_ERROR(
          db_->catalog().RenameTable(stmt.table, stmt.new_name));
      return ResultSet{};
    }
  }
  return StatusOr<ResultSet>(Status::Internal("bad alter action"));
}

StatusOr<ResultSet> Executor::ExecTruncate(const sql::TruncateStmt& stmt) {
  LEGO_ASSIGN_OR_RETURN(TableInfo * table, db_->catalog().GetTable(stmt.table));
  LEGO_RETURN_IF_ERROR(CheckPrivilege(stmt.table, kPrivDelete));
  LEGO_COV();
  table->heap.Clear();
  for (IndexInfo* index : db_->catalog().IndexesOf(stmt.table)) {
    index->tree.Clear();
  }
  return ResultSet{};
}

// ---------------------------------------------------------------------------
// DML helpers
// ---------------------------------------------------------------------------

StatusOr<Row> Executor::BuildInsertRow(const TableInfo& table,
                                       const std::vector<std::string>& columns,
                                       const std::vector<Value>& values) {
  const size_t width = table.schema.columns.size();
  Row row(width, Value::Null());
  std::vector<bool> provided(width, false);

  if (columns.empty()) {
    if (values.size() > width) {
      return StatusOr<Row>(Status::SemanticError(
          "too many values for table '" + table.name + "'"));
    }
    for (size_t i = 0; i < values.size(); ++i) {
      row[i] = values[i];
      provided[i] = true;
    }
  } else {
    if (columns.size() != values.size()) {
      return StatusOr<Row>(Status::SemanticError(
          "column list and VALUES count mismatch"));
    }
    for (size_t i = 0; i < columns.size(); ++i) {
      int idx = table.schema.FindColumn(columns[i]);
      if (idx < 0) {
        return StatusOr<Row>(Status::SemanticError(
            "column '" + columns[i] + "' does not exist in '" + table.name +
            "'"));
      }
      if (provided[static_cast<size_t>(idx)]) {
        return StatusOr<Row>(Status::SemanticError(
            "column '" + columns[i] + "' specified twice"));
      }
      row[static_cast<size_t>(idx)] = values[i];
      provided[static_cast<size_t>(idx)] = true;
    }
  }

  // Fill defaults, coerce to declared types, enforce NOT NULL.
  for (size_t i = 0; i < width; ++i) {
    const ColumnInfo& col = table.schema.columns[i];
    if (!provided[i] && col.default_value != nullptr) {
      LEGO_COV();
      EvalContext ctx;
      ctx.hooks = this;
      LEGO_ASSIGN_OR_RETURN(row[i], Evaluator::Eval(*col.default_value, ctx));
    }
    if (!row[i].is_null()) {
      row[i] = row[i].CastTo(col.type);
    }
    if (col.not_null && row[i].is_null()) {
      return StatusOr<Row>(Status::ConstraintViolation(
          "null value in column '" + col.name + "' violates NOT NULL"));
    }
  }
  return row;
}

Status Executor::CheckConstraints(TableInfo* table, const Row& row,
                                  const RowId* ignore_rid) {
  for (IndexInfo* index : db_->catalog().IndexesOf(table->name)) {
    if (!index->unique || index->columns.empty()) continue;
    int col = table->schema.FindColumn(index->columns[0]);
    if (col < 0) continue;
    const Value& key = row[static_cast<size_t>(col)];
    if (key.is_null()) continue;  // SQL: NULLs never conflict
    for (RowId rid : index->tree.Find(key)) {
      if (ignore_rid != nullptr && rid == *ignore_rid) continue;
      LEGO_COV();
      return Status::ConstraintViolation(
          "duplicate key " + key.ToString() + " violates unique index '" +
          index->name + "'");
    }
  }
  return Status::OK();
}

Status Executor::IndexInsert(TableInfo* table, const Row& row, RowId rid) {
  for (IndexInfo* index : db_->catalog().IndexesOf(table->name)) {
    if (index->columns.empty()) continue;
    int col = table->schema.FindColumn(index->columns[0]);
    if (col < 0) continue;
    index->tree.Insert(row[static_cast<size_t>(col)], rid);
  }
  return Status::OK();
}

Status Executor::IndexErase(TableInfo* table, const Row& row, RowId rid) {
  for (IndexInfo* index : db_->catalog().IndexesOf(table->name)) {
    if (index->columns.empty()) continue;
    int col = table->schema.FindColumn(index->columns[0]);
    if (col < 0) continue;
    index->tree.Erase(row[static_cast<size_t>(col)], rid);
  }
  return Status::OK();
}

Status Executor::FireTriggers(const std::string& table,
                              sql::TriggerEvent event,
                              sql::TriggerTiming timing, int64_t affected) {
  auto triggers = db_->catalog().TriggersFor(table, event, timing);
  if (triggers.empty()) return Status::OK();
  SetFeature(ExecFeature::kTriggerFired);
  for (const TriggerInfo* trigger : triggers) {
    int64_t firings = trigger->for_each_row ? affected : (affected > 0 ? 1 : 0);
    for (int64_t i = 0; i < firings; ++i) {
      if (++trigger_firings_ > kMaxTriggerFirings) {
        LEGO_COV();
        return Status::ExecutionError("trigger firing limit exceeded");
      }
      LEGO_COV();
      TraceSubStatement(trigger->body->type());
      LEGO_RETURN_IF_ERROR(RunNested(*trigger->body));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DML statements
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecInsert(const sql::InsertStmt& stmt) {
  // Chaos site on the row-materialization path: a fired failpoint models an
  // allocation failure as a statement-level error, not a session death.
  if (LEGO_FAILPOINT("minidb.insert_alloc")) {
    return Status::ExecutionError("chaos: simulated allocation failure");
  }
  // An INSTEAD rule rewrites the whole statement (the paper's case-study
  // path: a DML inside WITH being replaced by a NOTIFY).
  const RuleInfo* rule =
      db_->catalog().RuleFor(stmt.table, sql::TriggerEvent::kInsert);
  if (rule != nullptr) {
    LEGO_COV();
    SetFeature(ExecFeature::kRuleRewrite);
    if (rule->action == nullptr) return ResultSet{};  // DO INSTEAD NOTHING
    TraceSubStatement(rule->action->type());
    LEGO_RETURN_IF_ERROR(RunNested(*rule->action));
    return ResultSet{};
  }

  LEGO_ASSIGN_OR_RETURN(TableInfo * table, db_->catalog().GetTable(stmt.table));
  LEGO_RETURN_IF_ERROR(CheckPrivilege(stmt.table, kPrivInsert));

  // Gather source rows: literal VALUES rows or a SELECT.
  std::vector<std::vector<Value>> source_rows;
  if (stmt.select != nullptr) {
    LEGO_COV();
    SetFeature(ExecFeature::kSubquery);
    LEGO_ASSIGN_OR_RETURN(Relation rel, EvalSelect(*stmt.select, nullptr));
    for (Row& r : rel.rows) source_rows.push_back(std::move(r));
  } else {
    EvalContext ctx;
    ctx.runner = this;
    ctx.hooks = this;
    for (const auto& exprs : stmt.rows) {
      std::vector<Value> vals;
      vals.reserve(exprs.size());
      for (const auto& e : exprs) {
        LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*e, ctx));
        vals.push_back(std::move(v));
      }
      source_rows.push_back(std::move(vals));
    }
  }

  ResultSet result;
  for (const auto& vals : source_rows) {
    auto row_or = BuildInsertRow(*table, stmt.columns, vals);
    if (!row_or.ok()) {
      if (stmt.or_ignore) {
        LEGO_COV();
        continue;
      }
      return row_or.status();
    }
    Row row = std::move(*row_or);

    Status constraint = CheckConstraints(table, row, nullptr);
    if (!constraint.ok()) {
      if (stmt.replace) {
        LEGO_COV();
        // REPLACE semantics: delete conflicting rows, then insert.
        for (IndexInfo* index : db_->catalog().IndexesOf(table->name)) {
          if (!index->unique || index->columns.empty()) continue;
          int col = table->schema.FindColumn(index->columns[0]);
          if (col < 0) continue;
          const Value& key = row[static_cast<size_t>(col)];
          if (key.is_null()) continue;
          for (RowId rid : index->tree.Find(key)) {
            const Row* victim = table->heap.Get(rid);
            if (victim == nullptr) continue;
            Row copy = *victim;
            IndexErase(table, copy, rid);
            table->heap.Delete(rid);
          }
        }
      } else if (stmt.or_ignore) {
        LEGO_COV();
        continue;
      } else {
        return StatusOr<ResultSet>(constraint);
      }
    }

    LEGO_RETURN_IF_ERROR(FireTriggers(stmt.table, sql::TriggerEvent::kInsert,
                                      sql::TriggerTiming::kBefore, 1));
    // Re-resolve: a BEFORE trigger may have mutated the table.
    LEGO_ASSIGN_OR_RETURN(table, db_->catalog().GetTable(stmt.table));
    RowId rid = table->heap.Insert(row);
    IndexInsert(table, row, rid);
    ++result.affected_rows;
    LEGO_RETURN_IF_ERROR(FireTriggers(stmt.table, sql::TriggerEvent::kInsert,
                                      sql::TriggerTiming::kAfter, 1));
    LEGO_ASSIGN_OR_RETURN(table, db_->catalog().GetTable(stmt.table));
  }
  LEGO_COV();
  return result;
}

StatusOr<ResultSet> Executor::ExecUpdate(const sql::UpdateStmt& stmt) {
  const RuleInfo* rule =
      db_->catalog().RuleFor(stmt.table, sql::TriggerEvent::kUpdate);
  if (rule != nullptr) {
    LEGO_COV();
    SetFeature(ExecFeature::kRuleRewrite);
    if (rule->action == nullptr) return ResultSet{};
    TraceSubStatement(rule->action->type());
    LEGO_RETURN_IF_ERROR(RunNested(*rule->action));
    return ResultSet{};
  }

  LEGO_ASSIGN_OR_RETURN(TableInfo * table, db_->catalog().GetTable(stmt.table));
  LEGO_RETURN_IF_ERROR(CheckPrivilege(stmt.table, kPrivUpdate));

  // Validate assignment targets.
  std::vector<int> target_cols;
  for (const auto& [col, expr] : stmt.assignments) {
    int idx = table->schema.FindColumn(col);
    if (idx < 0) {
      return StatusOr<ResultSet>(Status::SemanticError(
          "column '" + col + "' does not exist in '" + stmt.table + "'"));
    }
    target_cols.push_back(idx);
  }

  // Build the scan schema for WHERE/SET evaluation.
  Relation schema_rel;
  for (const ColumnInfo& col : table->schema.columns) {
    schema_rel.columns.push_back({stmt.table, col.name});
  }

  if (stmt.where != nullptr && ContainsSubquery(*stmt.where)) {
    SetFeature(ExecFeature::kSubquery);
  }

  // Phase 1: collect matching rows (avoid mutating under the scan).
  struct Pending {
    RowId rid;
    Row old_row;
    Row new_row;
  };
  std::vector<Pending> pending;
  Status scan_status = Status::OK();
  table->heap.Scan([&](RowId rid, const Row& row) {
    EvalContext ctx;
    ctx.rel = &schema_rel;
    ctx.row = &row;
    ctx.runner = this;
    ctx.hooks = this;
    if (stmt.where != nullptr) {
      auto pred = Evaluator::EvalPredicate(*stmt.where, ctx);
      if (!pred.ok()) {
        scan_status = pred.status();
        return false;
      }
      if (*pred != Tribool::kTrue) return true;
    }
    Pending p;
    p.rid = rid;
    p.old_row = row;
    p.new_row = row;
    for (size_t i = 0; i < stmt.assignments.size(); ++i) {
      auto v = Evaluator::Eval(*stmt.assignments[i].second, ctx);
      if (!v.ok()) {
        scan_status = v.status();
        return false;
      }
      size_t idx = static_cast<size_t>(target_cols[i]);
      Value nv = std::move(*v);
      if (!nv.is_null()) nv = nv.CastTo(table->schema.columns[idx].type);
      p.new_row[idx] = std::move(nv);
    }
    pending.push_back(std::move(p));
    return true;
  });
  LEGO_RETURN_IF_ERROR(scan_status);

  // Phase 2: constraint checks then apply.
  for (const Pending& p : pending) {
    for (size_t i = 0; i < table->schema.columns.size(); ++i) {
      const ColumnInfo& col = table->schema.columns[i];
      if (col.not_null && p.new_row[i].is_null()) {
        return StatusOr<ResultSet>(Status::ConstraintViolation(
            "null value in column '" + col.name + "' violates NOT NULL"));
      }
    }
    LEGO_RETURN_IF_ERROR(CheckConstraints(table, p.new_row, &p.rid));
  }
  for (Pending& p : pending) {
    IndexErase(table, p.old_row, p.rid);
    table->heap.Update(p.rid, p.new_row);
    IndexInsert(table, p.new_row, p.rid);
  }
  LEGO_COV();
  ResultSet result;
  result.affected_rows = static_cast<int64_t>(pending.size());
  LEGO_RETURN_IF_ERROR(FireTriggers(stmt.table, sql::TriggerEvent::kUpdate,
                                    sql::TriggerTiming::kAfter,
                                    result.affected_rows));
  return result;
}

StatusOr<ResultSet> Executor::ExecDelete(const sql::DeleteStmt& stmt) {
  const RuleInfo* rule =
      db_->catalog().RuleFor(stmt.table, sql::TriggerEvent::kDelete);
  if (rule != nullptr) {
    LEGO_COV();
    SetFeature(ExecFeature::kRuleRewrite);
    if (rule->action == nullptr) return ResultSet{};
    TraceSubStatement(rule->action->type());
    LEGO_RETURN_IF_ERROR(RunNested(*rule->action));
    return ResultSet{};
  }

  LEGO_ASSIGN_OR_RETURN(TableInfo * table, db_->catalog().GetTable(stmt.table));
  LEGO_RETURN_IF_ERROR(CheckPrivilege(stmt.table, kPrivDelete));

  Relation schema_rel;
  for (const ColumnInfo& col : table->schema.columns) {
    schema_rel.columns.push_back({stmt.table, col.name});
  }
  if (stmt.where != nullptr && ContainsSubquery(*stmt.where)) {
    SetFeature(ExecFeature::kSubquery);
  }

  std::vector<std::pair<RowId, Row>> victims;
  Status scan_status = Status::OK();
  table->heap.Scan([&](RowId rid, const Row& row) {
    if (stmt.where != nullptr) {
      EvalContext ctx;
      ctx.rel = &schema_rel;
      ctx.row = &row;
      ctx.runner = this;
      ctx.hooks = this;
      auto pred = Evaluator::EvalPredicate(*stmt.where, ctx);
      if (!pred.ok()) {
        scan_status = pred.status();
        return false;
      }
      if (*pred != Tribool::kTrue) return true;
    }
    victims.emplace_back(rid, row);
    return true;
  });
  LEGO_RETURN_IF_ERROR(scan_status);

  for (auto& [rid, row] : victims) {
    IndexErase(table, row, rid);
    table->heap.Delete(rid);
  }
  LEGO_COV();
  if (table->heap.LiveRowCount() == 0) SetFeature(ExecFeature::kEmptyInput);
  ResultSet result;
  result.affected_rows = static_cast<int64_t>(victims.size());
  LEGO_RETURN_IF_ERROR(FireTriggers(stmt.table, sql::TriggerEvent::kDelete,
                                    sql::TriggerTiming::kAfter,
                                    result.affected_rows));
  return result;
}

StatusOr<ResultSet> Executor::ExecCopy(const sql::CopyStmt& stmt) {
  if (!db_->profile().supports_copy) {
    return StatusOr<ResultSet>(
        Status::Unsupported("COPY is not supported by this dialect"));
  }
  if (!stmt.to_stdout) {
    return StatusOr<ResultSet>(
        Status::Unsupported("COPY FROM STDIN is not supported"));
  }
  Relation rel;
  if (stmt.query != nullptr) {
    LEGO_COV();
    SetFeature(ExecFeature::kSubquery);
    LEGO_ASSIGN_OR_RETURN(rel, EvalSelect(*stmt.query, nullptr));
  } else {
    LEGO_COV();
    LEGO_ASSIGN_OR_RETURN(const TableInfo* table,
                          db_->catalog().GetTable(stmt.table));
    LEGO_RETURN_IF_ERROR(CheckPrivilege(stmt.table, kPrivSelect));
    for (const ColumnInfo& col : table->schema.columns) {
      rel.columns.push_back({stmt.table, col.name});
    }
    table->heap.Scan([&](RowId, const Row& row) {
      rel.rows.push_back(row);
      return true;
    });
  }
  ResultSet result;
  const char* sep = stmt.csv ? "," : "\t";
  if (stmt.header) {
    LEGO_COV();
    std::vector<std::string> names;
    names.reserve(rel.columns.size());
    for (const RelColumn& c : rel.columns) names.push_back(c.name);
    result.notes.push_back(Join(names, sep));
  }
  for (const Row& row : rel.rows) {
    std::vector<std::string> fields;
    fields.reserve(row.size());
    for (const Value& v : row) fields.push_back(v.ToText());
    result.notes.push_back(Join(fields, sep));
  }
  result.affected_rows = static_cast<int64_t>(rel.rows.size());
  return result;
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecSelect(const sql::SelectStmt& stmt) {
  // Chaos site on the result-set path (see ExecInsert).
  if (LEGO_FAILPOINT("minidb.select_alloc")) {
    return Status::ExecutionError("chaos: simulated allocation failure");
  }
  LEGO_ASSIGN_OR_RETURN(Relation rel, EvalSelect(stmt, nullptr));
  ResultSet result;
  for (const RelColumn& col : rel.columns) result.column_names.push_back(col.name);
  result.rows = std::move(rel.rows);
  return result;
}

StatusOr<Relation> Executor::RunSubquery(const sql::SelectStmt& stmt,
                                         const EvalContext* outer) {
  ++depth_;
  LEGO_RETURN_IF_ERROR(CheckDepth());
  SetFeature(ExecFeature::kSubquery);
  auto rel = EvalSelect(stmt, outer);
  --depth_;
  return rel;
}

StatusOr<Relation> Executor::EvalSelect(const sql::SelectStmt& stmt,
                                        const EvalContext* outer) {
  LEGO_ASSIGN_OR_RETURN(Relation rel,
                        EvalSelectCore(stmt.core, stmt, true, outer));

  // Compound arms (UNION/EXCEPT/INTERSECT).
  for (const auto& [kind, core] : stmt.compounds) {
    if (!db_->profile().supports_set_operations) {
      return StatusOr<Relation>(Status::Unsupported(
          "set operations are not supported by this dialect"));
    }
    SetFeature(ExecFeature::kSetOperation);
    LEGO_ASSIGN_OR_RETURN(Relation arm,
                          EvalSelectCore(core, stmt, false, outer));
    if (arm.columns.size() != rel.columns.size()) {
      return StatusOr<Relation>(Status::SemanticError(
          "set operation arms have different column counts"));
    }
    switch (kind) {
      case sql::SetOpKind::kUnionAll: {
        LEGO_COV();
        for (Row& r : arm.rows) rel.rows.push_back(std::move(r));
        break;
      }
      case sql::SetOpKind::kUnion: {
        LEGO_COV();
        std::set<std::string> seen;
        std::vector<Row> merged;
        for (auto* source : {&rel.rows, &arm.rows}) {
          for (Row& r : *source) {
            if (seen.insert(RowFingerprint(r)).second) {
              merged.push_back(std::move(r));
            }
          }
        }
        rel.rows = std::move(merged);
        break;
      }
      case sql::SetOpKind::kExcept: {
        LEGO_COV();
        std::set<std::string> removed;
        for (const Row& r : arm.rows) removed.insert(RowFingerprint(r));
        std::set<std::string> seen;
        std::vector<Row> kept;
        for (Row& r : rel.rows) {
          std::string fp = RowFingerprint(r);
          if (removed.count(fp) || !seen.insert(fp).second) continue;
          kept.push_back(std::move(r));
        }
        rel.rows = std::move(kept);
        break;
      }
      case sql::SetOpKind::kIntersect: {
        LEGO_COV();
        std::set<std::string> other;
        for (const Row& r : arm.rows) other.insert(RowFingerprint(r));
        std::set<std::string> seen;
        std::vector<Row> kept;
        for (Row& r : rel.rows) {
          std::string fp = RowFingerprint(r);
          if (!other.count(fp) || !seen.insert(fp).second) continue;
          kept.push_back(std::move(r));
        }
        rel.rows = std::move(kept);
        break;
      }
    }
  }

  LEGO_RETURN_IF_ERROR(ApplyOrderByLimit(stmt, &rel, outer));
  return rel;
}

StatusOr<Relation> Executor::EvalSelectCore(const sql::SelectCore& core,
                                            const sql::SelectStmt& stmt,
                                            bool is_first_core,
                                            const EvalContext* outer) {
  (void)stmt;
  (void)is_first_core;
  if (core.items.empty()) {
    return StatusOr<Relation>(
        Status::SemanticError("SELECT list must not be empty"));
  }

  // Plan + materialize the FROM clause.
  Relation input;
  if (core.from != nullptr) {
    Planner planner(&db_->catalog(), &db_->profile(), &cte_bindings_);
    LEGO_ASSIGN_OR_RETURN(SelectPlan plan, planner.PlanCore(core));
    LEGO_ASSIGN_OR_RETURN(input, MaterializePlan(*plan.from, outer));
  } else {
    LEGO_COV();
    input.rows.emplace_back();  // one empty row: SELECT 1
  }

  // WHERE filter.
  if (core.where != nullptr) {
    if (ContainsSubquery(*core.where)) SetFeature(ExecFeature::kSubquery);
    std::vector<Row> kept;
    for (Row& row : input.rows) {
      EvalContext ctx;
      ctx.rel = &input;
      ctx.row = &row;
      ctx.outer = outer;
      ctx.runner = this;
      ctx.hooks = this;
      LEGO_ASSIGN_OR_RETURN(Tribool pred,
                            Evaluator::EvalPredicate(*core.where, ctx));
      if (pred == Tribool::kTrue) kept.push_back(std::move(row));
    }
    input.rows = std::move(kept);
  }
  if (input.rows.empty()) SetFeature(ExecFeature::kEmptyInput);

  // Aggregation path?
  std::vector<const sql::FunctionCall*> aggregates;
  for (const auto& item : core.items) CollectAggregates(*item.expr, &aggregates);
  if (core.having != nullptr) {
    CollectAggregates(*core.having, &aggregates);
    SetFeature(ExecFeature::kHaving);
  }
  if (!core.group_by.empty()) SetFeature(ExecFeature::kGroupBy);
  if (!aggregates.empty()) SetFeature(ExecFeature::kAggregate);

  Relation output;
  if (!aggregates.empty() || !core.group_by.empty()) {
    LEGO_ASSIGN_OR_RETURN(output,
                          ApplyAggregation(core, std::move(input), outer));
  } else {
    LEGO_ASSIGN_OR_RETURN(output, ApplyProjection(core, input, outer));
  }

  // DISTINCT.
  if (core.distinct) {
    LEGO_COV();
    SetFeature(ExecFeature::kDistinct);
    std::set<std::string> seen;
    std::vector<Row> kept;
    for (Row& r : output.rows) {
      if (seen.insert(RowFingerprint(r)).second) kept.push_back(std::move(r));
    }
    output.rows = std::move(kept);
  }
  return output;
}

StatusOr<Relation> Executor::MaterializePlan(const PlanNode& node,
                                             const EvalContext* outer) {
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      LEGO_ASSIGN_OR_RETURN(const TableInfo* table,
                            db_->catalog().GetTable(node.table));
      LEGO_RETURN_IF_ERROR(CheckPrivilege(node.table, kPrivSelect));
      Relation rel;
      for (const ColumnInfo& col : table->schema.columns) {
        rel.columns.push_back({node.alias, col.name});
      }
      if (node.method == ScanMethod::kSeqScan) {
        LEGO_COV();
        table->heap.Scan([&](RowId, const Row& row) {
          rel.rows.push_back(row);
          return true;
        });
        return rel;
      }
      // Index scans.
      SetFeature(ExecFeature::kIndexScanUsed);
      auto index_or = db_->catalog().GetIndex(node.index_name);
      if (!index_or.ok()) return StatusOr<Relation>(index_or.status());
      IndexInfo* index = *index_or;
      // The tree orders keys by Value::Compare, which rank-separates bools,
      // numbers, and text, while the WHERE filter compares with CompareSql,
      // which coerces across those families. A probe from a different
      // family than the declared key type could therefore skip rows the
      // filter would keep; scan the heap instead (the filter re-applies).
      const int key_col =
          index->columns.empty()
              ? -1
              : table->schema.FindColumn(index->columns[0]);
      auto probe_compatible = [&](const Value& v) {
        if (key_col < 0) return false;
        if (v.is_null()) return true;  // NULL bound: filter rejects all rows
        auto family = [](ValueType t) {
          return t == ValueType::kReal ? ValueType::kInt : t;
        };
        return family(v.type()) ==
               family(table->schema.columns[static_cast<size_t>(key_col)].type);
      };
      auto scan_heap = [&] {
        table->heap.Scan([&](RowId, const Row& row) {
          rel.rows.push_back(row);
          return true;
        });
      };
      EvalContext ctx;
      ctx.runner = this;
      ctx.hooks = this;
      ctx.outer = outer;
      std::vector<RowId> rids;
      if (node.method == ScanMethod::kIndexEqual) {
        LEGO_COV();
        LEGO_ASSIGN_OR_RETURN(Value probe,
                              Evaluator::Eval(*node.eq_probe, ctx));
        if (!probe_compatible(probe)) {
          LEGO_COV();
          scan_heap();
          return rel;
        }
        rids = index->tree.Find(probe);
      } else {
        LEGO_COV();
        Value lo;
        Value hi;
        bool has_lo = node.range_lo != nullptr;
        bool has_hi = node.range_hi != nullptr;
        if (has_lo) {
          LEGO_ASSIGN_OR_RETURN(lo, Evaluator::Eval(*node.range_lo, ctx));
        }
        if (has_hi) {
          LEGO_ASSIGN_OR_RETURN(hi, Evaluator::Eval(*node.range_hi, ctx));
        }
        if ((has_lo && !probe_compatible(lo)) ||
            (has_hi && !probe_compatible(hi))) {
          LEGO_COV();
          scan_heap();
          return rel;
        }
        rids = index->tree.Range(has_lo ? &lo : nullptr, node.lo_inclusive,
                                 has_hi ? &hi : nullptr, node.hi_inclusive);
      }
      for (RowId rid : rids) {
        const Row* row = table->heap.Get(rid);
        if (row != nullptr) rel.rows.push_back(*row);
      }
      return rel;
    }
    case PlanNode::Kind::kCte: {
      LEGO_COV();
      SetFeature(ExecFeature::kCte);
      auto it = cte_bindings_.find(node.cte_name);
      if (it == cte_bindings_.end()) {
        return StatusOr<Relation>(
            Status::Internal("missing CTE binding " + node.cte_name));
      }
      Relation rel = it->second;
      for (RelColumn& col : rel.columns) col.qualifier = node.alias;
      return rel;
    }
    case PlanNode::Kind::kView: {
      LEGO_COV();
      SetFeature(ExecFeature::kViewExpansion);
      ++depth_;
      LEGO_RETURN_IF_ERROR(CheckDepth());
      auto rel_or = EvalSelect(*node.subselect, outer);
      --depth_;
      if (!rel_or.ok()) return rel_or;
      Relation rel = std::move(*rel_or);
      for (RelColumn& col : rel.columns) col.qualifier = node.alias;
      return rel;
    }
    case PlanNode::Kind::kSubquery: {
      LEGO_COV();
      SetFeature(ExecFeature::kSubquery);
      ++depth_;
      LEGO_RETURN_IF_ERROR(CheckDepth());
      auto rel_or = EvalSelect(*node.subselect, outer);
      --depth_;
      if (!rel_or.ok()) return rel_or;
      Relation rel = std::move(*rel_or);
      for (RelColumn& col : rel.columns) col.qualifier = node.alias;
      return rel;
    }
    case PlanNode::Kind::kJoin: {
      SetFeature(ExecFeature::kJoin);
      LEGO_ASSIGN_OR_RETURN(Relation left, MaterializePlan(*node.left, outer));
      LEGO_ASSIGN_OR_RETURN(Relation right,
                            MaterializePlan(*node.right, outer));
      Relation rel;
      rel.columns = left.columns;
      rel.columns.insert(rel.columns.end(), right.columns.begin(),
                         right.columns.end());

      auto eval_on = [&](const Row& joined) -> StatusOr<Tribool> {
        if (node.join_on == nullptr) return Tribool::kTrue;
        EvalContext ctx;
        ctx.rel = &rel;
        ctx.row = &joined;
        ctx.outer = outer;
        ctx.runner = this;
        ctx.hooks = this;
        return Evaluator::EvalPredicate(*node.join_on, ctx);
      };

      if (node.strategy == JoinStrategy::kHashJoin) {
        LEGO_COV();
        SetFeature(ExecFeature::kHashJoinUsed);
        // Decide which key belongs to which side by trial resolution.
        auto key_side = [&](const sql::Expr& key,
                            const Relation& side) -> bool {
          if (key.kind() != ExprKind::kColumnRef) return false;
          const auto& ref = static_cast<const sql::ColumnRef&>(key);
          bool ambiguous = false;
          return side.FindColumn(ref.table(), ref.column(), &ambiguous) >= 0;
        };
        const sql::Expr* lkey = node.hash_left_key;
        const sql::Expr* rkey = node.hash_right_key;
        if (!key_side(*lkey, left) && key_side(*rkey, left)) {
          std::swap(lkey, rkey);
        }
        if (!key_side(*lkey, left) || !key_side(*rkey, right)) {
          // Keys don't split across sides; fall back to nested loop.
          LEGO_COV();
          return NestedLoopJoin(node, left, right, rel, outer);
        }
        // Build hash table on the right side.
        std::unordered_multimap<uint64_t, size_t> ht;
        for (size_t i = 0; i < right.rows.size(); ++i) {
          EvalContext ctx;
          ctx.rel = &right;
          ctx.row = &right.rows[i];
          ctx.outer = outer;
          ctx.runner = this;
          ctx.hooks = this;
          LEGO_ASSIGN_OR_RETURN(Value key, Evaluator::Eval(*rkey, ctx));
          if (key.is_null()) continue;
          ht.emplace(key.Hash(), i);
        }
        for (const Row& lrow : left.rows) {
          EvalContext ctx;
          ctx.rel = &left;
          ctx.row = &lrow;
          ctx.outer = outer;
          ctx.runner = this;
          ctx.hooks = this;
          LEGO_ASSIGN_OR_RETURN(Value key, Evaluator::Eval(*lkey, ctx));
          bool matched = false;
          if (!key.is_null()) {
            auto [begin, end] = ht.equal_range(key.Hash());
            for (auto it = begin; it != end; ++it) {
              Row joined = lrow;
              const Row& rrow = right.rows[it->second];
              joined.insert(joined.end(), rrow.begin(), rrow.end());
              LEGO_ASSIGN_OR_RETURN(Tribool ok, eval_on(joined));
              if (ok == Tribool::kTrue) {
                matched = true;
                rel.rows.push_back(std::move(joined));
              }
            }
          }
          if (!matched && node.join_type == sql::JoinType::kLeft) {
            LEGO_COV();
            Row joined = lrow;
            joined.resize(rel.columns.size(), Value::Null());
            rel.rows.push_back(std::move(joined));
          }
        }
        return rel;
      }
      return NestedLoopJoin(node, left, right, rel, outer);
    }
  }
  return StatusOr<Relation>(Status::Internal("bad plan node"));
}

StatusOr<Relation> Executor::NestedLoopJoin(const PlanNode& node,
                                            const Relation& left,
                                            const Relation& right,
                                            Relation rel,
                                            const EvalContext* outer) {
  LEGO_COV();
  for (const Row& lrow : left.rows) {
    bool matched = false;
    for (const Row& rrow : right.rows) {
      Row joined = lrow;
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      Tribool ok = Tribool::kTrue;
      if (node.join_on != nullptr) {
        EvalContext ctx;
        ctx.rel = &rel;
        ctx.row = &joined;
        ctx.outer = outer;
        ctx.runner = this;
        ctx.hooks = this;
        LEGO_ASSIGN_OR_RETURN(ok,
                              Evaluator::EvalPredicate(*node.join_on, ctx));
      }
      if (ok == Tribool::kTrue) {
        matched = true;
        rel.rows.push_back(std::move(joined));
      }
    }
    if (!matched && node.join_type == sql::JoinType::kLeft) {
      LEGO_COV();
      Row joined = lrow;
      joined.resize(rel.columns.size(), Value::Null());
      rel.rows.push_back(std::move(joined));
    }
  }
  return rel;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

namespace {

/// Computes one aggregate over the rows of a group.
StatusOr<Value> ComputeAggregate(const sql::FunctionCall& fn,
                                 const Relation& input,
                                 const std::vector<size_t>& group_rows,
                                 Executor* exec, const EvalContext* outer) {
  const std::string& name = fn.name();
  if (fn.star_arg()) {
    if (name != "COUNT") {
      return StatusOr<Value>(
          Status::SemanticError(name + "(*) is not valid"));
    }
    return Value::Int(static_cast<int64_t>(group_rows.size()));
  }
  if (fn.args().size() != 1) {
    return StatusOr<Value>(Status::SemanticError(
        "aggregate " + name + " expects one argument"));
  }
  const sql::Expr& arg = *fn.args()[0];

  std::vector<Value> values;
  values.reserve(group_rows.size());
  for (size_t idx : group_rows) {
    EvalContext ctx;
    ctx.rel = &input;
    ctx.row = &input.rows[idx];
    ctx.outer = outer;
    ctx.runner = exec;
    ctx.hooks = exec;
    LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(arg, ctx));
    if (v.is_null()) continue;
    values.push_back(std::move(v));
  }
  if (fn.distinct()) {
    LEGO_COV();
    std::vector<Value> unique;
    for (Value& v : values) {
      bool dup = false;
      for (const Value& u : unique) {
        if (u.Compare(v) == 0) {
          dup = true;
          break;
        }
      }
      if (!dup) unique.push_back(std::move(v));
    }
    values = std::move(unique);
  }

  if (name == "COUNT") {
    return Value::Int(static_cast<int64_t>(values.size()));
  }
  if (name == "SUM" || name == "TOTAL") {
    if (values.empty()) {
      return name == "TOTAL" ? Value::Real(0.0) : Value::Null();
    }
    bool all_int = true;
    for (const Value& v : values) {
      if (v.type() == ValueType::kReal || v.type() == ValueType::kText) {
        all_int = false;
      }
    }
    if (all_int && name == "SUM") {
      uint64_t acc = 0;
      for (const Value& v : values) {
        acc += static_cast<uint64_t>(v.AsInt());
      }
      return Value::Int(static_cast<int64_t>(acc));
    }
    double acc = 0.0;
    for (const Value& v : values) acc += v.AsReal();
    return Value::Real(acc);
  }
  if (name == "AVG") {
    if (values.empty()) return Value::Null();
    double acc = 0.0;
    for (const Value& v : values) acc += v.AsReal();
    return Value::Real(acc / static_cast<double>(values.size()));
  }
  if (name == "MIN" || name == "MAX") {
    if (values.empty()) return Value::Null();
    const Value* best = &values[0];
    for (const Value& v : values) {
      int c = v.Compare(*best);
      if ((name == "MIN" && c < 0) || (name == "MAX" && c > 0)) best = &v;
    }
    return *best;
  }
  if (name == "GROUP_CONCAT") {
    if (values.empty()) return Value::Null();
    std::string out;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += values[i].ToText();
    }
    return Value::Text(std::move(out));
  }
  return StatusOr<Value>(
      Status::SemanticError("unknown aggregate " + name));
}

}  // namespace

StatusOr<Relation> Executor::ApplyAggregation(const sql::SelectCore& core,
                                              Relation input,
                                              const EvalContext* outer) {
  // Collect aggregate nodes again (cheap; keeps the call-site simple).
  std::vector<const sql::FunctionCall*> aggregates;
  for (const auto& item : core.items) CollectAggregates(*item.expr, &aggregates);
  if (core.having != nullptr) CollectAggregates(*core.having, &aggregates);

  // Window functions mixed with aggregation are not supported (documented
  // simplification; real engines layer windows over grouped output).
  std::vector<const sql::FunctionCall*> windows;
  for (const auto& item : core.items) CollectWindowCalls(*item.expr, &windows);
  if (!windows.empty()) {
    return StatusOr<Relation>(Status::SemanticError(
        "window functions cannot be combined with aggregation"));
  }

  // Group rows.
  std::unordered_map<GroupKey, std::vector<size_t>, GroupKeyHash> groups;
  std::vector<GroupKey> group_order;
  if (core.group_by.empty()) {
    LEGO_COV();
    // Single implicit group (possibly empty).
    GroupKey key;
    groups[key] = {};
    group_order.push_back(key);
    for (size_t i = 0; i < input.rows.size(); ++i) groups[key].push_back(i);
  } else {
    LEGO_COV();
    for (size_t i = 0; i < input.rows.size(); ++i) {
      EvalContext ctx;
      ctx.rel = &input;
      ctx.row = &input.rows[i];
      ctx.outer = outer;
      ctx.runner = this;
      ctx.hooks = this;
      GroupKey key;
      for (const auto& g : core.group_by) {
        // GROUP BY <integer> means ordinal position (of the select list).
        if (g->kind() == ExprKind::kLiteral) {
          const auto& lit = static_cast<const sql::Literal&>(*g);
          if (lit.tag() == sql::Literal::Tag::kInt) {
            int64_t ord = lit.int_value();
            if (ord < 1 ||
                ord > static_cast<int64_t>(core.items.size())) {
              return StatusOr<Relation>(Status::SemanticError(
                  "GROUP BY position " + std::to_string(ord) +
                  " is out of range"));
            }
            LEGO_ASSIGN_OR_RETURN(
                Value v, Evaluator::Eval(
                             *core.items[static_cast<size_t>(ord - 1)].expr,
                             ctx));
            key.values.push_back(std::move(v));
            continue;
          }
        }
        LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*g, ctx));
        key.values.push_back(std::move(v));
      }
      auto [it, inserted] = groups.emplace(key, std::vector<size_t>{});
      if (inserted) group_order.push_back(key);
      it->second.push_back(i);
    }
  }

  // Evaluate each group: aggregates first, then the select items with
  // overrides bound (non-aggregated columns take the group's first row,
  // MySQL-style permissiveness).
  Relation output;
  for (size_t i = 0; i < core.items.size(); ++i) {
    const auto& item = core.items[i];
    std::string name = !item.alias.empty()
                           ? item.alias
                           : DeriveItemName(*item.expr, i);
    output.columns.push_back({"", std::move(name)});
  }

  static const Row kEmptyRow;
  for (const GroupKey& key : group_order) {
    const std::vector<size_t>& rows = groups[key];
    if (rows.empty() && !core.group_by.empty()) continue;

    std::map<const sql::Expr*, Value> overrides;
    for (const sql::FunctionCall* agg : aggregates) {
      LEGO_ASSIGN_OR_RETURN(Value v,
                            ComputeAggregate(*agg, input, rows, this, outer));
      overrides[agg] = std::move(v);
    }

    EvalContext ctx;
    ctx.rel = &input;
    ctx.row = rows.empty() ? &kEmptyRow : &input.rows[rows[0]];
    ctx.outer = outer;
    ctx.runner = this;
    ctx.hooks = this;
    ctx.node_overrides = &overrides;

    if (core.having != nullptr) {
      LEGO_ASSIGN_OR_RETURN(Tribool keep,
                            Evaluator::EvalPredicate(*core.having, ctx));
      if (keep != Tribool::kTrue) {
        LEGO_COV();
        continue;
      }
    }

    Row out_row;
    for (const auto& item : core.items) {
      if (item.expr->kind() == ExprKind::kStar) {
        return StatusOr<Relation>(Status::SemanticError(
            "'*' is not valid in an aggregated SELECT list"));
      }
      LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*item.expr, ctx));
      out_row.push_back(std::move(v));
    }
    output.rows.push_back(std::move(out_row));
  }
  return output;
}

// ---------------------------------------------------------------------------
// Projection & window functions
// ---------------------------------------------------------------------------

StatusOr<std::vector<std::map<const sql::Expr*, Value>>>
Executor::ComputeWindowOverrides(
    const std::vector<const sql::FunctionCall*>& windows,
    const Relation& input, const EvalContext* outer) {
  using Overrides = std::map<const sql::Expr*, Value>;
  std::vector<Overrides> per_row(input.rows.size());
  if (!db_->profile().supports_window_functions) {
    return StatusOr<std::vector<Overrides>>(Status::Unsupported(
        "window functions are not supported by this dialect"));
  }
  SetFeature(ExecFeature::kWindowFunction);

  for (const sql::FunctionCall* fn : windows) {
    // Partition rows.
    std::unordered_map<GroupKey, std::vector<size_t>, GroupKeyHash> parts;
    std::vector<GroupKey> part_order;
    const sql::WindowSpec* spec = fn->window();
    for (size_t i = 0; i < input.rows.size(); ++i) {
      EvalContext ctx;
      ctx.rel = &input;
      ctx.row = &input.rows[i];
      ctx.outer = outer;
      ctx.runner = this;
      ctx.hooks = this;
      GroupKey key;
      if (spec != nullptr) {
        for (const auto& p : spec->partition_by) {
          LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*p, ctx));
          key.values.push_back(std::move(v));
        }
      }
      auto [it, inserted] = parts.emplace(key, std::vector<size_t>{});
      if (inserted) part_order.push_back(key);
      it->second.push_back(i);
    }

    for (const GroupKey& pk : part_order) {
      std::vector<size_t>& rows = parts[pk];
      // Order within the partition.
      std::vector<std::vector<Value>> keys(rows.size());
      std::vector<bool> desc;
      if (spec != nullptr && !spec->order_by.empty()) {
        for (const auto& [e, d] : spec->order_by) desc.push_back(d);
        for (size_t r = 0; r < rows.size(); ++r) {
          EvalContext ctx;
          ctx.rel = &input;
          ctx.row = &input.rows[rows[r]];
          ctx.outer = outer;
          ctx.runner = this;
          ctx.hooks = this;
          for (const auto& [e, d] : spec->order_by) {
            LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*e, ctx));
            keys[r].push_back(std::move(v));
          }
        }
        std::vector<size_t> order(rows.size());
        for (size_t r = 0; r < order.size(); ++r) order[r] = r;
        SortKeyLess less{&keys, &desc};
        std::stable_sort(order.begin(), order.end(), less);
        std::vector<size_t> sorted(rows.size());
        std::vector<std::vector<Value>> sorted_keys(rows.size());
        for (size_t r = 0; r < order.size(); ++r) {
          sorted[r] = rows[order[r]];
          sorted_keys[r] = std::move(keys[order[r]]);
        }
        rows = std::move(sorted);
        keys = std::move(sorted_keys);
      }

      const std::string& name = fn->name();
      for (size_t pos = 0; pos < rows.size(); ++pos) {
        size_t row_idx = rows[pos];
        Value v;
        if (name == "ROW_NUMBER") {
          LEGO_COV();
          v = Value::Int(static_cast<int64_t>(pos + 1));
        } else if (name == "RANK" || name == "DENSE_RANK") {
          LEGO_COV();
          auto keys_equal = [&](size_t a, size_t b) {
            if (keys[a].size() != keys[b].size()) return false;
            for (size_t k = 0; k < keys[a].size(); ++k) {
              if (keys[a][k].Compare(keys[b][k]) != 0) return false;
            }
            return true;
          };
          int64_t rank = 1;
          int64_t dense = 1;
          for (size_t q = 1; q <= pos; ++q) {
            bool tie = !keys[q].empty() && keys_equal(q, q - 1);
            if (!tie) {
              dense += 1;
              rank = static_cast<int64_t>(q) + 1;
            }
          }
          v = Value::Int(name == "RANK" ? rank : dense);
        } else if (name == "LEAD" || name == "LAG") {
          LEGO_COV();
          if (fn->args().empty()) {
            return StatusOr<std::vector<Overrides>>(Status::SemanticError(
                name + " expects at least one argument"));
          }
          int64_t offset = 1;
          if (fn->args().size() >= 2) {
            EvalContext ctx;
            ctx.rel = &input;
            ctx.row = &input.rows[row_idx];
            ctx.outer = outer;
            ctx.runner = this;
            ctx.hooks = this;
            LEGO_ASSIGN_OR_RETURN(Value off,
                                  Evaluator::Eval(*fn->args()[1], ctx));
            offset = off.AsInt();
          }
          int64_t target = name == "LEAD"
                               ? static_cast<int64_t>(pos) + offset
                               : static_cast<int64_t>(pos) - offset;
          if (target < 0 || target >= static_cast<int64_t>(rows.size())) {
            v = Value::Null();
            if (fn->args().size() >= 3) {
              EvalContext ctx;
              ctx.rel = &input;
              ctx.row = &input.rows[row_idx];
              ctx.outer = outer;
              ctx.runner = this;
              ctx.hooks = this;
              LEGO_ASSIGN_OR_RETURN(v, Evaluator::Eval(*fn->args()[2], ctx));
            }
          } else {
            EvalContext ctx;
            ctx.rel = &input;
            ctx.row = &input.rows[rows[static_cast<size_t>(target)]];
            ctx.outer = outer;
            ctx.runner = this;
            ctx.hooks = this;
            LEGO_ASSIGN_OR_RETURN(v, Evaluator::Eval(*fn->args()[0], ctx));
          }
        } else if (name == "NTILE") {
          LEGO_COV();
          if (fn->args().size() != 1) {
            return StatusOr<std::vector<Overrides>>(
                Status::SemanticError("NTILE expects one argument"));
          }
          EvalContext ctx;
          ctx.rel = &input;
          ctx.row = &input.rows[row_idx];
          ctx.outer = outer;
          ctx.runner = this;
          ctx.hooks = this;
          LEGO_ASSIGN_OR_RETURN(Value n, Evaluator::Eval(*fn->args()[0], ctx));
          int64_t buckets = std::max<int64_t>(1, n.AsInt());
          int64_t size = static_cast<int64_t>(rows.size());
          int64_t bucket =
              static_cast<int64_t>(pos) * buckets / std::max<int64_t>(1, size);
          v = Value::Int(bucket + 1);
        } else if (Evaluator::IsAggregateFunction(name)) {
          // Aggregate-over-window: evaluate over the whole partition.
          LEGO_COV();
          LEGO_ASSIGN_OR_RETURN(
              v, ComputeAggregate(*fn, input, rows, this, outer));
        } else {
          return StatusOr<std::vector<Overrides>>(Status::SemanticError(
              "function " + name + " cannot be used as a window function"));
        }
        per_row[row_idx][fn] = std::move(v);
      }
    }
  }
  return per_row;
}

StatusOr<Relation> Executor::ApplyProjection(const sql::SelectCore& core,
                                             const Relation& input,
                                             const EvalContext* outer) {
  // Window functions in the select list?
  std::vector<const sql::FunctionCall*> windows;
  for (const auto& item : core.items) CollectWindowCalls(*item.expr, &windows);
  std::vector<std::map<const sql::Expr*, Value>> window_overrides;
  if (!windows.empty()) {
    LEGO_ASSIGN_OR_RETURN(window_overrides,
                          ComputeWindowOverrides(windows, input, outer));
  }

  Relation output;
  // Expand the output schema (stars expand to input columns).
  struct OutItem {
    const sql::Expr* expr;   // null for star expansion entries
    int input_col = -1;      // star expansion: source column
  };
  std::vector<OutItem> out_items;
  for (size_t i = 0; i < core.items.size(); ++i) {
    const auto& item = core.items[i];
    if (item.expr->kind() == ExprKind::kStar) {
      const auto& star = static_cast<const sql::Star&>(*item.expr);
      bool any = false;
      for (size_t c = 0; c < input.columns.size(); ++c) {
        if (!star.table().empty() &&
            input.columns[c].qualifier != star.table()) {
          continue;
        }
        any = true;
        out_items.push_back({nullptr, static_cast<int>(c)});
        output.columns.push_back(input.columns[c]);
      }
      if (!any) {
        if (star.table().empty() && input.columns.empty()) {
          return StatusOr<Relation>(Status::SemanticError(
              "SELECT * with no FROM clause"));
        }
        if (!star.table().empty()) {
          return StatusOr<Relation>(Status::SemanticError(
              "relation '" + star.table() + "' not found in FROM"));
        }
      }
      continue;
    }
    out_items.push_back({item.expr.get(), -1});
    std::string name = !item.alias.empty() ? item.alias
                                           : DeriveItemName(*item.expr, i);
    // Plain column projections keep their source qualifier so ORDER BY can
    // still address them as t.col (and same-named columns from different
    // tables stay distinguishable).
    std::string qualifier;
    if (item.alias.empty() &&
        item.expr->kind() == ExprKind::kColumnRef) {
      qualifier = static_cast<const sql::ColumnRef&>(*item.expr).table();
    }
    output.columns.push_back({std::move(qualifier), std::move(name)});
  }

  for (size_t r = 0; r < input.rows.size(); ++r) {
    EvalContext ctx;
    ctx.rel = &input;
    ctx.row = &input.rows[r];
    ctx.outer = outer;
    ctx.runner = this;
    ctx.hooks = this;
    if (!window_overrides.empty()) {
      ctx.node_overrides = &window_overrides[r];
    }
    Row out_row;
    out_row.reserve(out_items.size());
    for (const OutItem& item : out_items) {
      if (item.expr == nullptr) {
        out_row.push_back(input.rows[r][static_cast<size_t>(item.input_col)]);
      } else {
        LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*item.expr, ctx));
        out_row.push_back(std::move(v));
      }
    }
    output.rows.push_back(std::move(out_row));
  }
  return output;
}

Status Executor::ApplyOrderByLimit(const sql::SelectStmt& stmt, Relation* rel,
                                   const EvalContext* outer) {
  if (!stmt.order_by.empty()) {
    LEGO_COV();
    SetFeature(ExecFeature::kOrderBy);
    std::vector<std::vector<Value>> keys(rel->rows.size());
    std::vector<bool> desc;
    for (const auto& item : stmt.order_by) desc.push_back(item.desc);
    for (size_t r = 0; r < rel->rows.size(); ++r) {
      EvalContext ctx;
      ctx.rel = rel;
      ctx.row = &rel->rows[r];
      ctx.outer = outer;
      ctx.runner = this;
      ctx.hooks = this;
      for (const auto& item : stmt.order_by) {
        // ORDER BY <integer literal> is an ordinal output column.
        if (item.expr->kind() == ExprKind::kLiteral) {
          const auto& lit = static_cast<const sql::Literal&>(*item.expr);
          if (lit.tag() == sql::Literal::Tag::kInt) {
            int64_t ord = lit.int_value();
            if (ord < 1 || ord > static_cast<int64_t>(rel->columns.size())) {
              return Status::SemanticError(
                  "ORDER BY position " + std::to_string(ord) +
                  " is out of range");
            }
            keys[r].push_back(rel->rows[r][static_cast<size_t>(ord - 1)]);
            continue;
          }
        }
        LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*item.expr, ctx));
        keys[r].push_back(std::move(v));
      }
    }
    std::vector<size_t> order(rel->rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    SortKeyLess less{&keys, &desc};
    std::stable_sort(order.begin(), order.end(), less);
    std::vector<Row> sorted;
    sorted.reserve(rel->rows.size());
    for (size_t i : order) sorted.push_back(std::move(rel->rows[i]));
    rel->rows = std::move(sorted);
  }

  auto eval_const_int = [&](const sql::Expr& e) -> StatusOr<int64_t> {
    EvalContext ctx;
    ctx.runner = this;
    ctx.hooks = this;
    ctx.outer = outer;
    LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(e, ctx));
    if (v.is_null()) return StatusOr<int64_t>(int64_t{-1});
    return v.AsInt();
  };

  int64_t offset = 0;
  if (stmt.offset != nullptr) {
    LEGO_COV();
    LEGO_ASSIGN_OR_RETURN(offset, eval_const_int(*stmt.offset));
    if (offset < 0) {
      return Status::ExecutionError("OFFSET must not be negative");
    }
  }
  if (offset > 0) {
    if (offset >= static_cast<int64_t>(rel->rows.size())) {
      rel->rows.clear();
    } else {
      rel->rows.erase(rel->rows.begin(), rel->rows.begin() + offset);
    }
  }
  if (stmt.limit != nullptr) {
    LEGO_COV();
    LEGO_ASSIGN_OR_RETURN(int64_t limit, eval_const_int(*stmt.limit));
    if (limit < 0) {
      return Status::ExecutionError("LIMIT must not be negative");
    }
    if (static_cast<int64_t>(rel->rows.size()) > limit) {
      rel->rows.resize(static_cast<size_t>(limit));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VALUES / WITH
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecValues(const sql::ValuesStmt& stmt) {
  LEGO_COV();
  if (stmt.rows.empty()) {
    return StatusOr<ResultSet>(
        Status::SemanticError("VALUES requires at least one row"));
  }
  size_t width = stmt.rows[0].size();
  ResultSet result;
  for (size_t i = 0; i < width; ++i) {
    result.column_names.push_back("column" + std::to_string(i + 1));
  }
  EvalContext ctx;
  ctx.runner = this;
  ctx.hooks = this;
  for (const auto& row_exprs : stmt.rows) {
    if (row_exprs.size() != width) {
      return StatusOr<ResultSet>(
          Status::SemanticError("VALUES rows have differing widths"));
    }
    Row row;
    for (const auto& e : row_exprs) {
      LEGO_ASSIGN_OR_RETURN(Value v, Evaluator::Eval(*e, ctx));
      row.push_back(std::move(v));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

StatusOr<ResultSet> Executor::ExecWith(const sql::WithStmt& stmt) {
  SetFeature(ExecFeature::kCte);
  // Materialize CTEs left-to-right; later CTEs see earlier ones. DML CTEs
  // execute for their side effects (the paper's case-study shape: a rule
  // may rewrite the inner DML into something unexpected).
  std::map<std::string, Relation> saved = cte_bindings_;
  auto restore = [&]() { cte_bindings_ = std::move(saved); };

  for (const sql::CommonTableExpr& cte : stmt.ctes) {
    Relation rel;
    switch (cte.statement->type()) {
      case StatementType::kSelect: {
        LEGO_COV();
        auto rel_or = EvalSelect(
            static_cast<const sql::SelectStmt&>(*cte.statement), nullptr);
        if (!rel_or.ok()) {
          restore();
          return StatusOr<ResultSet>(rel_or.status());
        }
        rel = std::move(*rel_or);
        break;
      }
      default: {
        LEGO_COV();
        // DML/VALUES CTE: execute, expose an empty relation (no RETURNING).
        ++depth_;
        auto st = Execute(*cte.statement);
        --depth_;
        if (!st.ok()) {
          restore();
          return StatusOr<ResultSet>(st.status());
        }
        if (cte.statement->type() == StatementType::kValues) {
          rel.rows = std::move(st->rows);
          for (const std::string& name : st->column_names) {
            rel.columns.push_back({"", name});
          }
        }
        break;
      }
    }
    // Apply the explicit column list if present.
    if (!cte.columns.empty()) {
      if (!rel.columns.empty() && cte.columns.size() != rel.columns.size()) {
        restore();
        return StatusOr<ResultSet>(Status::SemanticError(
            "CTE '" + cte.name + "' column list size mismatch"));
      }
      rel.columns.clear();
      for (const std::string& c : cte.columns) rel.columns.push_back({"", c});
    }
    cte_bindings_[cte.name] = std::move(rel);
  }

  ++depth_;
  auto result = Execute(*stmt.body);
  --depth_;
  restore();
  return result;
}

// ---------------------------------------------------------------------------
// DCL
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecGrant(const sql::GrantStmt& stmt) {
  if (db_->session().current_user != "root") {
    return StatusOr<ResultSet>(
        Status::PermissionDenied("only root may GRANT"));
  }
  if (!db_->catalog().HasTable(stmt.table) &&
      !db_->catalog().HasView(stmt.table)) {
    return StatusOr<ResultSet>(
        Status::NotFound("relation '" + stmt.table + "' does not exist"));
  }
  if (!db_->catalog().HasUser(stmt.user)) {
    return StatusOr<ResultSet>(
        Status::NotFound("user '" + stmt.user + "' does not exist"));
  }
  LEGO_COV();
  db_->catalog().Grant(stmt.user, stmt.table, MaskOf(stmt.privilege));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecRevoke(const sql::RevokeStmt& stmt) {
  if (db_->session().current_user != "root") {
    return StatusOr<ResultSet>(
        Status::PermissionDenied("only root may REVOKE"));
  }
  if (!db_->catalog().HasUser(stmt.user)) {
    return StatusOr<ResultSet>(
        Status::NotFound("user '" + stmt.user + "' does not exist"));
  }
  LEGO_COV();
  db_->catalog().Revoke(stmt.user, stmt.table, MaskOf(stmt.privilege));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecCreateUser(const sql::CreateUserStmt& stmt) {
  LEGO_COV();
  LEGO_RETURN_IF_ERROR(
      db_->catalog().CreateUser(stmt.name, stmt.if_not_exists));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecDropUser(const sql::DropUserStmt& stmt) {
  if (stmt.name == db_->session().current_user) {
    return StatusOr<ResultSet>(
        Status::SemanticError("cannot drop the current user"));
  }
  LEGO_COV();
  LEGO_RETURN_IF_ERROR(db_->catalog().DropUser(stmt.name, stmt.if_exists));
  return ResultSet{};
}

// ---------------------------------------------------------------------------
// TCL
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecTcl(const sql::Statement& stmt) {
  switch (stmt.type()) {
    case StatementType::kBegin:
      LEGO_COV();
      LEGO_RETURN_IF_ERROR(db_->TxnBegin());
      return ResultSet{};
    case StatementType::kCommit:
      LEGO_COV();
      LEGO_RETURN_IF_ERROR(db_->TxnCommit());
      return ResultSet{};
    case StatementType::kRollback:
      LEGO_COV();
      LEGO_RETURN_IF_ERROR(db_->TxnRollback());
      return ResultSet{};
    case StatementType::kSavepoint: {
      LEGO_COV();
      const auto& named = static_cast<const sql::NamedStmt&>(stmt);
      LEGO_RETURN_IF_ERROR(db_->TxnSavepoint(named.name()));
      return ResultSet{};
    }
    case StatementType::kRelease: {
      LEGO_COV();
      const auto& named = static_cast<const sql::NamedStmt&>(stmt);
      LEGO_RETURN_IF_ERROR(db_->TxnRelease(named.name()));
      return ResultSet{};
    }
    case StatementType::kRollbackTo: {
      LEGO_COV();
      const auto& named = static_cast<const sql::NamedStmt&>(stmt);
      LEGO_RETURN_IF_ERROR(db_->TxnRollbackTo(named.name()));
      return ResultSet{};
    }
    default:
      return StatusOr<ResultSet>(Status::Internal("bad TCL statement"));
  }
}

// ---------------------------------------------------------------------------
// Utility statements
// ---------------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecPragma(const sql::PragmaStmt& stmt) {
  SessionState& session = db_->session();
  Value value = Value::Bool(true);
  if (stmt.value != nullptr) {
    EvalContext ctx;
    ctx.hooks = this;
    // PRAGMA values may be bare identifiers (PRAGMA foo = on): resolve
    // failures degrade to the identifier text.
    auto v = Evaluator::Eval(*stmt.value, ctx);
    if (v.ok()) {
      value = *v;
    } else if (stmt.value->kind() == ExprKind::kColumnRef) {
      LEGO_COV();
      value = Value::Text(
          static_cast<const sql::ColumnRef&>(*stmt.value).column());
    } else {
      return StatusOr<ResultSet>(v.status());
    }
  }

  // SET role switches the effective user (a cross-statement state change
  // that privileges then observe).
  if (stmt.is_set && (stmt.name == "role" || stmt.name == "session_user")) {
    LEGO_COV();
    std::string user = value.ToText();
    if (!db_->catalog().HasUser(user)) {
      return StatusOr<ResultSet>(
          Status::NotFound("user '" + user + "' does not exist"));
    }
    session.current_user = user;
    return ResultSet{};
  }

  if (stmt.value == nullptr && !stmt.is_set) {
    // Query form: PRAGMA name.
    LEGO_COV();
    ResultSet result;
    result.column_names = {stmt.name};
    auto it = session.settings.find(stmt.name);
    Row row;
    row.push_back(it == session.settings.end() ? Value::Null() : it->second);
    result.rows.push_back(std::move(row));
    return result;
  }
  LEGO_COV();
  session.settings[stmt.name] = std::move(value);
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecShow(const sql::ShowStmt& stmt) {
  ResultSet result;
  std::vector<std::string> names;
  if (stmt.what == "TABLES") {
    LEGO_COV();
    names = db_->catalog().TableNames();
  } else if (stmt.what == "VIEWS") {
    LEGO_COV();
    names = db_->catalog().ViewNames();
  } else if (stmt.what == "INDEXES" || stmt.what == "INDEX") {
    LEGO_COV();
    names = db_->catalog().IndexNames();
  } else if (stmt.what == "TRIGGERS") {
    LEGO_COV();
    names = db_->catalog().TriggerNames();
  } else if (stmt.what == "RULES") {
    LEGO_COV();
    names = db_->catalog().RuleNames();
  } else {
    // SHOW <variable>.
    LEGO_COV();
    result.column_names = {ToLower(stmt.what)};
    Row row;
    row.push_back(GetSessionVar(ToLower(stmt.what)));
    result.rows.push_back(std::move(row));
    return result;
  }
  result.column_names = {"name"};
  for (std::string& n : names) {
    Row row;
    row.push_back(Value::Text(std::move(n)));
    result.rows.push_back(std::move(row));
  }
  return result;
}

StatusOr<ResultSet> Executor::ExecExplain(const sql::ExplainStmt& stmt) {
  ResultSet result;
  result.column_names = {"plan"};
  if (stmt.target->type() == StatementType::kSelect) {
    LEGO_COV();
    const auto& select = static_cast<const sql::SelectStmt&>(*stmt.target);
    Planner planner(&db_->catalog(), &db_->profile(), &cte_bindings_);
    LEGO_ASSIGN_OR_RETURN(SelectPlan plan, planner.PlanSelect(select));
    // Fill shape flags the planner cannot see (aggregates/windows).
    std::vector<const sql::FunctionCall*> aggs;
    std::vector<const sql::FunctionCall*> wins;
    for (const auto& item : select.core.items) {
      CollectAggregates(*item.expr, &aggs);
      CollectWindowCalls(*item.expr, &wins);
    }
    plan.has_aggregate = !aggs.empty();
    plan.has_window = !wins.empty();
    std::string text = plan.Describe();
    for (const std::string& line : Split(text, '\n')) {
      if (!line.empty()) result.notes.push_back(line);
    }
  } else {
    LEGO_COV();
    result.notes.push_back(
        std::string(sql::StatementTypeName(stmt.target->type())));
  }
  if (stmt.analyze) {
    LEGO_COV();
    ++depth_;
    auto run = Execute(*stmt.target);
    --depth_;
    if (!run.ok()) return run;
    result.notes.push_back(
        "actual rows: " +
        std::to_string(run->rows.size() +
                       static_cast<size_t>(run->affected_rows)));
  }
  return result;
}

StatusOr<ResultSet> Executor::ExecMaintenance(
    const sql::MaintenanceStmt& stmt) {
  ResultSet result;
  switch (stmt.type()) {
    case StatementType::kAnalyze: {
      LEGO_COV();
      std::vector<std::string> targets;
      if (stmt.target().empty()) {
        targets = db_->catalog().TableNames();
      } else {
        if (!db_->catalog().HasTable(stmt.target())) {
          return StatusOr<ResultSet>(Status::NotFound(
              "table '" + stmt.target() + "' does not exist"));
        }
        targets = {stmt.target()};
      }
      for (const std::string& name : targets) {
        LEGO_ASSIGN_OR_RETURN(TableInfo * table,
                              db_->catalog().GetTable(name));
        LEGO_RETURN_IF_ERROR(db_->catalog().SetAnalyzedRowCount(
            name, static_cast<int64_t>(table->heap.LiveRowCount())));
      }
      result.notes.push_back("analyzed " + std::to_string(targets.size()) +
                             " table(s)");
      return result;
    }
    case StatementType::kVacuum: {
      LEGO_COV();
      std::vector<std::string> targets;
      if (stmt.target().empty()) {
        targets = db_->catalog().TableNames();
      } else {
        if (!db_->catalog().HasTable(stmt.target())) {
          return StatusOr<ResultSet>(Status::NotFound(
              "table '" + stmt.target() + "' does not exist"));
        }
        targets = {stmt.target()};
      }
      for (const std::string& name : targets) {
        LEGO_ASSIGN_OR_RETURN(TableInfo * table,
                              db_->catalog().GetTable(name));
        table->heap.Vacuum();
        // Row ids changed: rebuild every index on the table.
        for (IndexInfo* index : db_->catalog().IndexesOf(name)) {
          index->tree.Clear();
          int col = table->schema.FindColumn(index->columns.empty()
                                                 ? ""
                                                 : index->columns[0]);
          if (col < 0) continue;
          table->heap.Scan([&](RowId rid, const Row& row) {
            index->tree.Insert(row[static_cast<size_t>(col)], rid);
            return true;
          });
        }
      }
      result.notes.push_back("vacuumed " + std::to_string(targets.size()) +
                             " table(s)");
      return result;
    }
    case StatementType::kReindex: {
      LEGO_COV();
      std::vector<std::string> targets;
      if (stmt.target().empty()) {
        targets = db_->catalog().IndexNames();
      } else if (db_->catalog().HasIndex(stmt.target())) {
        targets = {stmt.target()};
      } else {
        return StatusOr<ResultSet>(Status::NotFound(
            "index '" + stmt.target() + "' does not exist"));
      }
      for (const std::string& name : targets) {
        LEGO_ASSIGN_OR_RETURN(IndexInfo * index,
                              db_->catalog().GetIndex(name));
        LEGO_ASSIGN_OR_RETURN(TableInfo * table,
                              db_->catalog().GetTable(index->table));
        index->tree.Clear();
        int col = table->schema.FindColumn(
            index->columns.empty() ? "" : index->columns[0]);
        if (col < 0) continue;
        table->heap.Scan([&](RowId rid, const Row& row) {
          index->tree.Insert(row[static_cast<size_t>(col)], rid);
          return true;
        });
      }
      result.notes.push_back("reindexed " + std::to_string(targets.size()) +
                             " index(es)");
      return result;
    }
    default:
      return StatusOr<ResultSet>(Status::Internal("bad maintenance type"));
  }
}

StatusOr<ResultSet> Executor::ExecNotify(const sql::NotifyStmt& stmt) {
  if (!db_->profile().supports_notify) {
    return StatusOr<ResultSet>(
        Status::Unsupported("NOTIFY is not supported by this dialect"));
  }
  LEGO_COV();
  SessionState& session = db_->session();
  std::string delivery = stmt.channel + ":" + stmt.payload;
  session.notifications.push_back(delivery);
  ResultSet result;
  if (session.listening.count(stmt.channel)) {
    LEGO_COV();
    result.notes.push_back("NOTIFY delivered on " + stmt.channel);
  }
  return result;
}

StatusOr<ResultSet> Executor::ExecComment(const sql::CommentStmt& stmt) {
  LEGO_RETURN_IF_ERROR(db_->catalog().GetTable(stmt.table).status());
  LEGO_COV();
  LEGO_RETURN_IF_ERROR(db_->catalog().SetComment(stmt.table, stmt.text));
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecAlterSystem(
    const sql::AlterSystemStmt& stmt) {
  LEGO_COV();
  ResultSet result;
  if (stmt.action == "SET") {
    Value value = Value::Null();
    if (stmt.value != nullptr) {
      EvalContext ctx;
      ctx.hooks = this;
      LEGO_ASSIGN_OR_RETURN(value, Evaluator::Eval(*stmt.value, ctx));
    }
    db_->session().settings["system." + stmt.name] = std::move(value);
    return result;
  }
  result.notes.push_back("ALTER SYSTEM " + stmt.action + " acknowledged");
  return result;
}

StatusOr<ResultSet> Executor::ExecDiscard(const sql::DiscardStmt& stmt) {
  LEGO_COV();
  db_->catalog().DropTemporaryTables();
  if (stmt.all) {
    SessionState& session = db_->session();
    session.settings.clear();
    session.listening.clear();
    session.current_user = "root";
  }
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecCheckpoint() {
  LEGO_COV();
  ResultSet result;
  result.notes.push_back("checkpoint complete");
  return result;
}

// ---------------------------------------------------------------------------
// EvalHooks
// ---------------------------------------------------------------------------

Value Executor::GetSessionVar(const std::string& name) {
  const SessionState& session = db_->session();
  auto it = session.settings.find(name);
  if (it != session.settings.end()) return it->second;
  if (name == "user" || name == "current_user") {
    return Value::Text(session.current_user);
  }
  if (name == "dialect") return Value::Text(db_->profile().name);
  return Value::Null();
}

StatusOr<int64_t> Executor::SequenceNextVal(const std::string& name) {
  return db_->catalog().NextVal(name);
}

StatusOr<int64_t> Executor::SequenceCurrVal(const std::string& name) {
  const SequenceInfo* seq = db_->catalog().FindSequence(name);
  if (seq == nullptr) {
    return StatusOr<int64_t>(
        Status::NotFound("sequence '" + name + "' does not exist"));
  }
  if (!seq->started) {
    return StatusOr<int64_t>(Status::ExecutionError(
        "currval of sequence '" + name + "' is not yet defined"));
  }
  return seq->current;
}

}  // namespace lego::minidb
