#include "lego/instantiator.h"

#include "sql/ast_walk.h"

namespace lego::core {

namespace {

using sql::StatementType;

/// Collects all base-table names referenced by the statement's FROM clauses
/// plus its DML target, after fixing.
std::set<std::string> ScopeTables(const sql::Statement& stmt) {
  std::set<std::string> scope;
  switch (stmt.type()) {
    case StatementType::kInsert:
    case StatementType::kReplace:
      scope.insert(static_cast<const sql::InsertStmt&>(stmt).table);
      break;
    case StatementType::kUpdate:
      scope.insert(static_cast<const sql::UpdateStmt&>(stmt).table);
      break;
    case StatementType::kDelete:
      scope.insert(static_cast<const sql::DeleteStmt&>(stmt).table);
      break;
    case StatementType::kCopy:
      if (!static_cast<const sql::CopyStmt&>(stmt).table.empty()) {
        scope.insert(static_cast<const sql::CopyStmt&>(stmt).table);
      }
      break;
    default:
      break;
  }
  sql::WalkTableRefs(
      stmt,
      [&scope](const sql::TableRef& ref) {
        if (ref.kind() == sql::TableRefKind::kBaseTable) {
          const auto& base = static_cast<const sql::BaseTableRef&>(ref);
          scope.insert(base.name());
          if (!base.alias().empty()) scope.insert(base.alias());
        } else if (ref.kind() == sql::TableRefKind::kSubquery) {
          scope.insert(static_cast<const sql::SubqueryRef&>(ref).alias());
        }
      },
      /*into_subqueries=*/true);
  return scope;
}

}  // namespace

fuzz::TestCase Instantiator::Instantiate(
    const std::vector<StatementType>& sequence) {
  SchemaContext ctx;
  std::vector<sql::StmtPtr> statements;
  statements.reserve(sequence.size());
  for (StatementType type : sequence) {
    sql::StmtPtr stmt;
    // Step 1 — AST synthesis: sample a type-matched structure from the
    // global library; fall back to fresh generation.
    if (library_ != nullptr && rng_->NextBool(0.7)) {
      stmt = library_->Sample(type, rng_);
    }
    if (stmt == nullptr) {
      stmt = generator_.Generate(type, &ctx);
    }
    // Step 3 — validation: dependency analysis + refill.
    FixStatement(stmt.get(), &ctx);
    ctx.Apply(*stmt);
    statements.push_back(std::move(stmt));
  }
  return fuzz::TestCase(std::move(statements));
}

fuzz::TestCase DeferredInstantiation::Instantiate(
    const minidb::DialectProfile& profile) const {
  Rng rng(seed);
  return Instantiator(&profile, library.get(), &rng).Instantiate(sequence);
}

void Instantiator::FixStatement(sql::Statement* stmt, SchemaContext* ctx) {
  const SymbolicTable* table = ctx->RandomTable(rng_);
  auto pick_table = [&]() -> std::string {
    return table != nullptr ? table->name : "t0";
  };

  switch (stmt->type()) {
    case StatementType::kCreateTable: {
      auto* s = static_cast<sql::CreateTableStmt*>(stmt);
      s->name = ctx->FreshName("t");
      // Deduplicate column names sampled from foreign skeletons.
      std::set<std::string> seen;
      for (auto& col : s->columns) {
        while (!seen.insert(col.name).second) col.name += "x";
      }
      break;
    }
    case StatementType::kCreateIndex: {
      auto* s = static_cast<sql::CreateIndexStmt*>(stmt);
      s->name = ctx->FreshName("ix");
      s->table = pick_table();
      s->columns.clear();
      if (table != nullptr && !table->columns.empty()) {
        s->columns.push_back(
            table->columns[rng_->NextBelow(table->columns.size())].name);
      } else {
        s->columns.push_back("c0");
      }
      break;
    }
    case StatementType::kCreateView: {
      auto* s = static_cast<sql::CreateViewStmt*>(stmt);
      s->name = ctx->FreshName("v");
      break;
    }
    case StatementType::kCreateTrigger: {
      auto* s = static_cast<sql::CreateTriggerStmt*>(stmt);
      s->name = ctx->FreshName("tg");
      s->table = pick_table();
      FixStatement(s->body.get(), ctx);
      break;
    }
    case StatementType::kCreateSequence: {
      static_cast<sql::CreateSequenceStmt*>(stmt)->name = ctx->FreshName("sq");
      break;
    }
    case StatementType::kCreateRule: {
      auto* s = static_cast<sql::CreateRuleStmt*>(stmt);
      s->name = ctx->FreshName("rl");
      s->table = pick_table();
      if (s->action != nullptr) FixStatement(s->action.get(), ctx);
      break;
    }
    case StatementType::kCreateUser: {
      static_cast<sql::CreateUserStmt*>(stmt)->name = ctx->FreshName("u");
      break;
    }
    case StatementType::kDropTable: {
      auto* s = static_cast<sql::DropStmt*>(stmt);
      if (ctx->Find(s->name()) == nullptr) s->set_name(pick_table());
      break;
    }
    case StatementType::kDropIndex: {
      auto* s = static_cast<sql::DropStmt*>(stmt);
      if (!ctx->indexes().count(s->name()) && !ctx->indexes().empty()) {
        s->set_name(*ctx->indexes().begin());
      }
      break;
    }
    case StatementType::kDropView: {
      auto* s = static_cast<sql::DropStmt*>(stmt);
      if (!ctx->views().count(s->name()) && !ctx->views().empty()) {
        s->set_name(*ctx->views().begin());
      }
      break;
    }
    case StatementType::kDropTrigger: {
      auto* s = static_cast<sql::DropStmt*>(stmt);
      if (!ctx->triggers().count(s->name()) && !ctx->triggers().empty()) {
        s->set_name(*ctx->triggers().begin());
      }
      break;
    }
    case StatementType::kDropSequence: {
      auto* s = static_cast<sql::DropStmt*>(stmt);
      if (!ctx->sequences().count(s->name()) && !ctx->sequences().empty()) {
        s->set_name(*ctx->sequences().begin());
      }
      break;
    }
    case StatementType::kDropRule: {
      auto* s = static_cast<sql::DropStmt*>(stmt);
      if (!ctx->rules().count(s->name()) && !ctx->rules().empty()) {
        s->set_name(*ctx->rules().begin());
      }
      break;
    }
    case StatementType::kAlterTable: {
      auto* s = static_cast<sql::AlterTableStmt*>(stmt);
      s->table = pick_table();
      if (s->action == sql::AlterAction::kAddColumn) {
        s->new_column.name = ctx->FreshName("c");
        s->new_column.not_null = false;
      } else if (s->action == sql::AlterAction::kDropColumn ||
                 s->action == sql::AlterAction::kRenameColumn) {
        if (table != nullptr && !table->columns.empty()) {
          s->old_name =
              table->columns[rng_->NextBelow(table->columns.size())].name;
        }
        if (s->action == sql::AlterAction::kRenameColumn) {
          s->new_name = ctx->FreshName("c");
        }
      } else {
        s->new_name = ctx->FreshName("t");
      }
      break;
    }
    case StatementType::kTruncate: {
      static_cast<sql::TruncateStmt*>(stmt)->table = pick_table();
      break;
    }
    case StatementType::kInsert:
    case StatementType::kReplace: {
      auto* s = static_cast<sql::InsertStmt*>(stmt);
      if (ctx->Find(s->table) == nullptr ||
          ctx->Find(s->table)->is_view) {
        s->table = pick_table();
      }
      const SymbolicTable* target = ctx->Find(s->table);
      if (target != nullptr && s->select == nullptr) {
        // Refill: make every VALUES row match the table width and types.
        s->columns.clear();
        for (auto& row : s->rows) {
          while (row.size() > target->columns.size()) row.pop_back();
          for (size_t c = 0; c < row.size(); ++c) {
            if (row[c]->kind() != sql::ExprKind::kLiteral) continue;
            // Literal retained; type coercion happens in the engine.
          }
          while (row.size() < target->columns.size()) {
            row.push_back(generator_.RandomLiteral(
                target->columns[row.size()].type));
          }
        }
        if (s->rows.empty()) {
          std::vector<sql::ExprPtr> row;
          for (const auto& col : target->columns) {
            row.push_back(generator_.RandomLiteral(col.type));
          }
          s->rows.push_back(std::move(row));
        }
      }
      break;
    }
    case StatementType::kUpdate: {
      auto* s = static_cast<sql::UpdateStmt*>(stmt);
      if (ctx->Find(s->table) == nullptr || ctx->Find(s->table)->is_view) {
        s->table = pick_table();
      }
      const SymbolicTable* target = ctx->Find(s->table);
      if (target != nullptr && !target->columns.empty()) {
        std::set<std::string> valid;
        for (const auto& col : target->columns) valid.insert(col.name);
        std::set<std::string> used;
        for (auto& [col, expr] : s->assignments) {
          if (!valid.count(col) || used.count(col)) {
            col = target->columns[rng_->NextBelow(target->columns.size())]
                      .name;
          }
          used.insert(col);
        }
      }
      break;
    }
    case StatementType::kDelete: {
      auto* s = static_cast<sql::DeleteStmt*>(stmt);
      if (ctx->Find(s->table) == nullptr || ctx->Find(s->table)->is_view) {
        s->table = pick_table();
      }
      break;
    }
    case StatementType::kCopy: {
      auto* s = static_cast<sql::CopyStmt*>(stmt);
      if (s->query == nullptr && ctx->Find(s->table) == nullptr) {
        s->table = pick_table();
      }
      break;
    }
    case StatementType::kGrant: {
      auto* s = static_cast<sql::GrantStmt*>(stmt);
      if (ctx->Find(s->table) == nullptr) s->table = pick_table();
      if (!ctx->users().count(s->user) && !ctx->users().empty()) {
        s->user = *ctx->users().begin();
      }
      break;
    }
    case StatementType::kRevoke: {
      auto* s = static_cast<sql::RevokeStmt*>(stmt);
      if (ctx->Find(s->table) == nullptr) s->table = pick_table();
      if (!ctx->users().count(s->user) && !ctx->users().empty()) {
        s->user = *ctx->users().begin();
      }
      break;
    }
    case StatementType::kComment: {
      auto* s = static_cast<sql::CommentStmt*>(stmt);
      if (ctx->Find(s->table) == nullptr) s->table = pick_table();
      break;
    }
    case StatementType::kRelease:
    case StatementType::kRollbackTo: {
      // Valid savepoint names only exist inside a transaction.
      break;
    }
    case StatementType::kWith: {
      auto* s = static_cast<sql::WithStmt*>(stmt);
      // CTE members see the outer context; the body additionally sees the
      // CTE names (registered as synthetic relations).
      SchemaContext body_ctx = *ctx;
      for (auto& cte : s->ctes) {
        FixStatement(cte.statement.get(), ctx);
        sql::CreateTableStmt synthetic;
        synthetic.name = cte.name;
        synthetic.columns.emplace_back("column1", sql::SqlType::kInt);
        body_ctx.Apply(synthetic);
      }
      FixStatement(s->body.get(), &body_ctx);
      return;  // references fixed against body_ctx already
    }
    case StatementType::kExplain: {
      auto* s = static_cast<sql::ExplainStmt*>(stmt);
      FixStatement(s->target.get(), ctx);
      return;
    }
    default:
      break;
  }

  FixReferences(stmt, ctx);
}

void Instantiator::FixReferences(sql::Statement* stmt, SchemaContext* ctx) {
  // Pass 1: retarget dangling FROM-clause base tables to existing relations.
  sql::WalkTableRefs(
      *stmt,
      [&](const sql::TableRef& ref) {
        if (ref.kind() != sql::TableRefKind::kBaseTable) return;
        auto* base = const_cast<sql::BaseTableRef*>(
            static_cast<const sql::BaseTableRef*>(&ref));
        if (ctx->Find(base->name()) == nullptr) {
          const SymbolicTable* rel = ctx->RandomRelation(rng_);
          if (rel != nullptr) base->set_name(rel->name);
        }
      },
      /*into_subqueries=*/true);

  // Pass 2: collect the statement's (coarse) column scope.
  std::set<std::string> scope_tables = ScopeTables(*stmt);
  std::vector<const SymbolicColumn*> scope_columns;
  std::set<std::string> scope_column_names;
  std::set<std::string> alias_qualifiers;
  for (const std::string& name : scope_tables) {
    const SymbolicTable* rel = ctx->Find(name);
    if (rel == nullptr) {
      alias_qualifiers.insert(name);  // subquery alias or table alias
      continue;
    }
    for (const auto& col : rel->columns) {
      scope_columns.push_back(&col);
      scope_column_names.insert(col.name);
    }
  }
  if (scope_columns.empty()) return;

  // Pass 3: re-point unresolvable column references.
  sql::WalkStatementExprs(
      *stmt,
      [&](const sql::Expr& expr) {
        if (expr.kind() != sql::ExprKind::kColumnRef) return;
        auto* ref = const_cast<sql::ColumnRef*>(
            static_cast<const sql::ColumnRef*>(&expr));
        bool qualifier_ok =
            ref->table().empty() || scope_tables.count(ref->table()) > 0;
        bool column_ok = scope_column_names.count(ref->column()) > 0 ||
                         (!ref->table().empty() &&
                          alias_qualifiers.count(ref->table()) > 0);
        if (qualifier_ok && column_ok) return;
        const SymbolicColumn* pick =
            scope_columns[rng_->NextBelow(scope_columns.size())];
        ref->set_table("");
        ref->set_column(pick->name);
      },
      /*into_subqueries=*/true);
}

}  // namespace lego::core
