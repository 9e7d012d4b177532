#ifndef LEGO_SQL_GRAMMAR_COVERAGE_H_
#define LEGO_SQL_GRAMMAR_COVERAGE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lego::sql {

/// Grammar productions of the SQL parser, one probe per production (plus a
/// probe per variant arm inside multi-arm productions: join types, compound
/// kinds, IS variants, literal kinds, ...). Rule coverage is a *syntactic*
/// feedback signal: two statements can drive identical engine edges (e.g.
/// both error out at name resolution) while exercising different grammar
/// shapes, and this map is what tells them apart.
///
/// The list is an X-macro so the enum and its name table can never drift.
/// Rule identity is positional — append new rules at the end; reordering or
/// deleting entries re-keys every persisted rule map.
#define LEGO_GRAMMAR_RULE_LIST(X)                                         \
  X(Script)                                                               \
  X(CreateOrReplace)                                                      \
  X(CreateTemporary)                                                      \
  X(CreateUnique)                                                         \
  X(CreateTable)                                                          \
  X(CreateIndex)                                                          \
  X(CreateView)                                                           \
  X(CreateTrigger)                                                        \
  X(CreateSequence)                                                       \
  X(CreateSequenceStart)                                                  \
  X(CreateSequenceIncrement)                                              \
  X(CreateRule)                                                           \
  X(CreateRuleInstead)                                                    \
  X(CreateRuleNothing)                                                    \
  X(CreateUser)                                                           \
  X(IfNotExists)                                                          \
  X(TypeInt)                                                              \
  X(TypeReal)                                                             \
  X(TypeText)                                                             \
  X(TypeBool)                                                             \
  X(TypeLength)                                                           \
  X(ColumnDef)                                                            \
  X(ColumnPrimaryKey)                                                     \
  X(ColumnUnique)                                                         \
  X(ColumnNotNull)                                                        \
  X(ColumnDefault)                                                        \
  X(TriggerBefore)                                                        \
  X(TriggerAfter)                                                         \
  X(TriggerForEachRow)                                                    \
  X(TriggerEventInsert)                                                   \
  X(TriggerEventUpdate)                                                   \
  X(TriggerEventDelete)                                                   \
  X(DropTable)                                                            \
  X(DropIndex)                                                            \
  X(DropView)                                                             \
  X(DropTrigger)                                                          \
  X(DropSequence)                                                         \
  X(DropRule)                                                             \
  X(DropUser)                                                             \
  X(DropIfExists)                                                         \
  X(AlterTable)                                                           \
  X(AlterAddColumn)                                                       \
  X(AlterDropColumn)                                                      \
  X(AlterRenameColumn)                                                    \
  X(AlterRenameTable)                                                     \
  X(AlterSystemSet)                                                       \
  X(AlterSystemAction)                                                    \
  X(Truncate)                                                             \
  X(Insert)                                                               \
  X(InsertReplace)                                                        \
  X(InsertOrIgnore)                                                       \
  X(InsertColumnList)                                                     \
  X(InsertValues)                                                         \
  X(InsertSelect)                                                         \
  X(InsertDefaultValues)                                                  \
  X(Update)                                                               \
  X(UpdateWhere)                                                          \
  X(Delete)                                                               \
  X(DeleteWhere)                                                          \
  X(Copy)                                                                 \
  X(CopySubquery)                                                         \
  X(CopyToStdout)                                                         \
  X(CopyFromStdin)                                                        \
  X(CopyCsv)                                                              \
  X(CopyHeader)                                                           \
  X(Values)                                                               \
  X(With)                                                                 \
  X(WithColumnList)                                                       \
  X(Grant)                                                                \
  X(Revoke)                                                               \
  X(PrivilegeSelect)                                                      \
  X(PrivilegeInsert)                                                      \
  X(PrivilegeUpdate)                                                      \
  X(PrivilegeDelete)                                                      \
  X(PrivilegeAll)                                                         \
  X(Begin)                                                                \
  X(Commit)                                                               \
  X(Rollback)                                                             \
  X(RollbackTo)                                                           \
  X(Savepoint)                                                            \
  X(Release)                                                              \
  X(Pragma)                                                               \
  X(PragmaValue)                                                          \
  X(Set)                                                                  \
  X(SetSessionScope)                                                      \
  X(Show)                                                                 \
  X(Explain)                                                              \
  X(ExplainAnalyze)                                                       \
  X(Analyze)                                                              \
  X(Vacuum)                                                               \
  X(Reindex)                                                              \
  X(MaintenanceTarget)                                                    \
  X(Checkpoint)                                                           \
  X(Notify)                                                               \
  X(NotifyPayload)                                                        \
  X(Listen)                                                               \
  X(Unlisten)                                                             \
  X(Comment)                                                              \
  X(DiscardAll)                                                           \
  X(DiscardTemp)                                                          \
  X(Select)                                                               \
  X(SelectCore)                                                           \
  X(SelectDistinct)                                                       \
  X(SelectItemStar)                                                       \
  X(SelectItemTableStar)                                                  \
  X(SelectItemAlias)                                                      \
  X(SelectFrom)                                                           \
  X(SelectWhere)                                                          \
  X(SelectGroupBy)                                                        \
  X(SelectHaving)                                                         \
  X(SelectOrderBy)                                                        \
  X(OrderByDesc)                                                          \
  X(SelectLimit)                                                          \
  X(SelectOffset)                                                         \
  X(CompoundUnion)                                                        \
  X(CompoundUnionAll)                                                     \
  X(CompoundExcept)                                                       \
  X(CompoundIntersect)                                                    \
  X(FromCommaCross)                                                       \
  X(JoinLeft)                                                             \
  X(JoinCross)                                                            \
  X(JoinInner)                                                            \
  X(JoinOn)                                                               \
  X(FromSubquery)                                                         \
  X(FromBaseTable)                                                       \
  X(TableAlias)                                                           \
  X(ExprOr)                                                               \
  X(ExprAnd)                                                              \
  X(ExprNot)                                                              \
  X(CmpEq)                                                                \
  X(CmpNe)                                                                \
  X(CmpLt)                                                                \
  X(CmpLe)                                                                \
  X(CmpGt)                                                                \
  X(CmpGe)                                                                \
  X(IsNull)                                                               \
  X(IsNotNull)                                                            \
  X(IsTruth)                                                              \
  X(InList)                                                               \
  X(InSubquery)                                                           \
  X(Between)                                                              \
  X(Like)                                                                 \
  X(PredicateNegated)                                                     \
  X(ExprAdd)                                                              \
  X(ExprSub)                                                              \
  X(ExprConcat)                                                           \
  X(ExprMul)                                                              \
  X(ExprDiv)                                                              \
  X(ExprMod)                                                              \
  X(ExprNeg)                                                              \
  X(LiteralInt)                                                           \
  X(LiteralReal)                                                          \
  X(LiteralString)                                                        \
  X(LiteralNull)                                                          \
  X(LiteralBool)                                                          \
  X(ParenExpr)                                                            \
  X(ScalarSubquery)                                                       \
  X(SessionVariable)                                                      \
  X(ColumnReference)                                                      \
  X(QualifiedColumnReference)                                             \
  X(Cast)                                                                 \
  X(Case)                                                                 \
  X(CaseOperand)                                                          \
  X(CaseElse)                                                             \
  X(Exists)                                                               \
  X(NotExists)                                                            \
  X(FunctionCall)                                                         \
  X(FunctionStarArg)                                                      \
  X(FunctionDistinct)                                                     \
  X(WindowOver)                                                           \
  X(WindowPartitionBy)                                                    \
  X(WindowOrderBy)

enum class GrammarRule : uint16_t {
#define LEGO_GRAMMAR_RULE_ENUM(name) k##name,
  LEGO_GRAMMAR_RULE_LIST(LEGO_GRAMMAR_RULE_ENUM)
#undef LEGO_GRAMMAR_RULE_ENUM
      kNumRules  // sentinel, not a rule
};

inline constexpr size_t kNumGrammarRules =
    static_cast<size_t>(GrammarRule::kNumRules);

/// Stable human-readable name, e.g. "SelectWhere".
std::string_view GrammarRuleName(GrammarRule rule);

/// Thread-local probe sink the parser's rule probes write into: a caller-
/// provided byte array of kNumGrammarRules entries, one byte per rule,
/// set to 1 on first hit (a binary hit-set — unlike edge coverage there is
/// no hit-count bucketing; firing a production at all is the signal).
/// Detached (the default) every probe is one thread-local load + branch,
/// so un-instrumented parsing costs nearly nothing. Lives in lego_sql, not
/// lego_coverage, so the parser gains no dependency on the coverage/persist
/// layers (which themselves depend on lego_sql).
class GrammarCoverageRuntime {
 public:
  static void SetActiveMap(uint8_t* map) { active_ = map; }
  static uint8_t* active_map() { return active_; }

  static void Hit(GrammarRule rule) {
    if (active_ != nullptr) active_[static_cast<size_t>(rule)] = 1;
  }

 private:
  static inline constinit thread_local uint8_t* active_ = nullptr;
};

/// RAII scope that routes rule probes into `map` (kNumGrammarRules bytes)
/// for its lifetime.
class GrammarCoverageScope {
 public:
  explicit GrammarCoverageScope(uint8_t* map)
      : saved_(GrammarCoverageRuntime::active_map()) {
    GrammarCoverageRuntime::SetActiveMap(map);
  }
  ~GrammarCoverageScope() { GrammarCoverageRuntime::SetActiveMap(saved_); }

  GrammarCoverageScope(const GrammarCoverageScope&) = delete;
  GrammarCoverageScope& operator=(const GrammarCoverageScope&) = delete;

 private:
  uint8_t* saved_;
};

}  // namespace lego::sql

#endif  // LEGO_SQL_GRAMMAR_COVERAGE_H_
