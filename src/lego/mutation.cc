#include "lego/mutation.h"

namespace lego::core {

namespace {

using sql::StatementType;

/// A random statement type enabled by the profile.
StatementType RandomType(const minidb::DialectProfile& profile, Rng* rng) {
  const auto types = profile.EnabledTypes();
  return types[rng->NextBelow(types.size())];
}

/// Re-runs dependency analysis over all statements (fresh schema context).
void Refix(Instantiator* instantiator, fuzz::TestCase* tc) {
  SchemaContext ctx;
  for (auto& stmt : *tc->mutable_statements()) {
    instantiator->FixStatement(stmt.get(), &ctx);
    ctx.Apply(*stmt);
  }
}

/// The schema context of `tc`'s first `end` statements, against which a
/// replacement or insertion is generated.
SchemaContext ContextBefore(const fuzz::TestCase& tc, size_t end) {
  SchemaContext ctx;
  for (size_t i = 0; i < end; ++i) ctx.Apply(*tc.statements()[i]);
  return ctx;
}

}  // namespace

fuzz::TestCase DeferredMutation::Build(
    const minidb::DialectProfile& profile) const {
  Rng rng(seed);
  StatementGenerator generator(&profile, &rng);
  generator.set_fancy_selects(fancy_selects);
  fuzz::TestCase mutant = parent->Clone();
  auto* stmts = mutant.mutable_statements();
  const auto at = stmts->begin() + static_cast<long>(position);
  switch (kind) {
    case MutationKind::kSubstitute: {
      SchemaContext ctx = ContextBefore(*parent, position);
      *at = generator.Generate(replacement, &ctx);
      break;
    }
    case MutationKind::kInsert: {
      SchemaContext ctx = ContextBefore(*parent, position + 1);
      sql::StmtPtr inserted =
          generator.Generate(RandomType(profile, &rng), &ctx);
      stmts->insert(at + 1, std::move(inserted));
      break;
    }
    case MutationKind::kDelete:
      stmts->erase(at);
      break;
  }
  // FixStatement never reads the library, so none is needed.
  Instantiator fixer(&profile, /*library=*/nullptr, &rng);
  Refix(&fixer, &mutant);
  return mutant;
}

std::vector<DeferredMutation> SequenceMutator::SequenceOrientedMutants(
    const fuzz::TestCase& seed, size_t position) {
  std::vector<DeferredMutation> mutants;
  if (seed.empty() || position >= seed.size()) return mutants;
  DeferredMutation mutant;
  mutant.parent = &seed;
  mutant.position = position;
  mutant.fancy_selects = fancy_selects_;
  auto plan = [&](MutationKind kind) {
    mutant.kind = kind;
    mutant.seed = rng_->Next();
    mutants.push_back(mutant);
  };

  // 1) Substitution: change the statement's type.
  const StatementType current = seed.statements()[position]->type();
  StatementType replacement = RandomType(*profile_, rng_);
  for (int tries = 0; replacement == current && tries < 4; ++tries) {
    replacement = RandomType(*profile_, rng_);
  }
  if (replacement != current) {
    mutant.replacement = replacement;
    plan(MutationKind::kSubstitute);
  }
  // 2) Insertion: add a random statement after the current one.
  plan(MutationKind::kInsert);
  // 3) Deletion: remove the current statement.
  if (seed.size() > 1) plan(MutationKind::kDelete);
  return mutants;
}

fuzz::TestCase SequenceMutator::ConventionalMutate(
    const fuzz::TestCase& seed) {
  fuzz::TestCase mutant = seed.Clone();
  if (mutant.empty()) return mutant;
  size_t position = rng_->NextBelow(mutant.size());
  auto* stmts = mutant.mutable_statements();
  sql::Statement* stmt = (*stmts)[position].get();

  // SELECT statements get clause-level tweaks; everything else gets a
  // same-type structural replacement (the type sequence never changes).
  if (stmt->type() == StatementType::kSelect && rng_->NextBool(0.5)) {
    auto* select = static_cast<sql::SelectStmt*>(stmt);
    switch (rng_->NextBelow(4)) {
      case 0:
        select->core.distinct = !select->core.distinct;
        break;
      case 1:
        if (select->order_by.empty()) {
          sql::OrderByItem item;
          item.expr = sql::Literal::Int(1);
          item.desc = rng_->NextBool(0.5);
          select->order_by.push_back(std::move(item));
        } else {
          select->order_by.clear();
        }
        break;
      case 2:
        if (select->limit == nullptr) {
          select->limit = sql::Literal::Int(rng_->NextInRange(0, 8));
        } else {
          select->limit = nullptr;
          select->offset = nullptr;
        }
        break;
      default:
        select->core.where = nullptr;  // drop the filter
        break;
    }
  } else {
    SchemaContext ctx;
    for (size_t i = 0; i < position; ++i) ctx.Apply(*(*stmts)[i]);
    StatementGenerator generator(profile_, rng_);
    generator.set_fancy_selects(fancy_selects_);
    (*stmts)[position] = generator.Generate(stmt->type(), &ctx);
  }
  Refix(instantiator_, &mutant);
  return mutant;
}

}  // namespace lego::core
