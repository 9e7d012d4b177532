#ifndef LEGO_LEGO_INSTANTIATOR_H_
#define LEGO_LEGO_INSTANTIATOR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fuzz/testcase.h"
#include "lego/ast_library.h"
#include "lego/generator.h"
#include "minidb/profile.h"
#include "sql/statement_type.h"
#include "util/random.h"

namespace lego::core {

/// Turns a synthesized SQL Type Sequence into an executable test case
/// (paper §III-B instantiation): for each entry, sample a type-matched AST
/// skeleton from the library (or generate a fresh one), then run dependency
/// analysis against the symbolic schema context and refill names/data so the
/// test case is semantically valid — tables exist before use, column
/// references resolve, VALUES rows match table width.
class Instantiator {
 public:
  /// `library` may be nullptr (always generate fresh statements); it is
  /// only read.
  Instantiator(const minidb::DialectProfile* profile,
               const AstLibrary* library, Rng* rng)
      : profile_(profile), library_(library), rng_(rng),
        generator_(profile, rng) {}

  /// Instantiates `sequence` into a test case. Randomness means repeated
  /// calls on the same sequence yield different structures (the paper
  /// instantiates each sequence multiple times).
  fuzz::TestCase Instantiate(
      const std::vector<sql::StatementType>& sequence);

  /// Dependency analysis + refill for one statement against `ctx`; exposed
  /// for the mutators, which fix mutated statements the same way.
  void FixStatement(sql::Statement* stmt, SchemaContext* ctx);

 private:
  /// Rewrites FROM-clause base tables that don't exist to context relations
  /// and re-targets dangling column references to in-scope columns.
  void FixReferences(sql::Statement* stmt, SchemaContext* ctx);

  const minidb::DialectProfile* profile_;
  const AstLibrary* library_;
  Rng* rng_;
  StatementGenerator generator_;
};

/// A synthesized sequence whose instantiation is deferred until the test
/// case is needed. Its draws come from its own `Rng(seed)` and its skeletons
/// from an immutable library snapshot, so Instantiate() is a pure function
/// of the entry: it yields the same test case whenever it runs, and the
/// same one an Instantiator over that library state and RNG would have
/// produced at the moment the snapshot was taken.
struct DeferredInstantiation {
  std::vector<sql::StatementType> sequence;
  uint64_t seed = 0;
  std::shared_ptr<const AstLibrary> library;

  fuzz::TestCase Instantiate(const minidb::DialectProfile& profile) const;
};

}  // namespace lego::core

#endif  // LEGO_LEGO_INSTANTIATOR_H_
