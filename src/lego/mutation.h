#ifndef LEGO_LEGO_MUTATION_H_
#define LEGO_LEGO_MUTATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fuzz/testcase.h"
#include "lego/instantiator.h"
#include "minidb/profile.h"
#include "util/random.h"

namespace lego::core {

/// The three probes of paper Algorithm 1 for one statement position.
enum class MutationKind : uint8_t { kSubstitute, kInsert, kDelete };

/// A sequence-oriented mutant whose construction is deferred until the test
/// case is needed. Its draws come from its own `Rng(seed)`, and the
/// dependency re-analysis it runs reads no AST library, so Build() is a pure
/// function of the entry: it yields the same test case whenever it runs.
/// `parent` must stay alive and unchanged until then; a corpus seed's test
/// case does (see fuzz::Corpus).
struct DeferredMutation {
  const fuzz::TestCase* parent = nullptr;
  /// The statement mutated; always within `parent`.
  size_t position = 0;
  MutationKind kind = MutationKind::kInsert;
  /// The type that replaces the statement at `position` (kSubstitute only).
  sql::StatementType replacement = sql::StatementType::kSelect;
  uint64_t seed = 0;
  /// As StatementGenerator::set_fancy_selects, for generated statements.
  bool fancy_selects = true;

  /// The mutant: `parent` with the statement at `position` replaced by a
  /// fresh one of type `replacement` (substitution), a random statement
  /// inserted after it (insertion) or it removed (deletion), followed by
  /// the SQUIRREL-style dependency re-analysis and data refill of every
  /// statement, so the mutant stays semantically plausible.
  fuzz::TestCase Build(const minidb::DialectProfile& profile) const;
};

/// Mutators over test cases.
///
/// SequenceOrientedMutants implements paper Algorithm 1: for a statement
/// position, it plans a substitution (type changed), an insertion (random
/// type inserted after) and a deletion as DeferredMutations. These mutants
/// are the probes whose coverage feedback drives type-affinity analysis;
/// LEGO queues them and builds each only when it is dequeued.
///
/// ConventionalMutate preserves the SQL Type Sequence and only changes the
/// structure/data inside one statement — exactly what the paper says
/// existing mutation-based fuzzers (SQUIRREL) are limited to.
class SequenceMutator {
 public:
  SequenceMutator(const minidb::DialectProfile* profile,
                  Instantiator* instantiator, Rng* rng,
                  bool fancy_selects = true)
      : profile_(profile), instantiator_(instantiator), rng_(rng),
        fancy_selects_(fancy_selects) {}

  /// Algorithm 1 applied to statement position `position` of `seed`:
  /// substitution, insertion and deletion, in that order. Draws the
  /// substitution's replacement type and one seed per mutant from the
  /// mutator's RNG. The substitution is left out when no other type came
  /// up, the deletion when `seed` has one statement; the result is empty
  /// when `position` is out of range. The mutants point at `seed`.
  std::vector<DeferredMutation> SequenceOrientedMutants(
      const fuzz::TestCase& seed, size_t position);

  /// One syntax-preserving mutant: same type sequence, different inner
  /// structure or data.
  fuzz::TestCase ConventionalMutate(const fuzz::TestCase& seed);

 private:
  const minidb::DialectProfile* profile_;
  Instantiator* instantiator_;
  Rng* rng_;
  bool fancy_selects_;
};

}  // namespace lego::core

#endif  // LEGO_LEGO_MUTATION_H_
