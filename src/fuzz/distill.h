#ifndef LEGO_FUZZ_DISTILL_H_
#define LEGO_FUZZ_DISTILL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fuzz/harness.h"
#include "fuzz/testcase.h"

namespace lego::fuzz {

/// Bookkeeping from one DistillCorpus run.
struct DistillStats {
  size_t original_cases = 0;
  size_t kept_cases = 0;
  /// Distinct edges covered by the full input corpus (footprint union).
  size_t original_edges = 0;
  /// Distinct edges covered by the kept subset alone. Equal to
  /// original_edges by construction (verified with a final replay pass).
  size_t kept_edges = 0;
  /// Total Run() calls spent: original + kept.
  size_t replays = 0;
};

/// The classified coverage one replay of a case left: the non-zero 8-byte
/// words of the run map, as word indices (increasing) and their bits, and
/// the number of non-zero bytes, which is the case's solo edge count.
/// A deterministic backend gives a case the same footprint on any harness
/// of one profile, fresh or after any other cases, so a case needs to be
/// replayed only once.
struct CaseFootprint {
  std::vector<uint16_t> words;
  std::vector<uint64_t> bits;
  size_t edges = 0;
};

/// Replays `tc` once on `harness` and records its footprint. The harness's
/// accumulated coverage grows by the run and is not reset.
CaseFootprint FootprintCase(const TestCase& tc, ExecutionHarness* harness);

/// Greedy set cover (afl-cmin style) over the footprints of a corpus:
/// visits the cases largest solo edge count first (ties in input order) and
/// keeps a case iff some word has a bit no case visited before it had —
/// exactly what GlobalCoverage::MergeDetectNew reports when the cases are
/// replayed in that order. Returns the kept indices in input order; the
/// edge count of the union goes to `union_edges` when it is not null.
std::vector<size_t> GreedyCover(const std::vector<CaseFootprint>& footprints,
                                size_t* union_edges);

/// Greedy corpus minimization: keeps a subset of `cases` that covers
/// exactly the same edge set, as replayed through `harness`.
///
/// Algorithm: each case is replayed once for its footprint, GreedyCover
/// picks the subset, and a final pass replays the kept subset alone to
/// verify the edge union is preserved — N + K replays for N cases of which
/// K are kept. Replaying through the real backend rather than trusting
/// recorded bitmaps means distillation holds for the engine as built today,
/// not the one that produced the corpus.
///
/// The kept cases are returned in their original input order. The
/// harness's accumulated coverage is clobbered (reset before the verifying
/// pass and after it) — pass a dedicated harness, not one mid-campaign.
/// Requires a deterministic backend (both built-in backends are).
std::vector<TestCase> DistillCorpus(const std::vector<TestCase>& cases,
                                    ExecutionHarness* harness,
                                    DistillStats* stats);

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_DISTILL_H_
