#include "fuzz/distill.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

namespace lego::fuzz {

namespace {

/// Non-zero bytes of `word`: adding 0x7f to a byte's low 7 bits carries
/// into its top bit iff they are non-zero, and never into the next byte.
int NonZeroBytes(uint64_t word) {
  constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  return std::popcount((((word & kLow7) + kLow7) | word) & ~kLow7);
}

}  // namespace

CaseFootprint FootprintCase(const TestCase& tc, ExecutionHarness* harness) {
  harness->Run(tc);
  const cov::CoverageMap& run = harness->last_run_coverage();
  CaseFootprint fp;
  run.ForEachDirtyWord([&](size_t w) {
    uint64_t bits;
    std::memcpy(&bits, run.data() + w * sizeof(uint64_t), sizeof(bits));
    if (bits == 0) return;
    fp.words.push_back(static_cast<uint16_t>(w));
    fp.bits.push_back(bits);
    fp.edges += static_cast<size_t>(NonZeroBytes(bits));
  });
  return fp;
}

std::vector<size_t> GreedyCover(const std::vector<CaseFootprint>& footprints,
                                size_t* union_edges) {
  // Largest-footprint-first is the classic cmin greedy: big cases swallow
  // the common edges early, so small cases only survive on genuinely rare
  // coverage. Stable tie-break on input order keeps the result
  // deterministic.
  std::vector<size_t> order(footprints.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return footprints[a].edges > footprints[b].edges;
  });

  static_assert(cov::CoverageMap::kWords <= 65536, "word index is 16 bits");
  std::vector<uint64_t> seen(cov::CoverageMap::kWords, 0);
  std::vector<size_t> kept;
  size_t edges = 0;
  for (size_t i : order) {
    const CaseFootprint& fp = footprints[i];
    bool adds = false;
    for (size_t j = 0; j < fp.words.size(); ++j) {
      uint64_t& word = seen[fp.words[j]];
      if ((fp.bits[j] & ~word) == 0) continue;
      const int before = NonZeroBytes(word);
      word |= fp.bits[j];
      edges += static_cast<size_t>(NonZeroBytes(word) - before);
      adds = true;
    }
    if (adds) kept.push_back(i);
  }
  std::sort(kept.begin(), kept.end());
  if (union_edges != nullptr) *union_edges = edges;
  return kept;
}

std::vector<TestCase> DistillCorpus(const std::vector<TestCase>& cases,
                                    ExecutionHarness* harness,
                                    DistillStats* stats) {
  DistillStats local;
  local.original_cases = cases.size();

  std::vector<CaseFootprint> footprints;
  footprints.reserve(cases.size());
  for (const TestCase& tc : cases) {
    footprints.push_back(FootprintCase(tc, harness));
    ++local.replays;
  }
  const std::vector<size_t> keep =
      GreedyCover(footprints, &local.original_edges);

  // The kept subset alone, verifying nothing was lost (and producing the
  // number a caller can compare against a donor campaign).
  std::vector<TestCase> kept;
  kept.reserve(keep.size());
  harness->ResetCoverage();
  for (size_t i : keep) {
    harness->Run(cases[i]);
    ++local.replays;
    kept.push_back(cases[i].Clone());
  }
  local.kept_edges = harness->CoveredEdges();
  local.kept_cases = kept.size();
  harness->ResetCoverage();

  if (stats != nullptr) *stats = local;
  return kept;
}

}  // namespace lego::fuzz
