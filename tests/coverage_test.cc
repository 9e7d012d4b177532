#include "coverage/coverage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "persist/io.h"

namespace lego::cov {
namespace {

/// Byte-wise model of a run map: what CoverageMap holds, computed with no
/// summary, for checking the sparse paths against.
struct RefMap {
  std::vector<uint8_t> counts = std::vector<uint8_t>(CoverageMap::kSize, 0);
  uint64_t prev = 0;

  /// Hits `map` and the model with a probe that lands on `edge`.
  void HitEdge(CoverageMap* map, size_t edge) {
    const uint64_t loc = (prev ^ edge) & (CoverageMap::kSize - 1);
    map->Hit(loc);
    if (counts[edge] != 0xff) ++counts[edge];
    prev = loc >> 1;
  }

  std::vector<uint8_t> Classified() const {
    std::vector<uint8_t> out(counts.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      out[i] = CoverageMap::Bucket(counts[i]);
    }
    return out;
  }

  size_t NonZero() const {
    return CoverageMap::kSize -
           static_cast<size_t>(std::count(counts.begin(), counts.end(), 0));
  }
};

std::vector<uint8_t> BytesOf(const CoverageMap& map) {
  return std::vector<uint8_t>(map.data(), map.data() + CoverageMap::kSize);
}

size_t DirtyWords(const CoverageMap& map) {
  size_t n = 0;
  map.ForEachDirtyWord([&](size_t) { ++n; });
  return n;
}

/// A few hundred edges, some hit many times, clustered the way probe
/// hashes fall: sparse words, several edges per word now and then.
void FillSparse(uint64_t seed, CoverageMap* map, RefMap* ref) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 300; ++i) {
    const size_t edge = rng() % CoverageMap::kSize;
    const int times = (rng() % 4 == 0) ? 1 + static_cast<int>(rng() % 300) : 1;
    for (int t = 0; t < times; ++t) ref->HitEdge(map, edge);
    if (rng() % 3 == 0) ref->HitEdge(map, (edge ^ 1) % CoverageMap::kSize);
  }
}

/// The virgin bitmap as SaveState writes it: the chunk ends with the
/// length-prefixed 64 KiB bitmap.
std::vector<uint8_t> VirginOf(const GlobalCoverage& global) {
  persist::StateWriter w;
  EXPECT_TRUE(global.SaveState(&w).ok());
  const std::string& buf = w.buffer();
  EXPECT_GE(buf.size(), CoverageMap::kSize);
  return std::vector<uint8_t>(buf.end() - CoverageMap::kSize, buf.end());
}

TEST(CoverageMapTest, RecordsEdges) {
  CoverageMap map;
  EXPECT_EQ(map.CountNonZero(), 0u);
  map.Hit(0x1234);
  EXPECT_EQ(map.CountNonZero(), 1u);
  map.Hit(0x5678);  // edge (0x1234>>1) ^ 0x5678
  EXPECT_EQ(map.CountNonZero(), 2u);
}

TEST(CoverageMapTest, EdgeIdentityDependsOnPredecessor) {
  CoverageMap a;
  a.Hit(1);
  a.Hit(2);
  CoverageMap b;
  b.Hit(3);
  b.Hit(2);
  a.ClassifyCounts();
  b.ClassifyCounts();
  // Same probe (2) reached from different predecessors yields different
  // edges, so the union covers more than either alone.
  GlobalCoverage global;
  global.MergeDetectNew(a);
  EXPECT_TRUE(global.MergeDetectNew(b));
}

TEST(CoverageMapTest, ResetClears) {
  CoverageMap map;
  map.Hit(1);
  map.Hit(2);
  map.Reset();
  EXPECT_EQ(map.CountNonZero(), 0u);
}

TEST(CoverageMapTest, BucketBoundaries) {
  EXPECT_EQ(CoverageMap::Bucket(0), 0);
  EXPECT_EQ(CoverageMap::Bucket(1), 1);
  EXPECT_EQ(CoverageMap::Bucket(2), 2);
  EXPECT_EQ(CoverageMap::Bucket(3), 4);
  EXPECT_EQ(CoverageMap::Bucket(4), 8);
  EXPECT_EQ(CoverageMap::Bucket(7), 8);
  EXPECT_EQ(CoverageMap::Bucket(8), 16);
  EXPECT_EQ(CoverageMap::Bucket(15), 16);
  EXPECT_EQ(CoverageMap::Bucket(16), 32);
  EXPECT_EQ(CoverageMap::Bucket(31), 32);
  EXPECT_EQ(CoverageMap::Bucket(32), 64);
  EXPECT_EQ(CoverageMap::Bucket(127), 64);
  EXPECT_EQ(CoverageMap::Bucket(128), 128);
  EXPECT_EQ(CoverageMap::Bucket(255), 128);
}

TEST(CoverageMapTest, CounterSaturatesWithoutWrapping) {
  CoverageMap map;
  for (int i = 0; i < 1000; ++i) {
    map.Hit(7);
    map.Hit(7);  // same edge after the first alternation settles
  }
  EXPECT_GT(map.CountNonZero(), 0u);
  map.ClassifyCounts();
  EXPECT_GT(map.CountNonZero(), 0u);  // classification keeps nonzero
}

TEST(GlobalCoverageTest, DetectsNewEdgesThenPlateaus) {
  GlobalCoverage global;
  CoverageMap run;
  run.Hit(1);
  run.Hit(2);
  run.ClassifyCounts();
  EXPECT_TRUE(global.MergeDetectNew(run));
  size_t edges = global.CoveredEdges();
  EXPECT_GT(edges, 0u);
  EXPECT_FALSE(global.MergeDetectNew(run));
  EXPECT_EQ(global.CoveredEdges(), edges);
}

TEST(GlobalCoverageTest, NewHitCountBucketIsNewCoverage) {
  GlobalCoverage global;
  // Repeated hits of probe 1 from prev=0 land on one edge (1 >> 1 == 0, so
  // the chain state re-enters the same edge each time).
  CoverageMap once;
  once.Hit(1);
  once.ClassifyCounts();
  EXPECT_TRUE(global.MergeDetectNew(once));

  // Same single edge hit five times -> a different hit-count bucket -> new
  // coverage, while the distinct-edge count stays the same (AFL semantics).
  size_t edges = global.CoveredEdges();
  CoverageMap many;
  for (int i = 0; i < 5; ++i) many.Hit(1);
  many.ClassifyCounts();
  EXPECT_TRUE(global.MergeDetectNew(many));
  EXPECT_EQ(global.CoveredEdges(), edges);
}

TEST(CoverageRuntimeTest, ScopeRoutesProbes) {
  CoverageMap map;
  {
    CoverageScope scope(&map);
    LEGO_COV();
    LEGO_COV();
    LEGO_COV_KEYED(3);
  }
  EXPECT_GT(map.CountNonZero(), 0u);
  size_t before = map.CountNonZero();
  LEGO_COV();  // outside any scope: ignored
  EXPECT_EQ(map.CountNonZero(), before);
}

TEST(CoverageRuntimeTest, ScopesNest) {
  CoverageMap outer;
  CoverageMap inner;
  CoverageScope outer_scope(&outer);
  LEGO_COV();
  {
    CoverageScope inner_scope(&inner);
    LEGO_COV();
  }
  LEGO_COV();
  EXPECT_GT(outer.CountNonZero(), 0u);
  EXPECT_GT(inner.CountNonZero(), 0u);
}

TEST(CoverageRuntimeTest, KeyedProbesDistinguishValues) {
  CoverageMap a;
  {
    CoverageScope scope(&a);
    LEGO_COV_KEYED(1);
  }
  CoverageMap b;
  {
    CoverageScope scope(&b);
    LEGO_COV_KEYED(2);
  }
  a.ClassifyCounts();
  b.ClassifyCounts();
  GlobalCoverage global;
  global.MergeDetectNew(a);
  EXPECT_TRUE(global.MergeDetectNew(b));
}

TEST(CoverageSummaryTest, SparseMapsClassifyLikeByteWiseBucket) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CoverageMap map;
    RefMap ref;
    FillSparse(seed, &map, &ref);
    ASSERT_EQ(BytesOf(map), ref.counts) << "seed " << seed;
    EXPECT_EQ(map.CountNonZero(), ref.NonZero());
    map.ClassifyCounts();
    EXPECT_EQ(BytesOf(map), ref.Classified()) << "seed " << seed;
    EXPECT_EQ(map.CountNonZero(), ref.NonZero());
  }
}

TEST(CoverageSummaryTest, DenseMapWithEveryWordDirty) {
  CoverageMap map;
  RefMap ref;
  for (size_t edge = 0; edge < CoverageMap::kSize; ++edge) {
    const size_t times = 1 + (edge * 37) % 40;
    for (size_t t = 0; t < times; ++t) ref.HitEdge(&map, edge);
  }
  EXPECT_EQ(DirtyWords(map), CoverageMap::kWords);
  EXPECT_EQ(map.CountNonZero(), CoverageMap::kSize);
  ASSERT_EQ(BytesOf(map), ref.counts);
  map.ClassifyCounts();
  EXPECT_EQ(BytesOf(map), ref.Classified());
  map.Reset();
  EXPECT_EQ(BytesOf(map), std::vector<uint8_t>(CoverageMap::kSize, 0));
  EXPECT_EQ(DirtyWords(map), 0u);
}

TEST(CoverageSummaryTest, EveryCountValueBucketsLikeBucket) {
  // Edge 97 * c carries count c, one edge per word; edge 1 is hit past the
  // 8-bit range and must saturate at 0xff, not wrap.
  CoverageMap map;
  RefMap ref;
  for (size_t c = 1; c < 256; ++c) {
    for (size_t t = 0; t < c; ++t) ref.HitEdge(&map, 97 * c);
  }
  for (int t = 0; t < 1000; ++t) ref.HitEdge(&map, 1);
  ASSERT_EQ(BytesOf(map), ref.counts);
  EXPECT_EQ(map.data()[1], 0xff);
  for (size_t c = 1; c < 256; ++c) ASSERT_EQ(map.data()[97 * c], c);
  map.ClassifyCounts();
  EXPECT_EQ(BytesOf(map), ref.Classified());
  EXPECT_EQ(map.data()[1], 128);
  for (size_t c = 1; c < 256; ++c) {
    EXPECT_EQ(map.data()[97 * c],
              CoverageMap::Bucket(static_cast<uint8_t>(c)))
        << "count " << c;
  }
  EXPECT_EQ(map.data()[0], 0);  // untouched bytes of a dirty word stay 0
}

TEST(CoverageSummaryTest, CopyDirtyFromMatchesAFullCopy) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    CoverageMap shared;
    RefMap ref;
    FillSparse(seed, &shared, &ref);
    // The destination still holds an earlier run's words, as the forked
    // backend's parent-side copy does between runs.
    CoverageMap copy;
    RefMap stale;
    FillSparse(seed + 1000, &copy, &stale);
    copy.ClassifyCounts();

    copy.CopyDirtyFrom(shared);
    CoverageMap full = shared;  // what a memcpy of the object gives
    ASSERT_EQ(BytesOf(copy), BytesOf(full)) << "seed " << seed;
    EXPECT_EQ(DirtyWords(copy), DirtyWords(shared));
    copy.ClassifyCounts();
    full.ClassifyCounts();
    EXPECT_EQ(BytesOf(copy), BytesOf(full));
    EXPECT_EQ(BytesOf(copy), ref.Classified());
  }
}

TEST(CoverageSummaryTest, ResetAfterClassifyLeavesNothingBehind) {
  CoverageMap map;
  RefMap ref;
  FillSparse(7, &map, &ref);
  map.ClassifyCounts();
  ASSERT_GT(DirtyWords(map), 0u);
  map.Reset();
  EXPECT_EQ(BytesOf(map), std::vector<uint8_t>(CoverageMap::kSize, 0));
  EXPECT_EQ(DirtyWords(map), 0u);
  EXPECT_EQ(map.CountNonZero(), 0u);
  // The next run starts from a clean slate: same edges as a fresh map.
  RefMap again;
  FillSparse(8, &map, &again);
  EXPECT_EQ(BytesOf(map), again.counts);
}

TEST(CoverageSummaryTest, MergeDetectNewMatchesFullSweep) {
  GlobalCoverage global;
  std::vector<uint8_t> virgin(CoverageMap::kSize, 0);
  size_t covered = 0;
  int nothing_new = 0;
  int bucket_only = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    CoverageMap run;
    RefMap ref;
    // Runs 1-8 find new edges, runs 9-24 repeat them exactly, and runs
    // 25-40 repeat them with doubled counts: new buckets on known edges.
    const uint64_t base = (seed - 1) % 8 + 1;
    FillSparse(base, &run, &ref);
    if (seed > 24) FillSparse(base, &run, &ref);
    run.ClassifyCounts();

    const size_t covered_before = covered;
    bool expect_new = false;
    for (size_t i = 0; i < virgin.size(); ++i) {
      const uint8_t bits = run.data()[i];
      if ((bits & ~virgin[i]) == 0) continue;
      if (virgin[i] == 0) ++covered;
      virgin[i] |= bits;
      expect_new = true;
    }
    EXPECT_EQ(global.MergeDetectNew(run), expect_new) << "seed " << seed;
    EXPECT_EQ(global.CoveredEdges(), covered) << "seed " << seed;
    ASSERT_EQ(VirginOf(global), virgin) << "seed " << seed;
    nothing_new += !expect_new;
    bucket_only += expect_new && covered == covered_before;
  }
  EXPECT_GT(nothing_new, 0);
  EXPECT_GT(bucket_only, 0);
}

}  // namespace
}  // namespace lego::cov
