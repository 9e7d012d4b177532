#ifndef LEGO_COVERAGE_COVERAGE_H_
#define LEGO_COVERAGE_COVERAGE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/hash.h"
#include "util/status.h"

namespace lego::persist {
class StateWriter;
class StateReader;
}  // namespace lego::persist

namespace lego::cov {

/// AFL-style edge-coverage map for one execution. Probes report a location
/// id; the map records the (prev >> 1) ^ cur edge and bumps an 8-bit
/// saturating counter. After a run, ClassifyCounts() folds raw counts into
/// AFL's hit-count buckets so "same edge, new hit-count magnitude" also
/// registers as new coverage.
///
/// A run touches a few hundred of the map's 8192 words, so the map keeps a
/// dirty-word summary: one bit per 8-byte word of the map, set by Hit.
/// Invariant: a byte is non-zero only if its word's summary bit is set.
/// Reset, ClassifyCounts, CountNonZero, CopyDirtyFrom and
/// GlobalCoverage::MergeDetectNew visit only the dirty words, so feedback
/// costs what the run touched, not the size of the map.
class CoverageMap {
 public:
  static constexpr size_t kSize = 1 << 16;
  static constexpr size_t kWords = kSize / sizeof(uint64_t);

  /// Clears all counters and the edge-chain state.
  void Reset() {
    ForEachDirtyWord([this](size_t w) {
      std::memset(map_.data() + w * sizeof(uint64_t), 0, sizeof(uint64_t));
    });
    dirty_.fill(0);
    prev_loc_ = 0;
  }

  /// Records a hit of probe `loc` (called via LEGO_COV()).
  void Hit(uint64_t loc) {
    size_t edge = static_cast<size_t>((prev_loc_ ^ loc) & (kSize - 1));
    const size_t word = edge / sizeof(uint64_t);
    dirty_[word / 64] |= uint64_t{1} << (word % 64);
    if (map_[edge] != 0xff) ++map_[edge];
    prev_loc_ = loc >> 1;
  }

  /// Folds raw hit counts into AFL bucket bitmasks (1,2,3,4-7,8-15,16-31,
  /// 32-127,128+ -> single bits).
  void ClassifyCounts();

  /// Makes this map equal to `src`, touching only the dirty words of the
  /// two maps. ForkedBackend::FinishRun copies the child's shared map this
  /// way instead of copying all 64 KiB.
  void CopyDirtyFrom(const CoverageMap& src) {
    Reset();
    src.ForEachDirtyWord([&](size_t w) {
      std::memcpy(map_.data() + w * sizeof(uint64_t),
                  src.map_.data() + w * sizeof(uint64_t), sizeof(uint64_t));
    });
    dirty_ = src.dirty_;
    prev_loc_ = src.prev_loc_;
  }

  /// Number of edges with any hits.
  size_t CountNonZero() const {
    size_t n = 0;
    ForEachDirtyWord([&](size_t w) {
      const uint8_t* p = map_.data() + w * sizeof(uint64_t);
      for (size_t j = 0; j < sizeof(uint64_t); ++j) n += (p[j] != 0);
    });
    return n;
  }

  /// Calls `fn(w)` for every word index `w` whose summary bit is set, in
  /// increasing order. Words not visited are all zero.
  template <typename Fn>
  void ForEachDirtyWord(Fn&& fn) const {
    for (size_t i = 0; i < dirty_.size(); ++i) {
      for (uint64_t bits = dirty_[i]; bits != 0; bits &= bits - 1) {
        fn(i * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  }

  const uint8_t* data() const { return map_.data(); }

  static constexpr uint8_t Bucket(uint8_t count) {
    if (count == 0) return 0;
    if (count == 1) return 1;
    if (count == 2) return 2;
    if (count == 3) return 4;
    if (count <= 7) return 8;
    if (count <= 15) return 16;
    if (count <= 31) return 32;
    if (count <= 127) return 64;
    return 128;
  }

 private:
  // Cache-line aligned, like GlobalCoverage::virgin_: at some heap offsets
  // the word loops ran measurably slower than at others, so throughput
  // moved with unrelated allocations elsewhere in the process.
  alignas(64) std::array<uint8_t, kSize> map_{};
  std::array<uint64_t, kWords / 64> dirty_{};
  uint64_t prev_loc_ = 0;
};

namespace detail {
/// CoverageMap::Bucket of every count, so classifying a byte is one load.
inline constexpr std::array<uint8_t, 256> kBucketTable = [] {
  std::array<uint8_t, 256> table{};
  for (size_t c = 0; c < table.size(); ++c) {
    table[c] = CoverageMap::Bucket(static_cast<uint8_t>(c));
  }
  return table;
}();
}  // namespace detail

inline void CoverageMap::ClassifyCounts() {
  ForEachDirtyWord([this](size_t w) {
    uint8_t* p = map_.data() + w * sizeof(uint64_t);
    for (size_t j = 0; j < sizeof(uint64_t); ++j) {
      p[j] = detail::kBucketTable[p[j]];
    }
  });
}

/// Accumulated ("virgin") coverage across a whole campaign. Merging a
/// classified run map reports whether the run contributed any new edge or
/// new hit-count bucket.
class GlobalCoverage {
 public:
  GlobalCoverage() { Reset(); }

  void Reset() {
    virgin_.fill(0);
    covered_edges_ = 0;
  }

  /// Merges `run` (must already be classified); returns true if any new
  /// coverage bit appeared. Only the run's dirty words are visited, and a
  /// word with no bit missing from the virgin map is skipped whole.
  bool MergeDetectNew(const CoverageMap& run) {
    bool new_cov = false;
    run.ForEachDirtyWord([&](size_t w) {
      const uint8_t* rd = run.data() + w * sizeof(uint64_t);
      uint8_t* v = virgin_.data() + w * sizeof(uint64_t);
      uint64_t bits;
      uint64_t seen;
      std::memcpy(&bits, rd, sizeof(bits));
      std::memcpy(&seen, v, sizeof(seen));
      if ((bits & ~seen) == 0) return;
      for (size_t j = 0; j < sizeof(uint64_t); ++j) {
        covered_edges_ += (v[j] == 0 && rd[j] != 0);
      }
      seen |= bits;
      std::memcpy(v, &seen, sizeof(seen));
      new_cov = true;
    });
    return new_cov;
  }

  /// Number of distinct edges ever covered ("branches" in the paper's
  /// terminology).
  size_t CoveredEdges() const { return covered_edges_; }

  /// Unions another accumulated bitmap into this one — the fleet
  /// coordinator folds per-worker shard coverage into a campaign-wide map
  /// this way. The edge counter is recomputed from the merged bitmap.
  void MergeFrom(const GlobalCoverage& other) {
    covered_edges_ = 0;
    for (size_t i = 0; i < virgin_.size(); ++i) {
      virgin_[i] |= other.virgin_[i];
      covered_edges_ += (virgin_[i] != 0);
    }
  }

  /// Checkpointing: the full virgin bitmap round-trips; the edge counter is
  /// recomputed on load (it is derived state).
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  alignas(64) std::array<uint8_t, CoverageMap::kSize> virgin_;
  size_t covered_edges_;
};

/// Process-wide sink the LEGO_COV() probes write into. The execution harness
/// points this at a fresh CoverageMap around each test-case execution.
class CoverageRuntime {
 public:
  static void SetActiveMap(CoverageMap* map) { active_ = map; }
  static CoverageMap* active_map() { return active_; }

  static void Hit(uint64_t id) {
    if (active_ != nullptr) active_->Hit(id);
  }

 private:
  static thread_local CoverageMap* active_;
};

/// RAII scope that routes probe hits into `map` for its lifetime.
class CoverageScope {
 public:
  explicit CoverageScope(CoverageMap* map)
      : saved_(CoverageRuntime::active_map()) {
    CoverageRuntime::SetActiveMap(map);
  }
  ~CoverageScope() { CoverageRuntime::SetActiveMap(saved_); }

  CoverageScope(const CoverageScope&) = delete;
  CoverageScope& operator=(const CoverageScope&) = delete;

 private:
  CoverageMap* saved_;
};

}  // namespace lego::cov

/// Instrumentation probe: drop one at each interesting control-flow point in
/// the target engine. The id is a compile-time hash of file:line, so probe
/// identity is stable across runs.
#define LEGO_COV()                                                       \
  do {                                                                   \
    constexpr uint64_t _lego_cov_id =                                    \
        ::lego::HashMix(::lego::Fnv1a64(__FILE__), __LINE__);            \
    ::lego::cov::CoverageRuntime::Hit(_lego_cov_id);                     \
  } while (0)

/// Probe variant keyed by a runtime value (e.g. statement type), so distinct
/// dispatch targets at one source line count as distinct branches.
#define LEGO_COV_KEYED(key)                                              \
  do {                                                                   \
    constexpr uint64_t _lego_cov_id =                                    \
        ::lego::HashMix(::lego::Fnv1a64(__FILE__), __LINE__);            \
    ::lego::cov::CoverageRuntime::Hit(                                   \
        ::lego::HashMix(_lego_cov_id, static_cast<uint64_t>(key)));      \
  } while (0)

#endif  // LEGO_COVERAGE_COVERAGE_H_
