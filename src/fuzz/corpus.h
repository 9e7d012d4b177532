#ifndef LEGO_FUZZ_CORPUS_H_
#define LEGO_FUZZ_CORPUS_H_

#include <cstdint>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

#include "coverage/rule_coverage.h"
#include "fuzz/testcase.h"
#include "persist/io.h"
#include "util/random.h"

namespace lego::fuzz {

/// One corpus entry with scheduling bookkeeping.
struct Seed {
  TestCase test_case;
  int id = 0;
  int times_selected = 0;
  int discoveries = 0;   // mutants of this seed that found new coverage
  bool favored = false;  // newly added seeds are favored until first pick
  /// Grammar rules this seed's SQL exercises (ascending rule indices).
  /// Populated only under rule weighting; derived state, not serialized.
  std::vector<uint16_t> rules;
  /// Sum over `rules` of 1/holders(rule), as of the last weighted pick.
  /// Derived state kept by the corpus, not serialized.
  double rarity = 0.0;
};

/// The seed pool. Selection is energy-based: favored (fresh) seeds first,
/// then a weighted pick that prefers productive and under-fuzzed seeds —
/// the scheduling half of an AFL-style mutation loop.
///
/// Pointer-stability contract: every `Seed*` returned by Add()/Select()
/// stays valid for the lifetime of the Corpus, across any number of later
/// Add() calls — seeds live in a deque, whose push_back never relocates
/// existing elements. Debug builds verify this on every Add().
///
/// Threading contract: a Corpus belongs to exactly ONE worker thread; none
/// of its methods are thread-safe, and handed-out `Seed*` must not be
/// touched from other threads. Debug builds assert single-thread use.
/// Seeds move between fleet workers as exported corpora, never by sharing
/// a Corpus.
class Corpus {
 public:
  /// Adds a seed (typically one whose execution covered new branches).
  /// `rules`, when given, must be the seed's rule set as
  /// cov::CollectRules(tc.ToSql()) records it (ExecResult::hit_rules); under
  /// rule weighting it saves parsing the seed again.
  Seed* Add(TestCase tc, const cov::RuleSet* rules = nullptr);

  /// Picks the next seed to mutate. Returns nullptr when empty.
  Seed* Select(Rng* rng);

  /// Rarity-weighted scheduling on the grammar-rule signal: when enabled,
  /// Select() multiplies each seed's energy by (1 + sum over its rules of
  /// 1/holders(rule)), so seeds exercising productions few other seeds reach
  /// get picked more often. Deterministic — rule sets are derived from seed
  /// SQL, never from RNG — and fully inert when disabled (Select() is then
  /// byte-identical to the unweighted scheduler). Enabling recomputes rule
  /// sets for seeds already in the pool, so the weighting is independent of
  /// when the flag was flipped. Each seed's rarity sum is cached and
  /// recomputed, for every seed and in the same rule order, at the first
  /// weighted pick after the holder counts changed, so the weights are the
  /// same doubles a recomputation on every pick would give.
  void set_rule_weighting(bool enabled);
  bool rule_weighting() const { return rule_weighting_; }

  size_t size() const { return seeds_.size(); }
  bool empty() const { return seeds_.empty(); }
  const std::deque<Seed>& seeds() const { return seeds_; }

  /// Position of a handed-out seed pointer, -1 for nullptr. Lets owners
  /// checkpoint "which seed is in flight" as an index and rehydrate the
  /// pointer after LoadState.
  int IndexOf(const Seed* seed) const;
  /// Owners may update `discoveries` through this pointer; `favored` is
  /// the corpus's own (see favored_cursor_).
  Seed* at(size_t index) { return &seeds_[index]; }

  /// Checkpointing: test cases plus all scheduling bookkeeping (ids,
  /// selection counts, discoveries, favored flags) and the id allocator —
  /// everything Select() consults, so a resumed schedule is identical.
  /// LoadState replaces the whole pool; previously handed-out Seed*
  /// pointers are invalidated (debug tracking is reset accordingly).
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  /// Debug-only enforcement of the two contracts (no-op in NDEBUG builds).
  void DebugCheckContract();

  /// Fills `seed->rules` from `known` or, when null, by parsing its SQL, and
  /// bumps the per-rule holder counts.
  void ComputeRules(Seed* seed, const cov::RuleSet* known = nullptr);

  std::deque<Seed> seeds_;
  int next_id_ = 0;
  bool rule_weighting_ = false;
  /// holders[r] = number of seeds whose rule set contains rule r.
  std::vector<uint32_t> rule_holders_;
  /// The holder counts changed since the cached rarities were computed.
  bool rarity_stale_ = false;
  /// Every seed before this index is unfavored: seeds become favored only
  /// when appended (or loaded, which rewinds the cursor) and stay so until
  /// their first pick.
  size_t favored_cursor_ = 0;
  /// Select()'s weight per seed, kept to reuse its allocation.
  std::vector<double> weights_;
#ifndef NDEBUG
  /// Every pointer ever handed out by Add(), with the id it pointed at.
  std::vector<std::pair<const Seed*, int>> handed_out_;
  std::thread::id owner_{};
#endif
};

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_CORPUS_H_
