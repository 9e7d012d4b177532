#ifndef LEGO_COVERAGE_RULE_COVERAGE_H_
#define LEGO_COVERAGE_RULE_COVERAGE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sql/grammar_coverage.h"
#include "util/status.h"

namespace lego::persist {
class StateWriter;
class StateReader;
}  // namespace lego::persist

namespace lego::cov {

/// Grammar-rule coverage map for one parse: a binary hit-set with one byte
/// per parser production (see sql/grammar_coverage.h). Unlike the edge map
/// there is no hit-count bucketing — firing a production at all is the
/// signal — so merging is a plain OR and the map is a few hundred bytes.
class RuleMap {
 public:
  RuleMap() { Reset(); }

  void Reset() { map_.fill(0); }

  /// Number of rules hit.
  size_t CountNonZero() const {
    size_t n = 0;
    for (uint8_t c : map_) n += (c != 0);
    return n;
  }

  bool Covers(sql::GrammarRule rule) const {
    return map_[static_cast<size_t>(rule)] != 0;
  }

  /// Indices of all rules hit, ascending — the corpus scheduler stores this
  /// compact form per seed.
  std::vector<uint16_t> HitRules() const {
    std::vector<uint16_t> out;
    for (size_t i = 0; i < map_.size(); ++i) {
      if (map_[i] != 0) out.push_back(static_cast<uint16_t>(i));
    }
    return out;
  }

  uint8_t* data() { return map_.data(); }
  const uint8_t* data() const { return map_.data(); }
  static constexpr size_t size() { return sql::kNumGrammarRules; }

 private:
  std::array<uint8_t, sql::kNumGrammarRules> map_;
};

/// Parses `sql_text` with rule probes routed into `map` (which is Reset
/// first). Returns false if the script does not parse; the map then holds
/// whatever rules fired before the error.
bool CollectRules(std::string_view sql_text, RuleMap* map);

/// Accumulated rule coverage across a campaign; the rule-count analogue of
/// GlobalCoverage.
class GlobalRuleCoverage {
 public:
  GlobalRuleCoverage() { Reset(); }

  void Reset() {
    virgin_.fill(0);
    covered_rules_ = 0;
  }

  /// Merges `run`; returns true if any previously-unseen rule appeared.
  bool MergeDetectNew(const RuleMap& run) {
    bool new_cov = false;
    const uint8_t* rd = run.data();
    for (size_t i = 0; i < RuleMap::size(); ++i) {
      if (rd[i] != 0 && virgin_[i] == 0) {
        virgin_[i] = 1;
        ++covered_rules_;
        new_cov = true;
      }
    }
    return new_cov;
  }

  size_t CoveredRules() const { return covered_rules_; }

  bool Covers(sql::GrammarRule rule) const {
    return virgin_[static_cast<size_t>(rule)] != 0;
  }

  /// Checkpointing: the full hit-set round-trips; the counter is recomputed
  /// on load (derived state).
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  std::array<uint8_t, sql::kNumGrammarRules> virgin_;
  size_t covered_rules_;
};

}  // namespace lego::cov

#endif  // LEGO_COVERAGE_RULE_COVERAGE_H_
