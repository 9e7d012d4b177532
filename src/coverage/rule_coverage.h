#ifndef LEGO_COVERAGE_RULE_COVERAGE_H_
#define LEGO_COVERAGE_RULE_COVERAGE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sql/ast.h"
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

/// The same hit-set as RuleMap in one bit per rule (172 rules fit in three
/// words), for the memo and the per-case result.
class RuleSet {
 public:
  static constexpr size_t kWords = (sql::kNumGrammarRules + 63) / 64;

  RuleSet() = default;
  explicit RuleSet(const RuleMap& map) {
    const uint8_t* d = map.data();
    for (size_t i = 0; i < RuleMap::size(); ++i) {
      if (d[i] != 0) words_[i / 64] |= uint64_t{1} << (i % 64);
    }
  }

  bool Covers(size_t rule) const {
    return ((words_[rule / 64] >> (rule % 64)) & 1) != 0;
  }
  void UnionWith(const RuleSet& other) {
    for (size_t w = 0; w < kWords; ++w) words_[w] |= other.words_[w];
  }

  /// Indices of all rules hit, ascending (RuleMap::HitRules' order).
  std::vector<uint16_t> HitRules() const {
    std::vector<uint16_t> out;
    for (size_t w = 0; w < kWords; ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        out.push_back(static_cast<uint16_t>(w * 64 + std::countr_zero(bits)));
      }
    }
    return out;
  }

  bool operator==(const RuleSet& other) const = default;

 private:
  std::array<uint64_t, kWords> words_{};
};

/// Parses `sql_text` with rule probes routed into `map` (which is Reset
/// first). Returns false if the script does not parse; the map then holds
/// whatever rules fired before the error.
bool CollectRules(std::string_view sql_text, RuleMap* map);

/// CollectRules over a test case's script rendering, memoized per
/// statement. The parser keeps no state from one statement to the next, so
/// the rules a script fires are the union of what each `stmt;\n` chunk
/// fires when parsed alone — provided every chunk parses alone into exactly
/// one statement. Collect() unions memoized chunk sets when that holds and
/// falls back to CollectRules over the whole script otherwise (an empty
/// case, or any chunk that fails alone), so its result always equals
/// CollectRules(script). Fuzzers mutate one statement of a seed at a time,
/// so most chunks of a case were parsed before. The memo is cleared when it
/// reaches kMaxEntries.
class RuleCollector {
 public:
  static constexpr size_t kMaxEntries = 16384;

  /// The rules CollectRules would record for `statements` printed as a
  /// script, each followed by ";\n" (TestCase::ToSql's rendering).
  RuleSet Collect(const std::vector<sql::StmtPtr>& statements);

  size_t memo_size() const { return memo_.size(); }
  /// Chunks answered from the memo, and chunks parsed alone.
  uint64_t memo_hits() const { return memo_hits_; }
  uint64_t memo_misses() const { return memo_misses_; }

 private:
  struct Chunk {
    RuleSet rules;
    bool alone_ok = false;  // parses alone into exactly one statement
  };
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  std::unordered_map<std::string, Chunk, TextHash, std::equal_to<>> memo_;
  std::string script_;            // scratch: the case's rendering
  std::vector<size_t> chunk_ends_;  // scratch: end offset of each chunk
  uint64_t memo_hits_ = 0;
  uint64_t memo_misses_ = 0;
};

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
  bool MergeDetectNew(const RuleSet& run) {
    bool new_cov = false;
    for (size_t i = 0; i < RuleMap::size(); ++i) {
      if (run.Covers(i) && virgin_[i] == 0) {
        virgin_[i] = 1;
        ++covered_rules_;
        new_cov = true;
      }
    }
    return new_cov;
  }
  bool MergeDetectNew(const RuleMap& run) {
    return MergeDetectNew(RuleSet(run));
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
