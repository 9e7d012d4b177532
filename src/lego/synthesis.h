#ifndef LEGO_LEGO_SYNTHESIS_H_
#define LEGO_LEGO_SYNTHESIS_H_

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "lego/affinity.h"
#include "persist/io.h"
#include "sql/statement_type.h"

namespace lego::core {

/// Progressive sequence synthesis (paper §III-B, Algorithm 3).
///
/// Maintains the paper's data structures:
///  - S:  every synthesized SQL Type Sequence (length <= LEN);
///  - PS: the Prefix Sequence index, mapping (ending type, length) to the
///        indexes in S of sequences with that ending type and length.
///
/// When a new affinity t1 -> t2 is discovered, only the *new* sequences that
/// contain it are enumerated: every known prefix ending in t1 is extended
/// with t2 and then expanded with all known affinities up to LEN.
///
/// S is stored flat, every sequence's types back to back, so a sequence
/// costs its length in bytes plus one end offset and one PS index: at the
/// kMaxSequences cap with LEN 5, S and PS hold about 1.4 MB where a vector
/// per sequence held about 8.8 MB. OnNewAffinity() hands back a count, not
/// copies, so a call that synthesizes many sequences allocates nothing
/// beyond S itself.
class SequenceSynthesizer {
 public:
  /// Hard cap on |S|; prevents the combinatorial blow-up the paper's C1
  /// identifies from exhausting memory at dense affinity maps.
  static constexpr size_t kMaxSequences = 200000;

  explicit SequenceSynthesizer(int max_len) : max_len_(max_len) {}

  /// Registers a starting statement type: seeds S with the length-1
  /// sequence [t] so prefixes ending in t exist.
  void AddStartType(sql::StatementType t);

  /// Algorithm 3. Appends the sequences newly synthesized for affinity
  /// t1 -> t2 (each has length in [2, LEN]) to S and returns how many there
  /// are: they are the last that many of S, in synthesis order.
  /// `affinities` is the paper's T.
  size_t OnNewAffinity(sql::StatementType t1, sql::StatementType t2,
                       const TypeAffinityMap& affinities);

  /// Total sequences synthesized so far (including length-1 roots).
  size_t TotalSequences() const { return ends_.size(); }

  /// Sequence `i` of S, in synthesis order; valid until the next call that
  /// adds to S.
  std::span<const sql::StatementType> sequence(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return {types_.data() + begin, ends_[i] - begin};
  }

  /// Sequences discarded at the kMaxSequences cap. A nonzero value means S
  /// is saturated and further affinities synthesize nothing — previously
  /// this happened silently; campaigns now surface it in their summary.
  size_t dropped_sequences() const { return dropped_; }

  int max_len() const { return max_len_; }

  /// Checkpointing: S and the drop counter round-trip; PS is derived state,
  /// rebuilt from S in the same insertion order Record() used. max_len is
  /// configuration and only verified.
  Status SaveState(persist::StateWriter* w) const;
  Status LoadState(persist::StateReader* r);

 private:
  /// Appends `seq` to S and records it in PS. Returns false at the cap.
  bool Record(const std::vector<sql::StatementType>& seq);

  /// Paper's listSeq: depth-first expansion of `seq` (ending in nodeType,
  /// length `level`) with every known affinity, recording each extension.
  void ListSeq(int level, sql::StatementType node_type,
               std::vector<sql::StatementType>* seq,
               const TypeAffinityMap& affinities);

  int max_len_;
  size_t dropped_ = 0;  // sequences refused at kMaxSequences
  // S: sequence i is types_[ends_[i - 1], ends_[i]) (from 0 when i == 0).
  std::vector<sql::StatementType> types_;
  std::vector<uint32_t> ends_;
  // PS: (type, length) -> indexes into S.
  std::map<std::pair<sql::StatementType, int>, std::vector<uint32_t>> prefix_;
};

}  // namespace lego::core

#endif  // LEGO_LEGO_SYNTHESIS_H_
