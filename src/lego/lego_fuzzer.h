#ifndef LEGO_LEGO_LEGO_FUZZER_H_
#define LEGO_LEGO_LEGO_FUZZER_H_

#include <deque>
#include <memory>
#include <string>

#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "lego/affinity.h"
#include "lego/ast_library.h"
#include "lego/instantiator.h"
#include "lego/mutation.h"
#include "lego/synthesis.h"

namespace lego::core {

/// Configuration for LEGO and its ablation.
struct LegoOptions {
  /// Maximum synthesized sequence length (the paper's LEN; §VI studies
  /// 3/5/8 and settles on 5).
  int max_sequence_length = 5;
  /// When false, proactive affinity analysis and progressive sequence
  /// synthesis are disabled together (the paper's LEGO- ablation — they are
  /// tightly coupled, §V-D).
  bool sequence_algorithms_enabled = true;
  /// Each synthesized sequence is instantiated this many times (§III-B:
  /// randomness in structure selection adds diversity).
  int instantiations_per_sequence = 2;
  /// Per-affinity cap on sequences consumed from the synthesizer.
  int max_sequences_per_affinity = 96;
  /// Pending-work queue bound.
  size_t max_queue = 16384;
  uint64_t rng_seed = 1;
};

/// The LEGO fuzzer (paper Fig. 4): each iteration proactively explores
/// type-affinities with sequence-oriented mutation, then exploits newly
/// discovered affinities by progressively synthesizing sequence-enriched
/// test cases and instantiating them against the AST-skeleton library.
class LegoFuzzer : public fuzz::Fuzzer {
 public:
  LegoFuzzer(const minidb::DialectProfile& profile, LegoOptions options);

  std::string name() const override {
    return options_.sequence_algorithms_enabled ? "lego" : "lego-";
  }
  void Prepare(fuzz::ExecutionHarness* harness) override;
  fuzz::TestCase Next() override;
  void OnResult(const fuzz::TestCase& tc,
                const fuzz::ExecResult& result) override;
  void ImportSeed(const fuzz::TestCase& tc) override;
  std::vector<fuzz::TestCase> ExportCorpus() const override;

  /// Serializes every mutable member — RNG stream, AST library, affinity
  /// map, synthesizer S (PS is rebuilt), corpus with scheduling state, the
  /// pending queue, deferred foreign affinities, the in-flight seed (as a
  /// corpus index) and the mutation cursor. Configuration (options_) is
  /// written as a fingerprint and verified on load, not restored: a resumed
  /// campaign must be constructed with the same options.
  Status SaveState(persist::StateWriter* w) const override;
  Status LoadState(persist::StateReader* r) override;
  fuzz::FuzzerStats stats() const override;

  /// Affinities discovered so far (Table II / Table IV metric).
  const TypeAffinityMap& affinities() const { return affinity_map_; }
  const SequenceSynthesizer& synthesizer() const { return synthesizer_; }
  size_t corpus_size() const { return corpus_.size(); }

 private:
  void EnqueueSynthesized(sql::StatementType t1, sql::StatementType t2);

  const minidb::DialectProfile& profile_;
  LegoOptions options_;
  Rng rng_;
  AstLibrary library_;
  Instantiator instantiator_;
  SequenceMutator mutator_;
  TypeAffinityMap affinity_map_;
  SequenceSynthesizer synthesizer_;
  fuzz::Corpus corpus_;
  std::deque<fuzz::TestCase> queue_;
  /// Affinities learned from imported (cross-worker) seeds, synthesized
  /// lazily in Next() when the queue has room: eagerly instantiating every
  /// foreign affinity would synthesize far more test cases than a worker's
  /// budget can execute. Always empty in serial campaigns.
  std::deque<std::pair<sql::StatementType, sql::StatementType>>
      pending_foreign_affinities_;
  /// Seed whose mutants are in flight (attribution for scheduling).
  fuzz::Seed* current_seed_ = nullptr;
  size_t mutation_cursor_ = 0;
};

}  // namespace lego::core

#endif  // LEGO_LEGO_LEGO_FUZZER_H_
