#ifndef LEGO_FUZZ_FUZZER_H_
#define LEGO_FUZZ_FUZZER_H_

#include <memory>
#include <string>

#include "fuzz/harness.h"
#include "fuzz/testcase.h"
#include "persist/io.h"

namespace lego::fuzz {

/// Introspection counters a fuzzer can expose for campaign summaries.
/// Fuzzers without a given notion report zero.
struct FuzzerStats {
  size_t corpus_seeds = 0;
  /// Type-affinity pairs discovered (LEGO's Table II metric).
  size_t affinity_pairs = 0;
  /// SQL type sequences synthesized so far (LEGO's |S|).
  size_t sequences_total = 0;
  /// Sequences silently discarded at the synthesizer's kMaxSequences cap.
  size_t sequences_dropped = 0;
};

/// Common interface for all fuzzers (LEGO, LEGO-, and the baselines). The
/// campaign driver alternates Next() / OnResult() so every fuzzer pays the
/// same per-execution accounting.
class Fuzzer {
 public:
  virtual ~Fuzzer() = default;

  /// Display name ("lego", "squirrel", ...).
  virtual std::string name() const = 0;

  /// Called once before the campaign; load seeds, set up generators.
  virtual void Prepare(ExecutionHarness* harness) = 0;

  /// Produces the next test case to execute.
  virtual TestCase Next() = 0;

  /// Feedback for the test case most recently returned by Next().
  virtual void OnResult(const TestCase& tc, const ExecResult& result) = 0;

  /// A new-coverage test case discovered by another worker. Feedback-driven
  /// fuzzers adopt it into their corpus exactly like a local discovery
  /// (minus scheduling attribution); generation-based fuzzers ignore it.
  virtual void ImportSeed(const TestCase& tc) { (void)tc; }

  /// Clones of every corpus seed, in corpus order — the raw material for
  /// cross-campaign reuse (corpus export files, `corpus_cli distill`).
  /// Generation-based fuzzers keep no corpus and return the default empty
  /// vector.
  virtual std::vector<TestCase> ExportCorpus() const { return {}; }

  /// Checkpointing seam: serializes every piece of mutable fuzzer state —
  /// corpus, learned structures, RNG streams, scheduling cursors, pending
  /// queues — such that LoadState on a freshly constructed+Prepared fuzzer
  /// of the same configuration continues the campaign bit-identically to
  /// one that never stopped. The default refuses, which makes fuzzers
  /// without serialization fail --state-dir campaigns loudly instead of
  /// resuming with silently reset state.
  virtual Status SaveState(persist::StateWriter* w) const {
    (void)w;
    return Status::Unsupported(name() + ": state serialization not supported");
  }
  virtual Status LoadState(persist::StateReader* r) {
    (void)r;
    return Status::Unsupported(name() + ": state serialization not supported");
  }

  /// Snapshot of the fuzzer's introspection counters.
  virtual FuzzerStats stats() const { return {}; }
};

}  // namespace lego::fuzz

#endif  // LEGO_FUZZ_FUZZER_H_
