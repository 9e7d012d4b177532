#ifndef LEGO_BASELINES_SQUIRREL_LIKE_H_
#define LEGO_BASELINES_SQUIRREL_LIKE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "lego/ast_library.h"
#include "lego/instantiator.h"
#include "lego/mutation.h"

namespace lego::baselines {

/// SQUIRREL-style coverage-guided mutation fuzzer: selects seeds from a
/// corpus and applies syntax-preserving, semantics-guided mutation to the
/// structure/data *inside* individual statements. The SQL Type Sequence of
/// a seed never changes (paper §II/§V-C), which is precisely the limitation
/// LEGO removes.
class SquirrelLikeFuzzer : public fuzz::Fuzzer {
 public:
  explicit SquirrelLikeFuzzer(const minidb::DialectProfile& profile,
                              uint64_t rng_seed = 13);

  std::string name() const override { return "squirrel"; }
  void Prepare(fuzz::ExecutionHarness* harness) override;
  fuzz::TestCase Next() override;
  void OnResult(const fuzz::TestCase& tc,
                const fuzz::ExecResult& result) override;
  void ImportSeed(const fuzz::TestCase& tc) override;
  std::vector<fuzz::TestCase> ExportCorpus() const override {
    std::vector<fuzz::TestCase> out;
    out.reserve(corpus_.size());
    for (const fuzz::Seed& seed : corpus_.seeds()) {
      out.push_back(seed.test_case.Clone());
    }
    return out;
  }

  /// Corpus-and-RNG checkpointing (this baseline learns nothing else).
  Status SaveState(persist::StateWriter* w) const override;
  Status LoadState(persist::StateReader* r) override;
  fuzz::FuzzerStats stats() const override {
    fuzz::FuzzerStats s;
    s.corpus_seeds = corpus_.size();
    return s;
  }

  size_t corpus_size() const { return corpus_.size(); }

 private:
  const minidb::DialectProfile& profile_;
  uint64_t rng_seed_;
  Rng rng_;
  core::AstLibrary library_;
  core::Instantiator instantiator_;
  core::SequenceMutator mutator_;
  fuzz::Corpus corpus_;
  std::deque<fuzz::TestCase> replay_queue_;
  const fuzz::Seed* current_seed_ = nullptr;
};

}  // namespace lego::baselines

#endif  // LEGO_BASELINES_SQUIRREL_LIKE_H_
