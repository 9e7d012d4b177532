#ifndef LEGO_BASELINES_SQLSMITH_LIKE_H_
#define LEGO_BASELINES_SQLSMITH_LIKE_H_

#include <memory>
#include <string>

#include "fuzz/fuzzer.h"
#include "lego/generator.h"

namespace lego::baselines {

/// SQLsmith-style generation-based fuzzer: emits one syntactically rich
/// SELECT per test case against a pre-populated schema, never mutating the
/// database (the original mostly generates SELECTs to keep the database
/// unchanged, paper §VII). Its test cases therefore contain a single-entry
/// SQL Type Sequence and no type-affinities.
class SqlsmithLikeFuzzer : public fuzz::Fuzzer {
 public:
  explicit SqlsmithLikeFuzzer(const minidb::DialectProfile& profile,
                              uint64_t rng_seed = 7);

  std::string name() const override { return "sqlsmith"; }
  void Prepare(fuzz::ExecutionHarness* harness) override;
  fuzz::TestCase Next() override;
  void OnResult(const fuzz::TestCase& tc,
                const fuzz::ExecResult& result) override {
    (void)tc;
    (void)result;  // generation-based: no feedback loop
  }

  /// Generation-based: RNG stream plus the symbolic schema context (whose
  /// fresh-name counter advances during generation).
  Status SaveState(persist::StateWriter* w) const override;
  Status LoadState(persist::StateReader* r) override;

 private:
  const minidb::DialectProfile& profile_;
  uint64_t rng_seed_;
  Rng rng_;
  core::StatementGenerator generator_;
  core::SchemaContext schema_;
};

}  // namespace lego::baselines

#endif  // LEGO_BASELINES_SQLSMITH_LIKE_H_
