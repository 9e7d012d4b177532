#ifndef LEGO_BASELINES_SQLANCER_LIKE_H_
#define LEGO_BASELINES_SQLANCER_LIKE_H_

#include <memory>
#include <string>

#include "fuzz/fuzzer.h"
#include "lego/generator.h"

namespace lego::baselines {

/// SQLancer-style rule-based fuzzer (PQS flavor): every test case follows a
/// fixed template — create a table, optionally index it, insert rows, then
/// issue pivot-style SELECTs whose WHERE predicates target an inserted row.
/// The rules produce limited SQL Type Sequences (paper §V-C): only
/// CREATE TABLE / CREATE INDEX / INSERT / SELECT combinations.
class SqlancerLikeFuzzer : public fuzz::Fuzzer {
 public:
  explicit SqlancerLikeFuzzer(const minidb::DialectProfile& profile,
                              uint64_t rng_seed = 11);

  std::string name() const override { return "sqlancer"; }
  void Prepare(fuzz::ExecutionHarness* harness) override { (void)harness; }
  fuzz::TestCase Next() override;
  void OnResult(const fuzz::TestCase& tc,
                const fuzz::ExecResult& result) override {
    (void)tc;
    (void)result;  // rule-based: no feedback loop
  }

  /// Rule-based: the RNG stream is the entire mutable state.
  Status SaveState(persist::StateWriter* w) const override;
  Status LoadState(persist::StateReader* r) override;

 private:
  const minidb::DialectProfile& profile_;
  uint64_t rng_seed_;
  Rng rng_;
  core::StatementGenerator generator_;
};

}  // namespace lego::baselines

#endif  // LEGO_BASELINES_SQLANCER_LIKE_H_
