#include "baselines/squirrel_like.h"

#include "fuzz/seeds.h"
#include "fuzz/state.h"

namespace lego::baselines {

namespace {
constexpr uint32_t kSquirrelTag = persist::ChunkTag("SQRL");
}  // namespace

SquirrelLikeFuzzer::SquirrelLikeFuzzer(const minidb::DialectProfile& profile,
                                       uint64_t rng_seed)
    : profile_(profile),
      rng_seed_(rng_seed),
      rng_(rng_seed),
      instantiator_(&profile, &library_, &rng_),
      mutator_(&profile, &instantiator_, &rng_, /*fancy_selects=*/false) {}

void SquirrelLikeFuzzer::Prepare(fuzz::ExecutionHarness* harness) {
  corpus_.set_rule_weighting(harness->rule_coverage());
  for (const std::string& script : fuzz::SeedScriptsFor(profile_.name)) {
    auto tc = fuzz::TestCase::FromSql(script);
    if (tc.ok()) replay_queue_.push_back(std::move(*tc));
  }
}

fuzz::TestCase SquirrelLikeFuzzer::Next() {
  if (!replay_queue_.empty()) {
    fuzz::TestCase tc = std::move(replay_queue_.front());
    replay_queue_.pop_front();
    return tc;
  }
  fuzz::Seed* seed = corpus_.Select(&rng_);
  if (seed == nullptr) {
    // Degenerate cold start (no seeds parsed): a trivial probe.
    auto tc = fuzz::TestCase::FromSql("SELECT 1;");
    return tc.ok() ? std::move(*tc) : fuzz::TestCase();
  }
  current_seed_ = seed;
  return mutator_.ConventionalMutate(seed->test_case);
}

void SquirrelLikeFuzzer::OnResult(const fuzz::TestCase& tc,
                                  const fuzz::ExecResult& result) {
  if (!result.new_coverage && !result.new_rules) return;
  corpus_.Add(tc.Clone(),
              result.hit_rules ? &*result.hit_rules : nullptr);
  library_.AddTestCase(tc);
  if (current_seed_ != nullptr) ++current_seed_->discoveries;
}

void SquirrelLikeFuzzer::ImportSeed(const fuzz::TestCase& tc) {
  // Foreign new-coverage seeds enter the mutation pool like local ones.
  corpus_.Add(tc.Clone());
  library_.AddTestCase(tc);
}

Status SquirrelLikeFuzzer::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kSquirrelTag);
  w->WriteU64(rng_seed_);
  fuzz::SaveRng(rng_, w);
  LEGO_RETURN_IF_ERROR(library_.SaveState(w));
  LEGO_RETURN_IF_ERROR(corpus_.SaveState(w));
  fuzz::SaveTestCaseQueue(replay_queue_, w);
  w->WriteI64(corpus_.IndexOf(current_seed_));
  w->EndChunk();
  return Status::OK();
}

Status SquirrelLikeFuzzer::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kSquirrelTag));
  uint64_t rng_seed = r->ReadU64();
  if (r->ok() && rng_seed != rng_seed_) {
    return Status::InvalidArgument(
        "squirrel state saved under a different rng seed");
  }
  LEGO_RETURN_IF_ERROR(fuzz::LoadRng(r, &rng_));
  LEGO_RETURN_IF_ERROR(library_.LoadState(r));
  LEGO_RETURN_IF_ERROR(corpus_.LoadState(r));
  LEGO_RETURN_IF_ERROR(fuzz::LoadTestCaseQueue(r, &replay_queue_));
  int64_t seed_index = r->ReadI64();
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  if (seed_index >= static_cast<int64_t>(corpus_.size()) || seed_index < -1) {
    return Status::InvalidArgument("in-flight seed index out of range");
  }
  current_seed_ =
      seed_index < 0 ? nullptr : corpus_.at(static_cast<size_t>(seed_index));
  return Status::OK();
}

}  // namespace lego::baselines
