#include "fuzz/corpus.h"

#include <cassert>
#include <utility>

#include "coverage/rule_coverage.h"
#include "fuzz/state.h"

namespace lego::fuzz {

namespace {
constexpr uint32_t kCorpusTag = persist::ChunkTag("CORP");
}  // namespace

void Corpus::DebugCheckContract() {
#ifndef NDEBUG
  // First caller claims the corpus; every later call must come from the
  // same thread (one Corpus per worker).
  if (owner_ == std::thread::id()) owner_ = std::this_thread::get_id();
  assert(owner_ == std::this_thread::get_id() &&
         "Corpus is single-threaded");
  // Every Seed* ever handed out must still point at the seed it named.
  for (const auto& [ptr, id] : handed_out_) {
    assert(ptr->id == id && "Seed* invalidated by corpus growth");
  }
#endif
}

void Corpus::ComputeRules(Seed* seed) {
  cov::RuleMap map;
  cov::CollectRules(seed->test_case.ToSql(), &map);
  seed->rules = map.HitRules();
  if (rule_holders_.size() < cov::RuleMap::size()) {
    rule_holders_.resize(cov::RuleMap::size(), 0);
  }
  for (uint16_t r : seed->rules) ++rule_holders_[r];
}

void Corpus::set_rule_weighting(bool enabled) {
  if (enabled == rule_weighting_) return;
  rule_weighting_ = enabled;
  rule_holders_.clear();
  for (Seed& seed : seeds_) seed.rules.clear();
  if (enabled) {
    for (Seed& seed : seeds_) ComputeRules(&seed);
  }
}

Seed* Corpus::Add(TestCase tc) {
  DebugCheckContract();
  Seed seed;
  seed.test_case = std::move(tc);
  seed.id = next_id_++;
  seed.favored = true;
  seeds_.push_back(std::move(seed));
  Seed* added = &seeds_.back();
  if (rule_weighting_) ComputeRules(added);
#ifndef NDEBUG
  handed_out_.emplace_back(added, added->id);
#endif
  return added;
}

Seed* Corpus::Select(Rng* rng) {
  DebugCheckContract();
  if (seeds_.empty()) return nullptr;
  // Favored (never-picked) seeds first, oldest first.
  for (Seed& seed : seeds_) {
    if (seed.favored) {
      seed.favored = false;
      ++seed.times_selected;
      return &seed;
    }
  }
  // Weighted pick: productive seeds weigh more, over-fuzzed ones less.
  std::vector<double> weights(seeds_.size());
  double total = 0.0;
  for (size_t i = 0; i < seeds_.size(); ++i) {
    const Seed& s = seeds_[i];
    double w = 1.0 + 2.0 * s.discoveries;
    w /= 1.0 + 0.25 * s.times_selected;
    if (rule_weighting_) {
      // Rarity boost: a rule held by few seeds contributes up to 1.0 to the
      // multiplier; ubiquitous rules contribute ~1/corpus-size each.
      double rarity = 0.0;
      for (uint16_t r : s.rules) rarity += 1.0 / rule_holders_[r];
      w *= 1.0 + rarity;
    }
    weights[i] = w;
    total += w;
  }
  double pick = rng->NextDouble() * total;
  for (size_t i = 0; i < seeds_.size(); ++i) {
    pick -= weights[i];
    if (pick <= 0.0) {
      ++seeds_[i].times_selected;
      return &seeds_[i];
    }
  }
  ++seeds_.back().times_selected;
  return &seeds_.back();
}

int Corpus::IndexOf(const Seed* seed) const {
  if (seed == nullptr) return -1;
  for (size_t i = 0; i < seeds_.size(); ++i) {
    if (&seeds_[i] == seed) return static_cast<int>(i);
  }
  return -1;
}

Status Corpus::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kCorpusTag);
  w->WriteI64(next_id_);
  w->WriteU64(seeds_.size());
  for (const Seed& seed : seeds_) {
    SaveTestCase(seed.test_case, w);
    w->WriteI64(seed.id);
    w->WriteI64(seed.times_selected);
    w->WriteI64(seed.discoveries);
    w->WriteBool(seed.favored);
  }
  w->EndChunk();
  return Status::OK();
}

Status Corpus::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kCorpusTag));
  int next_id = static_cast<int>(r->ReadI64());
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  std::deque<Seed> seeds;
  for (uint64_t i = 0; i < n; ++i) {
    Seed seed;
    LEGO_ASSIGN_OR_RETURN(seed.test_case, LoadTestCase(r));
    seed.id = static_cast<int>(r->ReadI64());
    seed.times_selected = static_cast<int>(r->ReadI64());
    seed.discoveries = static_cast<int>(r->ReadI64());
    seed.favored = r->ReadBool();
    seeds.push_back(std::move(seed));
  }
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  seeds_ = std::move(seeds);
  next_id_ = next_id;
  // Rule sets are derived state: rebuild them for the new pool so a resumed
  // schedule weighs seeds exactly like an uninterrupted one.
  rule_holders_.clear();
  if (rule_weighting_) {
    for (Seed& seed : seeds_) ComputeRules(&seed);
  }
#ifndef NDEBUG
  // The pool was replaced wholesale: old Seed* are dead, and the corpus may
  // now be adopted by whichever thread resumes the campaign.
  handed_out_.clear();
  owner_ = std::thread::id();
#endif
  return Status::OK();
}

}  // namespace lego::fuzz
