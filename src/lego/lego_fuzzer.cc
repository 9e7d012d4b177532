#include "lego/lego_fuzzer.h"

#include <algorithm>
#include <utility>

#include "fuzz/seeds.h"
#include "fuzz/state.h"

namespace lego::core {
namespace {

/// Each synthesized sequence is instantiated this many times (§III-B:
/// randomness in structure selection adds diversity).
constexpr int kInstantiationsPerSequence = 2;
/// Per-affinity cap on sequences consumed from the synthesizer.
constexpr int kMaxSequencesPerAffinity = 96;
/// Bound on queued entries, counting deferred instantiations and
/// materialized cases alike. Synthesis stops enqueueing at the bound.
constexpr size_t kMaxQueue = 16384;

}  // namespace

LegoFuzzer::LegoFuzzer(const minidb::DialectProfile& profile,
                       LegoOptions options)
    : profile_(profile),
      options_(options),
      rng_(options.rng_seed),
      library_(),
      instantiator_(&profile, &library_, &rng_),
      mutator_(&profile, &instantiator_, &rng_),
      synthesizer_(options.max_sequence_length) {
  // Every enabled type is a synthesis root: any type may start a sequence
  // (CREATE TABLE is the common case, but SET/PRAGMA/BEGIN prologues are
  // routine in real test cases).
  for (sql::StatementType t : profile_.EnabledTypes()) {
    synthesizer_.AddStartType(t);
  }
}

void LegoFuzzer::Prepare(fuzz::ExecutionHarness* harness) {
  // Scheduler follows the harness's feedback configuration: when the
  // grammar-rule signal is on, rare-rule seeds get extra energy.
  corpus_.set_rule_weighting(harness->rule_coverage());
  for (const std::string& script : fuzz::SeedScriptsFor(profile_.name)) {
    auto tc = fuzz::TestCase::FromSql(script);
    if (tc.ok()) queue_.emplace_back(std::move(*tc));
  }
}

fuzz::TestCase LegoFuzzer::PopQueue() {
  QueueEntry entry = std::move(queue_.front());
  queue_.pop_front();
  if (const auto* deferred = std::get_if<DeferredInstantiation>(&entry)) {
    return deferred->Instantiate(profile_);
  }
  return std::move(std::get<fuzz::TestCase>(entry));
}

size_t LegoFuzzer::deferred_in_queue() const {
  return std::count_if(queue_.begin(), queue_.end(), [](const QueueEntry& e) {
    return std::holds_alternative<DeferredInstantiation>(e);
  });
}

fuzz::TestCase LegoFuzzer::Next() {
  // Exploit one foreign affinity per iteration, and only while the queue is
  // shallow enough that its products can plausibly still be executed —
  // otherwise imported discoveries from fast neighbors would have this
  // worker synthesizing instead of fuzzing.
  if (!pending_foreign_affinities_.empty() &&
      queue_.size() < kMaxQueue / 2) {
    auto [t1, t2] = pending_foreign_affinities_.front();
    pending_foreign_affinities_.pop_front();
    EnqueueSynthesized(t1, t2);
  }
  // Interleave exploitation (synthesized/probe queue) with exploration
  // (mutating corpus seeds): draining the queue exclusively would starve
  // the proactive affinity analysis that feeds it.
  if (!queue_.empty() && (corpus_.empty() || rng_.NextBool(0.6))) {
    return PopQueue();
  }
  fuzz::Seed* seed = corpus_.Select(&rng_);
  if (seed == nullptr) {
    // Cold start: instantiate a short random sequence.
    std::vector<sql::StatementType> seq = {
        sql::StatementType::kCreateTable, sql::StatementType::kInsert,
        sql::StatementType::kSelect};
    return instantiator_.Instantiate(seq);
  }
  current_seed_ = seed;

  if (options_.sequence_algorithms_enabled && rng_.NextBool(0.5)) {
    // Step 1 (Fig. 4): proactive sequence-oriented mutation over one
    // statement position (Algorithm 1 produces the sub/ins/del probes).
    size_t position = mutation_cursor_++ % std::max<size_t>(1, seed->test_case.size());
    auto mutants =
        mutator_.SequenceOrientedMutants(seed->test_case, position);
    for (auto& m : mutants) queue_.emplace_back(std::move(m));
    if (!queue_.empty()) return PopQueue();
  }
  // Conventional syntax-preserving mutation on top of sequences (paper §II:
  // fine mutations deepen exploration once breadth is covered).
  return mutator_.ConventionalMutate(seed->test_case);
}

void LegoFuzzer::EnqueueSynthesized(sql::StatementType t1,
                                    sql::StatementType t2) {
  auto sequences = synthesizer_.OnNewAffinity(t1, t2, affinity_map_);
  // Enqueue breadth-first: short sequences first. The depth-first
  // enumeration order of Algorithm 3 would otherwise spend the whole
  // consumption cap on deep expansions of the first few successors.
  std::stable_sort(sequences.begin(), sequences.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() < b.size();
                   });
  // Instantiation waits until Next() dequeues the entry, so the many entries
  // a campaign never reaches cost a seed and a few pointers each. The
  // snapshot lets every entry of this call sample the library as it stands
  // now, as instantiating here would have.
  std::shared_ptr<const AstLibrary> snapshot;
  int consumed = 0;
  for (const auto& seq : sequences) {
    if (consumed >= kMaxSequencesPerAffinity) break;
    ++consumed;
    for (int k = 0; k < kInstantiationsPerSequence; ++k) {
      if (queue_.size() >= kMaxQueue) return;
      if (snapshot == nullptr) snapshot = library_.Snapshot();
      queue_.emplace_back(DeferredInstantiation{seq, rng_.Next(), snapshot});
    }
  }
}

void LegoFuzzer::ImportSeed(const fuzz::TestCase& tc) {
  // A foreign new-coverage seed is adopted like a local discovery — it
  // joins the corpus, donates its AST structures, and its affinities feed
  // progressive synthesis — minus the scheduling attribution (there is no
  // local parent seed to credit). Synthesis itself is deferred to Next()
  // so importing a whole corpus or pool stays cheap.
  corpus_.Add(tc.Clone());
  library_.AddTestCase(tc);
  if (!options_.sequence_algorithms_enabled) return;
  auto new_affinities = affinity_map_.Analyze(tc.TypeSequence());
  for (const auto& [t1, t2] : new_affinities) {
    pending_foreign_affinities_.emplace_back(t1, t2);
  }
}

std::vector<fuzz::TestCase> LegoFuzzer::ExportCorpus() const {
  std::vector<fuzz::TestCase> out;
  out.reserve(corpus_.size());
  for (const fuzz::Seed& seed : corpus_.seeds()) {
    out.push_back(seed.test_case.Clone());
  }
  return out;
}

namespace {
constexpr uint32_t kLegoTag = persist::ChunkTag("LEGF");
}  // namespace

Status LegoFuzzer::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kLegoTag);
  // Configuration fingerprint: verified on load so state is never resumed
  // into a differently-configured fuzzer.
  w->WriteI64(options_.max_sequence_length);
  w->WriteBool(options_.sequence_algorithms_enabled);
  w->WriteU64(options_.rng_seed);

  fuzz::SaveRng(rng_, w);
  LEGO_RETURN_IF_ERROR(library_.SaveState(w));
  LEGO_RETURN_IF_ERROR(affinity_map_.SaveState(w));
  LEGO_RETURN_IF_ERROR(synthesizer_.SaveState(w));
  LEGO_RETURN_IF_ERROR(corpus_.SaveState(w));
  // Same layout as fuzz::SaveTestCaseQueue.
  w->WriteU64(queue_.size());
  for (const QueueEntry& entry : queue_) {
    if (const auto* deferred = std::get_if<DeferredInstantiation>(&entry)) {
      fuzz::SaveTestCase(deferred->Instantiate(profile_), w);
    } else {
      fuzz::SaveTestCase(std::get<fuzz::TestCase>(entry), w);
    }
  }
  w->WriteU64(pending_foreign_affinities_.size());
  for (const auto& [t1, t2] : pending_foreign_affinities_) {
    w->WriteU8(static_cast<uint8_t>(t1));
    w->WriteU8(static_cast<uint8_t>(t2));
  }
  w->WriteI64(corpus_.IndexOf(current_seed_));
  w->WriteU64(mutation_cursor_);
  w->EndChunk();
  return Status::OK();
}

Status LegoFuzzer::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kLegoTag));
  int max_len = static_cast<int>(r->ReadI64());
  bool seq_enabled = r->ReadBool();
  uint64_t rng_seed = r->ReadU64();
  if (!r->ok()) return r->status();
  if (max_len != options_.max_sequence_length ||
      seq_enabled != options_.sequence_algorithms_enabled ||
      rng_seed != options_.rng_seed) {
    return Status::InvalidArgument(
        "lego state saved under a different configuration (max_len/"
        "sequence_algorithms/rng_seed mismatch)");
  }
  LEGO_RETURN_IF_ERROR(fuzz::LoadRng(r, &rng_));
  LEGO_RETURN_IF_ERROR(library_.LoadState(r));
  LEGO_RETURN_IF_ERROR(affinity_map_.LoadState(r));
  LEGO_RETURN_IF_ERROR(synthesizer_.LoadState(r));
  LEGO_RETURN_IF_ERROR(corpus_.LoadState(r));
  std::deque<fuzz::TestCase> queued;
  LEGO_RETURN_IF_ERROR(fuzz::LoadTestCaseQueue(r, &queued));
  queue_.clear();
  for (fuzz::TestCase& tc : queued) queue_.emplace_back(std::move(tc));
  uint64_t pending = r->ReadU64();
  if (!r->CheckCount(pending, 2)) return r->status();
  pending_foreign_affinities_.clear();
  constexpr uint8_t kNum = static_cast<uint8_t>(sql::StatementType::kNumTypes);
  for (uint64_t i = 0; i < pending; ++i) {
    uint8_t t1 = r->ReadU8();
    uint8_t t2 = r->ReadU8();
    if (!r->ok()) return r->status();
    if (t1 >= kNum || t2 >= kNum) {
      return Status::InvalidArgument(
          "pending affinity with invalid type tag");
    }
    pending_foreign_affinities_.emplace_back(
        static_cast<sql::StatementType>(t1),
        static_cast<sql::StatementType>(t2));
  }
  int64_t seed_index = r->ReadI64();
  uint64_t cursor = r->ReadU64();
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  if (seed_index >= static_cast<int64_t>(corpus_.size()) || seed_index < -1) {
    return Status::InvalidArgument("in-flight seed index out of range");
  }
  current_seed_ =
      seed_index < 0 ? nullptr : corpus_.at(static_cast<size_t>(seed_index));
  mutation_cursor_ = cursor;
  return Status::OK();
}

fuzz::FuzzerStats LegoFuzzer::stats() const {
  fuzz::FuzzerStats s;
  s.corpus_seeds = corpus_.size();
  s.affinity_pairs = affinity_map_.Count();
  s.sequences_total = synthesizer_.TotalSequences();
  s.sequences_dropped = synthesizer_.dropped_sequences();
  return s;
}

void LegoFuzzer::OnResult(const fuzz::TestCase& tc,
                          const fuzz::ExecResult& result) {
  // Either signal admits a seed: new engine edges, or (when the secondary
  // signal is enabled) new grammar productions — the latter keeps the corpus
  // growing after the edge map saturates. new_rules is always false when
  // rule coverage is disabled, so this path is then bit-identical to
  // edge-only feedback.
  if (!result.new_coverage && !result.new_rules) return;

  // New-coverage inputs join the corpus and donate their AST structures.
  corpus_.Add(tc.Clone(),
              result.hit_rules ? &*result.hit_rules : nullptr);
  library_.AddTestCase(tc);
  if (current_seed_ != nullptr) ++current_seed_->discoveries;

  if (!options_.sequence_algorithms_enabled) return;

  // Step 2 (Fig. 4): affinities of coverage-increasing inputs are analyzed
  // (Algorithm 2) and each new one triggers progressive synthesis
  // (Algorithm 3) of the sequences that contain it.
  auto new_affinities = affinity_map_.Analyze(tc.TypeSequence());
  for (const auto& [t1, t2] : new_affinities) {
    EnqueueSynthesized(t1, t2);
  }
}

}  // namespace lego::core
