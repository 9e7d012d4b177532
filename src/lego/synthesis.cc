#include "lego/synthesis.h"

#include <algorithm>
#include <string>

namespace lego::core {

void SequenceSynthesizer::AddStartType(sql::StatementType t) {
  auto key = std::make_pair(t, 1);
  if (prefix_.count(key)) return;  // already a root
  Record({t});
}

// Indexes into S are stored as uint32_t.
static_assert(SequenceSynthesizer::kMaxSequences <= UINT32_MAX);

bool SequenceSynthesizer::Record(
    const std::vector<sql::StatementType>& seq) {
  if (ends_.size() >= kMaxSequences) {
    ++dropped_;
    return false;
  }
  prefix_[{seq.back(), static_cast<int>(seq.size())}].push_back(
      static_cast<uint32_t>(ends_.size()));
  types_.insert(types_.end(), seq.begin(), seq.end());
  ends_.push_back(static_cast<uint32_t>(types_.size()));
  return true;
}

size_t SequenceSynthesizer::OnNewAffinity(sql::StatementType t1,
                                          sql::StatementType t2,
                                          const TypeAffinityMap& affinities) {
  const size_t first_new = ends_.size();
  for (int level = 1; level <= max_len_ - 1; ++level) {
    auto it = prefix_.find({t1, level});
    if (it == prefix_.end() || it->second.empty()) continue;
    // Copy: Record() appends to PS entries while we iterate.
    std::vector<uint32_t> prefix_indexes = it->second;
    for (uint32_t seq_index : prefix_indexes) {
      // Only extend prefixes that existed before this call — new sequences
      // already contain t1 -> t2.
      if (seq_index >= first_new) continue;
      const auto prefix = sequence(seq_index);
      std::vector<sql::StatementType> seq(prefix.begin(), prefix.end());
      seq.push_back(t2);
      if (!Record(seq)) return ends_.size() - first_new;
      ListSeq(level + 1, t2, &seq, affinities);
      if (ends_.size() >= kMaxSequences) return ends_.size() - first_new;
    }
  }
  return ends_.size() - first_new;
}

void SequenceSynthesizer::ListSeq(int level, sql::StatementType node_type,
                                  std::vector<sql::StatementType>* seq,
                                  const TypeAffinityMap& affinities) {
  if (level >= max_len_) return;
  for (sql::StatementType next : affinities.SuccessorsOf(node_type)) {
    if (ends_.size() >= kMaxSequences) return;
    seq->push_back(next);
    ListSeq(level + 1, next, seq, affinities);
    Record(*seq);
    seq->pop_back();
  }
}

namespace {
constexpr uint32_t kSynthTag = persist::ChunkTag("SYNT");
}  // namespace

Status SequenceSynthesizer::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kSynthTag);
  w->WriteI64(max_len_);
  w->WriteU64(dropped_);
  w->WriteU64(ends_.size());
  for (size_t i = 0; i < ends_.size(); ++i) {
    const auto seq = sequence(i);
    w->WriteU64(seq.size());
    for (sql::StatementType t : seq) w->WriteU8(static_cast<uint8_t>(t));
  }
  w->EndChunk();
  return Status::OK();
}

Status SequenceSynthesizer::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kSynthTag));
  int max_len = static_cast<int>(r->ReadI64());
  if (r->ok() && max_len != max_len_) {
    return Status::InvalidArgument(
        "synthesizer state saved with max_len " + std::to_string(max_len) +
        ", this campaign uses " + std::to_string(max_len_));
  }
  uint64_t dropped = r->ReadU64();
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  if (n > kMaxSequences) {
    return Status::InvalidArgument("synthesizer state holds " +
                                   std::to_string(n) + " sequences, over " +
                                   std::to_string(kMaxSequences));
  }
  // Roots have length 1 and synthesized sequences at most LEN.
  const uint64_t max_len_stored =
      static_cast<uint64_t>(std::max(1, max_len_));
  std::vector<sql::StatementType> types;
  std::vector<uint32_t> ends;
  ends.reserve(n);
  constexpr uint8_t kNum = static_cast<uint8_t>(sql::StatementType::kNumTypes);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t len = r->ReadU64();
    if (!r->CheckCount(len, 1)) return r->status();
    if (len == 0) {
      return Status::InvalidArgument("empty sequence in synthesizer state");
    }
    if (len > max_len_stored) {
      return Status::InvalidArgument("sequence longer than max_len in "
                                     "synthesizer state");
    }
    for (uint64_t j = 0; j < len; ++j) {
      uint8_t t = r->ReadU8();
      if (!r->ok()) return r->status();
      if (t >= kNum) {
        return Status::InvalidArgument("sequence with invalid type tag");
      }
      types.push_back(static_cast<sql::StatementType>(t));
    }
    ends.push_back(static_cast<uint32_t>(types.size()));
  }
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  // Rebuild PS from S exactly as Record() built it: index i is appended to
  // prefix_[(S[i].back, |S[i]|)] in increasing i, so the rebuilt index lists
  // match the original insertion order and future synthesis walks them in
  // the same order.
  types_ = std::move(types);
  ends_ = std::move(ends);
  prefix_.clear();
  for (size_t i = 0; i < ends_.size(); ++i) {
    const auto seq = sequence(i);
    prefix_[{seq.back(), static_cast<int>(seq.size())}].push_back(
        static_cast<uint32_t>(i));
  }
  dropped_ = dropped;
  return Status::OK();
}

}  // namespace lego::core
