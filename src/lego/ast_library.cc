#include "lego/ast_library.h"

#include <string>
#include <utility>

#include "persist/ast_serde.h"

namespace lego::core {

void AstLibrary::AddStatement(const sql::Statement& stmt) {
  size_t slot = static_cast<size_t>(stmt.type());
  if (slot >= buckets_.size()) return;
  std::shared_ptr<Bucket>& bucket = buckets_[slot];
  if (bucket == nullptr) {
    bucket = std::make_shared<Bucket>();
  } else if (bucket.use_count() > 1) {
    // A snapshot still reads this bucket: write to a private copy.
    bucket = std::make_shared<Bucket>(*bucket);
  }
  if (bucket->size() < cap_) {
    bucket->push_back(stmt.Clone());
    return;
  }
  // Ring replacement keeps the library fresh once full.
  (*bucket)[replace_cursor_[slot] % cap_] = stmt.Clone();
  ++replace_cursor_[slot];
}

void AstLibrary::AddTestCase(const fuzz::TestCase& tc) {
  for (const auto& stmt : tc.statements()) AddStatement(*stmt);
}

sql::StmtPtr AstLibrary::Sample(sql::StatementType type, Rng* rng) const {
  size_t slot = static_cast<size_t>(type);
  if (slot >= buckets_.size()) return nullptr;
  const Bucket* bucket = buckets_[slot].get();
  if (bucket == nullptr || bucket->empty()) return nullptr;
  return (*bucket)[rng->NextBelow(bucket->size())]->Clone();
}

size_t AstLibrary::TotalCount() const {
  size_t n = 0;
  for (const auto& bucket : buckets_) {
    if (bucket != nullptr) n += bucket->size();
  }
  return n;
}

namespace {
constexpr uint32_t kLibraryTag = persist::ChunkTag("ASTL");
}  // namespace

Status AstLibrary::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kLibraryTag);
  w->WriteU64(cap_);
  w->WriteU64(buckets_.size());
  for (size_t slot = 0; slot < buckets_.size(); ++slot) {
    const Bucket* bucket = buckets_[slot].get();
    w->WriteU64(bucket == nullptr ? 0 : bucket->size());
    if (bucket != nullptr) {
      for (const auto& stmt : *bucket) persist::SerializeStatement(*stmt, w);
    }
    w->WriteU64(replace_cursor_[slot]);
  }
  w->EndChunk();
  return Status::OK();
}

Status AstLibrary::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kLibraryTag));
  uint64_t cap = r->ReadU64();
  if (r->ok() && cap != cap_) {
    return Status::InvalidArgument(
        "AST library state saved with cap " + std::to_string(cap) +
        ", this campaign uses " + std::to_string(cap_));
  }
  uint64_t num_types = r->ReadU64();
  if (r->ok() && num_types != buckets_.size()) {
    return Status::InvalidArgument(
        "AST library state has " + std::to_string(num_types) +
        " statement types, expected " + std::to_string(buckets_.size()));
  }
  std::array<std::shared_ptr<Bucket>, sql::kNumStatementTypes> buckets;
  std::array<size_t, sql::kNumStatementTypes> cursors = {};
  for (size_t slot = 0; r->ok() && slot < buckets.size(); ++slot) {
    uint64_t n = r->ReadU64();
    if (!r->CheckCount(n, 1)) return r->status();
    if (n > 0) {
      buckets[slot] = std::make_shared<Bucket>();
      buckets[slot]->reserve(n);
    }
    for (uint64_t i = 0; i < n; ++i) {
      LEGO_ASSIGN_OR_RETURN(sql::StmtPtr stmt,
                            persist::DeserializeStatement(r));
      buckets[slot]->push_back(std::move(stmt));
    }
    cursors[slot] = r->ReadU64();
  }
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  buckets_ = std::move(buckets);
  replace_cursor_ = cursors;
  return Status::OK();
}

}  // namespace lego::core
