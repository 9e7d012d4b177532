#include "coverage/coverage.h"

#include <string>

#include "persist/io.h"

namespace lego::cov {

thread_local CoverageMap* CoverageRuntime::active_ = nullptr;

namespace {

constexpr uint32_t kGlobalTag = persist::ChunkTag("GCOV");

Status ReadBitmap(persist::StateReader* r, std::string* out) {
  *out = r->ReadString();
  if (!r->ok()) return r->status();
  if (out->size() != CoverageMap::kSize) {
    return Status::InvalidArgument(
        "coverage bitmap size mismatch: " + std::to_string(out->size()) +
        " bytes, expected " + std::to_string(CoverageMap::kSize));
  }
  return Status::OK();
}

}  // namespace

Status GlobalCoverage::SaveState(persist::StateWriter* w) const {
  w->BeginChunk(kGlobalTag);
  w->WriteString(std::string_view(
      reinterpret_cast<const char*>(virgin_.data()), virgin_.size()));
  w->EndChunk();
  return Status::OK();
}

Status GlobalCoverage::LoadState(persist::StateReader* r) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kGlobalTag));
  std::string bytes;
  LEGO_RETURN_IF_ERROR(ReadBitmap(r, &bytes));
  LEGO_RETURN_IF_ERROR(r->ExitChunk());
  covered_edges_ = 0;
  for (size_t i = 0; i < virgin_.size(); ++i) {
    virgin_[i] = static_cast<uint8_t>(bytes[i]);
    covered_edges_ += (virgin_[i] != 0);
  }
  return Status::OK();
}

}  // namespace lego::cov
