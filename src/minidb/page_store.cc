#include "minidb/page_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace lego::minidb {

namespace {
/// Each physical page stores [u32 chunk_len][chunk bytes].
constexpr size_t kChunkCap = kPageSize - sizeof(uint32_t);
}  // namespace

PageStore::PageStore(Env* env, std::string path, size_t frames,
                     bool panic_on_error)
    : env_(env),
      path_(std::move(path)),
      frames_(frames == 0 ? 1 : frames),
      panic_on_error_(panic_on_error) {}

Status PageStore::Reset() {
  if (file_ == nullptr) {
    auto file_or = env_->OpenPagedFile(path_, /*truncate=*/true);
    if (!file_or.ok()) return file_or.status();
    file_ = std::move(file_or).ValueOrDie();
    pool_ = std::make_unique<BufferPool>(file_.get(), frames_);
  } else {
    LEGO_RETURN_IF_ERROR(file_->Truncate());
    pool_->Clear();
  }
  // The state of a new file: empty allocator, cow epoch 1, no RAM overlay.
  next_page_ = 0;
  free_list_.clear();
  cow_epoch_ = 1;
  cow_active_ = false;
  ram_mode_ = false;
  ram_overlay_.clear();
  return Status::OK();
}

void PageStore::HandleIoFailure(const Status& status) {
  if (panic_on_error_) {
    std::fprintf(stderr, "storage: page store I/O failed, exiting: %s\n",
                 status.message().c_str());
    std::fflush(stderr);
    _exit(kStorageFailExitCode);
  }
  // In-process fallback: all further page traffic lives in RAM. Correctness
  // of the running session is preserved; durability of the page file is not
  // (the storage engine flags itself degraded via degraded()).
  ram_mode_ = true;
}

uint32_t PageStore::AllocPage() {
  if (!free_list_.empty()) {
    const uint32_t id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  ++stats_.pages_allocated;
  return next_page_++;
}

bool PageStore::ReadChunk(uint32_t page_id, std::string* out) {
  if (ram_mode_) {
    auto it = ram_overlay_.find(page_id);
    if (it != ram_overlay_.end()) {
      out->append(it->second);
      return true;
    }
    // Fall through: the page predates the failure and may still be
    // readable from the pool.
  }
  if (pool_ == nullptr) return false;
  auto frame = pool_->Pin(page_id);
  if (!frame.ok()) {
    HandleIoFailure(frame.status());
    auto it = ram_overlay_.find(page_id);
    if (it != ram_overlay_.end()) {
      out->append(it->second);
      return true;
    }
    return false;
  }
  const char* p = frame.value();
  uint32_t len = 0;
  std::memcpy(&len, p, sizeof(len));
  if (len > kChunkCap) len = kChunkCap;  // defensive: torn page
  out->append(p + sizeof(uint32_t), len);
  pool_->Unpin(page_id, /*dirty=*/false);
  return true;
}

bool PageStore::WriteChunk(uint32_t page_id, std::string_view chunk) {
  if (ram_mode_) {
    ram_overlay_[page_id].assign(chunk.data(), chunk.size());
    return true;
  }
  auto frame = pool_->Pin(page_id);
  if (!frame.ok()) {
    HandleIoFailure(frame.status());
    ram_overlay_[page_id].assign(chunk.data(), chunk.size());
    return true;
  }
  char* p = frame.value();
  const uint32_t len = static_cast<uint32_t>(chunk.size());
  std::memcpy(p, &len, sizeof(len));
  std::memcpy(p + sizeof(uint32_t), chunk.data(), chunk.size());
  if (sizeof(uint32_t) + chunk.size() < kPageSize) {
    std::memset(p + sizeof(uint32_t) + chunk.size(), 0,
                kPageSize - sizeof(uint32_t) - chunk.size());
  }
  pool_->Unpin(page_id, /*dirty=*/true);
  return true;
}

void PageStore::ReadBlob(const std::vector<uint32_t>& chain,
                         std::string* out) {
  out->clear();
  ++stats_.blob_reads;
  for (const uint32_t page_id : chain) {
    if (!ReadChunk(page_id, out)) return;  // failure policy already applied
  }
}

void PageStore::WriteBlob(std::vector<uint32_t>* chain, std::string_view blob,
                          bool copy_on_write) {
  ++stats_.blob_writes;
  const size_t needed =
      blob.empty() ? 1 : (blob.size() + kChunkCap - 1) / kChunkCap;
  if (copy_on_write) {
    // Old pages stay behind for the snapshots that share them; Sweep()
    // reclaims them once no copy is live.
    ++stats_.cow_writes;
    chain->clear();
  }
  while (chain->size() < needed) chain->push_back(AllocPage());
  while (chain->size() > needed) {
    free_list_.push_back(chain->back());
    chain->pop_back();
  }
  for (size_t i = 0; i < needed; ++i) {
    const size_t off = i * kChunkCap;
    const size_t len = blob.size() > off ? std::min(kChunkCap, blob.size() - off)
                                         : 0;
    if (!WriteChunk((*chain)[i], std::string_view(blob.data() + off, len))) {
      return;
    }
  }
}

Status PageStore::Flush() {
  if (pool_ == nullptr || ram_mode_) return Status::OK();
  return pool_->FlushAll();
}

void PageStore::Sweep(const std::set<uint32_t>& live) {
  ++stats_.sweeps;
  const size_t before = free_list_.size();
  free_list_.clear();
  for (uint32_t id = 0; id < next_page_; ++id) {
    if (live.count(id) == 0) free_list_.push_back(id);
  }
  if (free_list_.size() > before) {
    stats_.pages_swept += free_list_.size() - before;
  }
  // LIFO reuse: pop_back hands out the highest ids first, keeping the file
  // compact-ish after a big drop.
}

}  // namespace lego::minidb
