#include "minidb/buffer_pool.h"

#include "chaos/failpoint.h"

namespace lego::minidb {

BufferPool::BufferPool(PagedFile* file, size_t frames) : file_(file) {
  if (frames == 0) frames = 1;
  frames_.resize(frames);
  for (Frame& f : frames_) f.data.resize(kPageSize);
}

StatusOr<char*> BufferPool::Pin(uint64_t page_id) {
  auto it = page_to_frame_.find(page_id);
  if (it != page_to_frame_.end()) {
    Frame& f = frames_[it->second];
    ++f.pins;
    f.referenced = true;
    ++stats_.hits;
    return f.data.data();
  }
  ++stats_.misses;
  size_t slot = frames_.size();
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].valid) {
      slot = i;
      break;
    }
  }
  if (slot == frames_.size()) {
    auto victim = Evict();
    if (!victim.ok()) return victim.status();
    slot = victim.value();
  }
  Frame& f = frames_[slot];
  Status s = file_->ReadPage(page_id, f.data.data());
  if (!s.ok()) return s;
  f.page_id = page_id;
  f.valid = true;
  f.dirty = false;
  f.referenced = true;
  f.pins = 1;
  page_to_frame_[page_id] = slot;
  return f.data.data();
}

void BufferPool::Unpin(uint64_t page_id, bool dirty) {
  auto it = page_to_frame_.find(page_id);
  if (it == page_to_frame_.end()) return;
  Frame& f = frames_[it->second];
  if (f.pins > 0) --f.pins;
  f.dirty |= dirty;
}

StatusOr<size_t> BufferPool::Evict() {
  // Two full sweeps: the first clears reference bits, the second must find a
  // victim unless every frame is pinned.
  for (size_t step = 0; step < frames_.size() * 2; ++step) {
    Frame& f = frames_[clock_hand_];
    const size_t slot = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (f.pins > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.dirty) {
      Status s = WriteBack(&f);
      if (!s.ok()) return s;
    }
    page_to_frame_.erase(f.page_id);
    f.valid = false;
    ++stats_.evictions;
    return slot;
  }
  return Status::Internal("buffer pool exhausted: all frames pinned");
}

Status BufferPool::WriteBack(Frame* frame) {
  if (LEGO_FAILPOINT("pager.flush")) {
    return Status::Internal("injected pager.flush failure");
  }
  Status s = file_->WritePage(frame->page_id, frame->data.data());
  if (!s.ok()) return s;
  frame->dirty = false;
  ++stats_.writebacks;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (Frame& f : frames_) {
    if (!f.valid || !f.dirty) continue;
    LEGO_RETURN_IF_ERROR(WriteBack(&f));
  }
  return file_->Sync();
}

void BufferPool::Clear() {
  for (Frame& f : frames_) {
    f.valid = false;
    f.dirty = false;
    f.referenced = false;
    f.pins = 0;
  }
  page_to_frame_.clear();
  clock_hand_ = 0;
}

}  // namespace lego::minidb
