#ifndef LEGO_MINIDB_BUFFER_POOL_H_
#define LEGO_MINIDB_BUFFER_POOL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "minidb/env.h"

namespace lego::minidb {

/// Fixed-budget page cache over one PagedFile, clock (second-chance)
/// eviction. The snapshot writer/reader streams every page image through a
/// pool, so eviction and dirty write-back are on the hot path of normal
/// checkpoints and recoveries — not just of synthetic tests.
///
/// Contract:
///  - Pin() returns a frame holding the page, loading it on a miss (evicting
///    an unpinned victim if the pool is full; a dirty victim is written back
///    first, passing the `pager.flush` failpoint).
///  - The pointer stays valid until the matching Unpin(). Pins nest.
///  - Unpin(dirty=true) marks the frame; the page reaches the file at
///    eviction or FlushAll(), never before (no-force).
///  - Pinning more distinct pages than there are frames fails Internal.
class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;

    void Add(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      evictions += o.evictions;
      writebacks += o.writebacks;
    }
  };

  BufferPool(PagedFile* file, size_t frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `page_id` and returns its frame buffer (kPageSize bytes).
  StatusOr<char*> Pin(uint64_t page_id);
  void Unpin(uint64_t page_id, bool dirty);

  /// Writes back every dirty frame (pinned or not) and syncs the file.
  Status FlushAll();

  /// Invalidates every frame without writing it back, as destroying the
  /// pool would, and rewinds the clock hand: the pool then behaves exactly
  /// like a new one over the same file. Counters keep accumulating.
  void Clear();

  size_t frame_count() const { return frames_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Frame {
    uint64_t page_id = 0;
    bool valid = false;
    bool dirty = false;
    bool referenced = false;  // clock second-chance bit
    uint32_t pins = 0;
    std::vector<char> data;
  };

  /// Clock sweep for an unpinned victim; flushes it if dirty.
  StatusOr<size_t> Evict();
  Status WriteBack(Frame* frame);

  PagedFile* file_;
  std::vector<Frame> frames_;
  std::unordered_map<uint64_t, size_t> page_to_frame_;
  size_t clock_hand_ = 0;
  Stats stats_;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_BUFFER_POOL_H_
