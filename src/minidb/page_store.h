#ifndef LEGO_MINIDB_PAGE_STORE_H_
#define LEGO_MINIDB_PAGE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "minidb/buffer_pool.h"
#include "minidb/env.h"

namespace lego::minidb {

/// The shared physical row store of paged mode: one page file ("heap.pages")
/// under one BufferPool, plus a page allocator and the copy-on-write epoch
/// that makes snapshot transactions sound over shared pages.
///
/// Heaps store each *logical* page (64 slots) as a serialized blob chunked
/// across a *chain* of 8 KiB physical pages; the chain (a vector of physical
/// page ids) lives in the heap's resident metadata and is copied with
/// catalog snapshots, while the row payloads stay in pager frames and evict
/// to the file under pool pressure. Every blob read/write pins and unpins
/// pool frames, so `--pool-frames` genuinely bounds the resident working
/// set.
///
/// Ownership and reclamation: chains are shared freely between catalog
/// copies (snapshot transactions, savepoints), so nothing ever frees a
/// chain at destruction time. Orphaned pages — from copy-on-write, VACUUM,
/// TRUNCATE, DROP — are reclaimed by Sweep(), a mark-and-sweep the storage
/// engine runs at checkpoint when provably no catalog copy is live.
///
/// Copy-on-write protocol: the storage engine arms `cow_active` for the
/// duration of a snapshot transaction and bumps `cow_epoch` at BEGIN and at
/// every SAVEPOINT. A heap flushing a dirty logical page whose recorded
/// epoch predates the current one writes a *fresh* chain instead of
/// overwriting — the chains referenced by outstanding snapshots keep their
/// bytes, so ROLLBACK restores exact state while rows stay paged.
///
/// Failure policy: a page I/O failure (injected env.write/pager.flush, disk
/// error) either panics the process with kStorageFailExitCode (forked
/// children — the parent's durability oracle then verifies recovery) or
/// flips the store into a sticky RAM overlay where subsequent blob writes
/// live in memory (in-process — durability is lost, correctness is not, and
/// the storage engine reports itself degraded).
class PageStore {
 public:
  struct Stats {
    uint64_t blob_reads = 0;
    uint64_t blob_writes = 0;
    uint64_t cow_writes = 0;
    uint64_t pages_allocated = 0;
    uint64_t pages_swept = 0;
    uint64_t sweeps = 0;

    void Add(const Stats& o) {
      blob_reads += o.blob_reads;
      blob_writes += o.blob_writes;
      cow_writes += o.cow_writes;
      pages_allocated += o.pages_allocated;
      pages_swept += o.pages_swept;
      sweeps += o.sweeps;
    }
  };

  PageStore(Env* env, std::string path, size_t frames, bool panic_on_error);

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Empties the store: the first call opens the page file with
  /// truncation and builds the pool, later calls truncate it through the
  /// open handle and clear the pool frames (dirty ones are dropped, not
  /// written). Rewinds the allocator, the cow epoch and the RAM overlay, so
  /// every handed-out chain is orphaned — callers re-attach their heaps
  /// afterwards. Stats and pool counters keep accumulating.
  Status Reset();

  /// Reads the blob stored under `chain` (concatenated page chunks). An
  /// empty chain yields an empty blob.
  void ReadBlob(const std::vector<uint32_t>& chain, std::string* out);

  /// Writes `blob` under `*chain`. With `copy_on_write` the old chain is
  /// left untouched (still readable through other catalog copies) and
  /// `*chain` is replaced by freshly allocated pages; otherwise pages are
  /// reused in place, growing or shrinking the chain as needed (shrunk
  /// pages return to the free list — only legal when no copy shares them,
  /// which the cow protocol guarantees).
  void WriteBlob(std::vector<uint32_t>* chain, std::string_view blob,
                 bool copy_on_write);

  /// Flushes every dirty pool frame to the file.
  Status Flush();

  /// Mark-and-sweep reclamation: every allocated page not in `live` returns
  /// to the free list. Call only when no catalog copy besides the live one
  /// exists (the engine checkpoints outside transactions).
  void Sweep(const std::set<uint32_t>& live);

  // --- copy-on-write epoch (driven by the storage engine's txn hooks) ---
  uint64_t cow_epoch() const { return cow_epoch_; }
  void BumpCowEpoch() { ++cow_epoch_; }
  void SetCowActive(bool active) { cow_active_ = active; }
  bool cow_active() const { return cow_active_; }

  /// True once an I/O failure flipped the store into the RAM overlay.
  bool degraded() const { return ram_mode_; }

  uint64_t allocated_pages() const { return next_page_; }
  size_t free_pages() const { return free_list_.size(); }
  const Stats& stats() const { return stats_; }
  BufferPool::Stats pool_stats() const {
    return pool_ != nullptr ? pool_->stats() : BufferPool::Stats{};
  }
  size_t frame_count() const { return frames_; }

 private:
  uint32_t AllocPage();
  /// Reads one physical page's chunk; returns false on I/O failure (after
  /// applying the failure policy).
  bool ReadChunk(uint32_t page_id, std::string* out);
  bool WriteChunk(uint32_t page_id, std::string_view chunk);
  void HandleIoFailure(const Status& status);

  Env* env_;
  std::string path_;
  size_t frames_;
  bool panic_on_error_;

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<BufferPool> pool_;

  uint32_t next_page_ = 0;
  std::vector<uint32_t> free_list_;

  uint64_t cow_epoch_ = 1;
  bool cow_active_ = false;

  /// Sticky in-memory fallback after an I/O failure in non-panic mode:
  /// page id -> chunk bytes. Reads consult this before the pool.
  bool ram_mode_ = false;
  std::map<uint32_t, std::string> ram_overlay_;

  Stats stats_;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_PAGE_STORE_H_
