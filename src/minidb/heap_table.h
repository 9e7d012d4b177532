#ifndef LEGO_MINIDB_HEAP_TABLE_H_
#define LEGO_MINIDB_HEAP_TABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "minidb/row.h"

namespace lego::minidb {

class HeapTable;
class PageStore;

/// Row-operation observer: the concurrency layer's seam into the storage
/// engine. Hooks fire *before* the heap mutates (so an observer can park the
/// calling session, take row locks, and record undo/history state with the
/// pre-image still intact) and before each row read. Installed per thread
/// via RowHooks — serial execution never installs one, so the single-session
/// engine pays one thread-local load per row operation and nothing else.
class RowObserver {
 public:
  virtual ~RowObserver() = default;
  /// About to insert a row into `table`. The observer may predict the slot
  /// with HeapTable::PeekInsert(); the prediction stays valid until control
  /// returns (no other session runs in between).
  virtual void OnInsert(HeapTable* table) = 0;
  /// About to update/delete the slot (which may be dead; the mutation then
  /// fails after the hook returns, exactly as it would have before).
  virtual void OnUpdate(HeapTable* table, RowId id) = 0;
  virtual void OnDelete(HeapTable* table, RowId id) = 0;
  /// About to read a live row (point lookup or scan visit).
  virtual void OnRead(const HeapTable* table, RowId id) = 0;
};

/// Thread-local observer installation. The concurrency engine installs its
/// observer on the thread that runs the session fibers for the duration of
/// a run; everything else (serial backends, setup scripts, tests) sees
/// nullptr. Unlike the storage observer, which each paged heap holds, this
/// one stays thread-local: it is installed per run rather than per heap,
/// must cover temporary heaps too, and is cleared while undo is applied.
struct RowHooks {
  static RowObserver* Get();
  static void Set(RowObserver* observer);
};

/// Clears the calling thread's row observer for a scope (rollback/undo
/// application and index rebuilds must not re-enter the observer).
class RowHookClearScope {
 public:
  RowHookClearScope() : saved_(RowHooks::Get()) { RowHooks::Set(nullptr); }
  ~RowHookClearScope() { RowHooks::Set(saved_); }
  RowHookClearScope(const RowHookClearScope&) = delete;
  RowHookClearScope& operator=(const RowHookClearScope&) = delete;

 private:
  RowObserver* saved_;
};

/// Storage-engine mutation observer: the paged-durability layer's seam into
/// the heap. Unlike RowObserver (which fires *before* a mutation so the
/// concurrency engine can park/lock), these hooks fire *after* a successful
/// mutation, when the post-image is in place — and carry the slot's
/// before-image, which is exactly what a physiological redo+undo record
/// needs under the steal policy. A heap holds its observer next to its
/// PageStore (both handed over by AttachStore), so only paged,
/// non-temporary heaps report; the observer itself ignores whatever fires
/// outside its statement bracket (recovery, a concurrent run).
class StorageObserver {
 public:
  virtual ~StorageObserver() = default;
  /// A slot was written (insert or in-place update). The post-image is
  /// readable via table->RawRow(id) until control returns. `before` is the
  /// slot's pre-image when it was live (an update); nullptr when the put
  /// created the slot (an insert — undo re-tombstones it).
  virtual void OnPut(const HeapTable* table, RowId id, const Row* before) = 0;
  /// A live slot was tombstoned; `before` is the erased row (the undo
  /// image).
  virtual void OnErase(const HeapTable* table, RowId id,
                       const Row& before) = 0;
  /// The page layout changed wholesale (Clear, Vacuum, ResurrectAt) — slot
  /// identities are no longer stable, so per-op redo is off the table and
  /// the statement must be logged logically.
  virtual void OnStructural(const HeapTable* table) = 0;
};

/// Page-structured row store. Rows live in fixed-capacity pages with a
/// per-slot liveness bit; deletes tombstone slots and VACUUM compacts pages.
/// The structure deliberately mirrors a slotted-page heap so scans, row ids,
/// and vacuum behave like a real engine's.
///
/// One slot layer serves both storage modes: the page list, the liveness
/// bits, the tombstone-reuse policy and the live/dead counts are shared,
/// and every operation has one body. The modes differ only in where a
/// page's rows are, and every operation reaches them through Rows() /
/// MutableRows():
///
///  - *Memory mode* (default): the rows are resident in the page, reserved
///    at full capacity up front so growing the heap never relocates
///    existing rows — a concurrent session parked mid-scan can hold
///    references across other sessions' inserts.
///
///  - *Paged mode* (after AttachStore): the rows live behind a PageStore
///    chain — each logical page serialized as a blob chunked across 8 KiB
///    physical pages under the shared BufferPool. A one-page decoded cache
///    gives mutations and scans page locality; switching pages flushes the
///    cache back through the pool, applying copy-on-write when a snapshot
///    transaction shares the chain. Pointers returned by Get()/RawRow()
///    point into the cache and are valid only until the next operation on
///    this table — every executor call site copies immediately.
class HeapTable {
 public:
  static constexpr uint32_t kRowsPerPage = 64;

  HeapTable() = default;

  /// Deep copy (used by snapshot-based transactions). In paged mode this
  /// copies only resident metadata — chains are *shared* with the copy
  /// (copy-on-write keeps them consistent) and the decoded cache is copied
  /// as-is, so a dirty page's latest content travels with the snapshot.
  HeapTable(const HeapTable&) = default;
  HeapTable& operator=(const HeapTable&) = default;
  HeapTable(HeapTable&&) = default;
  HeapTable& operator=(HeapTable&&) = default;

  /// Appends `row`, reusing a tombstoned slot if one exists on the last
  /// page; returns its location.
  RowId Insert(Row row);

  /// The RowId the next Insert would choose, without mutating. Valid until
  /// the heap changes. Reads only resident metadata in paged mode.
  RowId PeekInsert() const;

  /// Tombstones the slot. Returns false if already dead or out of range.
  bool Delete(RowId id);

  /// Replaces the row in place. Returns false if the slot is dead.
  bool Update(RowId id, Row row);

  /// Fetches a live row; returns nullptr for dead/out-of-range slots.
  const Row* Get(RowId id) const;

  /// Like Get, but without firing the row observer (undo application and
  /// observers themselves read through this).
  const Row* RawRow(RowId id) const;

  /// Restores `row` into a tombstoned slot (undo of a delete). Returns
  /// false if the slot is live or out of range.
  bool ResurrectAt(RowId id, Row row);

  /// Invokes `fn(id, row)` for every live row in physical order; stops early
  /// if fn returns false.
  void Scan(const std::function<bool(RowId, const Row&)>& fn) const;

  /// Number of live rows.
  size_t LiveRowCount() const { return live_rows_; }

  /// Number of allocated pages.
  size_t PageCount() const { return pages_.size(); }

  /// Fraction of allocated slots that are dead (0 when empty).
  double DeadFraction() const;

  /// Compacts pages, dropping tombstones. Invalidates all RowIds; the caller
  /// must rebuild indexes afterwards.
  void Vacuum();

  /// Drops all rows and pages.
  void Clear();

  // --- storage-engine surface (snapshot serde + WAL redo) ---

  /// Invokes `fn(id, live, row)` for every *allocated* slot (including
  /// tombstones, whose rows are empty) in physical order. Snapshot serde
  /// walks this so a deserialized heap reproduces the slot layout exactly —
  /// RowIds recorded in WAL redo records stay valid. In paged mode the
  /// row reference is valid only for the duration of the callback.
  void VisitSlots(
      const std::function<void(RowId, bool, const Row&)>& fn) const;

  /// Starts a fresh physical page (snapshot load). Needed because redo can
  /// leave partially-filled *middle* pages, so the loader must reproduce
  /// page boundaries explicitly rather than re-packing slots.
  void AppendRawPage();

  /// Appends one raw slot at the next physical position of the last page
  /// (snapshot load); rolls to a new page only at full capacity.
  void AppendRawSlot(Row row, bool live);

  /// Redo application of a physiological put: writes `row` at exactly `id`,
  /// creating pages/slots (as tombstones) up to it if needed. Idempotent —
  /// replaying the same record twice converges on the same state. Fires no
  /// observers (recovery runs outside any statement bracket).
  void ApplyPut(RowId id, Row row);

  /// Redo application of a physiological erase: tombstones `id` if live.
  void ApplyDelete(RowId id);

  // --- paged mode ---

  /// Routes this heap's row storage through `store`: existing in-memory
  /// pages are serialized into chains and released, and every subsequent
  /// operation reads/writes pager frames. Slot layout is preserved exactly.
  /// Call it on a memory-mode heap (or again with the same store, which
  /// only replaces the observer). From then on every mutation reports to
  /// `observer` (may be nullptr).
  void AttachStore(PageStore* store, StorageObserver* observer);

  /// Adds every physical page id reachable from this heap's chains to
  /// `live` (the storage engine's checkpoint mark phase).
  void CollectChainPages(std::set<uint32_t>* live) const;

 private:
  /// One logical page. The liveness bits (1 = live, 0 = tombstone) are
  /// resident in both modes, so liveness checks and PeekInsert never touch
  /// the pager; `live.size()` is the page's slot count.
  struct Page {
    std::vector<uint8_t> live;
    /// Memory mode: the rows, one per slot. Empty in paged mode.
    std::vector<Row> rows;
    /// Paged mode: the PageStore chain holding the serialized rows.
    /// Mutable, like the epoch below, because cache write-back from const
    /// readers swaps page ids under copy-on-write.
    mutable std::vector<uint32_t> chain;
    /// Paged mode: PageStore::cow_epoch() as of the last chain write; a
    /// flush under an older epoch while cow is active copy-on-writes to a
    /// fresh chain.
    mutable uint64_t cow_epoch = 0;
  };

  bool IsAllocated(RowId id) const;
  bool IsLive(RowId id) const;
  /// The rows of page `p`: the page's own in memory mode; in paged mode the
  /// decoded cache, loaded on demand and valid until the next operation.
  const std::vector<Row>& Rows(uint32_t p) const;
  /// Rows() for writing; in paged mode marks the cache dirty.
  std::vector<Row>& MutableRows(uint32_t p);
  /// Writes `row` into the allocated slot `id` and marks it live.
  void PutSlot(RowId id, Row row);
  /// Tombstones the live slot `id` and returns its row.
  Row KillSlot(RowId id);

  // Paged-mode decoded cache; memory mode never loads it.
  static constexpr uint32_t kNoCachedPage = UINT32_MAX;
  /// Decodes logical page `p` into the cache, flushing the previous cached
  /// page first.
  void LoadPage(uint32_t p) const;
  /// Serializes the cached page back through the store if dirty, applying
  /// copy-on-write when the chain is shared with a snapshot.
  void FlushCache() const;
  /// Forgets the cached page without writing it.
  void DropCache();

  std::deque<Page> pages_;
  PageStore* store_ = nullptr;
  StorageObserver* observer_ = nullptr;
  /// One-page decoded cache. Mutable: reads route through it. In concurrent
  /// mode every access happens under the scheduler token, so there is no
  /// data race despite the shared Database.
  mutable uint32_t cached_page_ = kNoCachedPage;
  mutable std::vector<Row> cached_rows_;
  mutable bool cached_dirty_ = false;

  size_t live_rows_ = 0;
  size_t dead_slots_ = 0;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_HEAP_TABLE_H_
