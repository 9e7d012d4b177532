#include "minidb/heap_table.h"

#include <algorithm>
#include <utility>

#include "minidb/page_store.h"
#include "minidb/storage_serde.h"
#include "persist/io.h"

namespace lego::minidb {

namespace {
thread_local RowObserver* tls_row_observer = nullptr;
}  // namespace

RowObserver* RowHooks::Get() { return tls_row_observer; }
void RowHooks::Set(RowObserver* observer) { tls_row_observer = observer; }

namespace {
std::string EncodeRows(const std::vector<Row>& rows) {
  persist::StateWriter w;
  w.WriteU32(static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) SerializeRow(row, &w);
  return w.buffer();
}
}  // namespace

// --- where the rows are ---

const std::vector<Row>& HeapTable::Rows(uint32_t p) const {
  if (store_ == nullptr) return pages_[p].rows;
  LoadPage(p);
  return cached_rows_;
}

std::vector<Row>& HeapTable::MutableRows(uint32_t p) {
  if (store_ == nullptr) return pages_[p].rows;
  LoadPage(p);
  cached_dirty_ = true;
  return cached_rows_;
}

void HeapTable::FlushCache() const {
  if (cached_page_ == kNoCachedPage || !cached_dirty_) return;
  if (cached_page_ >= pages_.size()) {  // page vanished (Clear/Vacuum race)
    cached_dirty_ = false;
    return;
  }
  const Page& page = pages_[cached_page_];
  // A dirty page whose last write predates the current cow epoch is shared
  // with a snapshot transaction's catalog copy — write a fresh chain so the
  // snapshot keeps its bytes.
  const bool cow =
      store_->cow_active() && page.cow_epoch != store_->cow_epoch();
  store_->WriteBlob(&page.chain, EncodeRows(cached_rows_), cow);
  page.cow_epoch = store_->cow_epoch();
  cached_dirty_ = false;
}

void HeapTable::LoadPage(uint32_t p) const {
  if (cached_page_ == p) return;
  FlushCache();
  cached_page_ = p;
  cached_rows_.clear();
  cached_dirty_ = false;
  const Page& page = pages_[p];
  if (!page.chain.empty()) {
    std::string blob;
    store_->ReadBlob(page.chain, &blob);
    persist::StateReader r = persist::StateReader::FromPayload(std::move(blob));
    const uint32_t count = r.ReadU32();
    for (uint32_t i = 0; i < count && r.ok(); ++i) {
      cached_rows_.push_back(DeserializeRow(&r));
    }
    if (!r.ok()) cached_rows_.clear();  // torn/failed read: empty rows
  }
  // The resident liveness bits are authoritative for the slot count: an
  // insert grows the page before the blob is rewritten, and a failed read
  // must still yield an addressable page.
  cached_rows_.resize(page.live.size());
}

void HeapTable::DropCache() {
  cached_page_ = kNoCachedPage;
  cached_rows_.clear();
  cached_dirty_ = false;
}

// --- slots ---

bool HeapTable::IsAllocated(RowId id) const {
  return id.page < pages_.size() && id.slot < pages_[id.page].live.size();
}

bool HeapTable::IsLive(RowId id) const {
  return IsAllocated(id) && pages_[id.page].live[id.slot] != 0;
}

void HeapTable::PutSlot(RowId id, Row row) {
  MutableRows(id.page)[id.slot] = std::move(row);
  uint8_t& live = pages_[id.page].live[id.slot];
  if (live == 0) {
    live = 1;
    ++live_rows_;
    --dead_slots_;
  }
}

Row HeapTable::KillSlot(RowId id) {
  std::vector<Row>& rows = MutableRows(id.page);
  Row before = std::move(rows[id.slot]);
  rows[id.slot].clear();
  pages_[id.page].live[id.slot] = 0;
  --live_rows_;
  ++dead_slots_;
  return before;
}

// --- insert ---

RowId HeapTable::PeekInsert() const {
  if (pages_.empty() || pages_.back().live.size() >= kRowsPerPage) {
    return RowId{static_cast<uint32_t>(pages_.size()), 0};
  }
  // Reuse the first tombstoned slot on the tail page, else append.
  const std::vector<uint8_t>& live = pages_.back().live;
  const auto slot = dead_slots_ > 0 ? std::find(live.begin(), live.end(), 0)
                                    : live.end();
  return RowId{static_cast<uint32_t>(pages_.size() - 1),
               static_cast<uint32_t>(slot - live.begin())};
}

RowId HeapTable::Insert(Row row) {
  if (RowObserver* o = RowHooks::Get()) o->OnInsert(this);
  const RowId id = PeekInsert();
  if (IsAllocated(id)) {
    PutSlot(id, std::move(row));
  } else {
    AppendRawSlot(std::move(row), /*live=*/true);
  }
  if (observer_ != nullptr) observer_->OnPut(this, id, nullptr);
  return id;
}

// --- delete / update ---

bool HeapTable::Delete(RowId id) {
  if (RowObserver* o = RowHooks::Get()) o->OnDelete(this, id);
  if (!IsLive(id)) return false;
  const Row before = KillSlot(id);
  if (observer_ != nullptr) observer_->OnErase(this, id, before);
  return true;
}

bool HeapTable::Update(RowId id, Row row) {
  if (RowObserver* o = RowHooks::Get()) o->OnUpdate(this, id);
  if (!IsLive(id)) return false;
  Row& slot = MutableRows(id.page)[id.slot];
  Row before;
  if (observer_ != nullptr) before = std::move(slot);
  slot = std::move(row);
  if (observer_ != nullptr) observer_->OnPut(this, id, &before);
  return true;
}

// --- reads ---

const Row* HeapTable::Get(RowId id) const {
  if (!IsLive(id)) return nullptr;
  if (RowObserver* o = RowHooks::Get()) {
    o->OnRead(this, id);
    // Re-check: the observer may have parked this session and (under a
    // planted isolation defect) the row may have died meanwhile.
    if (!IsLive(id)) return nullptr;
  }
  // Read *after* the observer: parking may have let another session swap
  // the decoded cache to a different page.
  return &Rows(id.page)[id.slot];
}

const Row* HeapTable::RawRow(RowId id) const {
  return IsLive(id) ? &Rows(id.page)[id.slot] : nullptr;
}

bool HeapTable::ResurrectAt(RowId id, Row row) {
  if (!IsAllocated(id) || IsLive(id)) return false;
  PutSlot(id, std::move(row));
  if (observer_ != nullptr) observer_->OnStructural(this);
  return true;
}

void HeapTable::Scan(const std::function<bool(RowId, const Row&)>& fn) const {
  // `page` stays valid while another session, or the callback, appends
  // pages: growing a deque never moves its elements.
  for (uint32_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    for (uint32_t s = 0; s < page.live.size(); ++s) {
      if (!page.live[s]) continue;
      const RowId id{p, s};
      if (RowObserver* o = RowHooks::Get()) {
        o->OnRead(this, id);
        if (!page.live[s]) continue;  // died while parked (planted defects)
      }
      // Memory mode hands over the resident row. Paged mode hands over a
      // copy: the callback may itself read this heap (subqueries, index
      // maintenance) and swap the decoded cache under us.
      const Row& row = Rows(p)[s];
      if (!(store_ == nullptr ? fn(id, row) : fn(id, Row(row)))) return;
    }
  }
}

double HeapTable::DeadFraction() const {
  size_t total = live_rows_ + dead_slots_;
  return total == 0 ? 0.0 : static_cast<double>(dead_slots_) / total;
}

void HeapTable::Vacuum() {
  // Collect the survivors, then rebuild fully-packed pages. In paged mode
  // the old chains become garbage for the next checkpoint sweep; they may
  // still back a snapshot copy.
  std::vector<Row> survivors;
  survivors.reserve(live_rows_);
  for (uint32_t p = 0; p < pages_.size(); ++p) {
    for (uint32_t s = 0; s < pages_[p].live.size(); ++s) {
      if (!pages_[p].live[s]) continue;
      // Memory mode moves the rows out; paged mode copies them, since the
      // decoded cache is torn down.
      if (store_ == nullptr) {
        survivors.push_back(std::move(MutableRows(p)[s]));
      } else {
        survivors.push_back(Rows(p)[s]);
      }
    }
  }
  pages_.clear();
  DropCache();
  live_rows_ = 0;
  dead_slots_ = 0;
  for (Row& row : survivors) AppendRawSlot(std::move(row), /*live=*/true);
  // Write the last page now and leave the cache empty, so the pager sees
  // every rebuilt page written once, in order.
  FlushCache();
  DropCache();
  if (observer_ != nullptr) observer_->OnStructural(this);
}

void HeapTable::Clear() {
  // Paged mode: chains are orphaned, not freed — a snapshot copy may still
  // reference them. The checkpoint sweep reclaims them.
  pages_.clear();
  DropCache();
  live_rows_ = 0;
  dead_slots_ = 0;
  if (observer_ != nullptr) observer_->OnStructural(this);
}

void HeapTable::VisitSlots(
    const std::function<void(RowId, bool, const Row&)>& fn) const {
  for (uint32_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    for (uint32_t s = 0; s < page.live.size(); ++s) {
      // Rows() per slot: fn may read through this heap.
      fn(RowId{p, s}, page.live[s] != 0, Rows(p)[s]);
    }
  }
}

void HeapTable::AppendRawPage() {
  Page& page = pages_.emplace_back();
  page.live.reserve(kRowsPerPage);
  if (store_ == nullptr) {
    // Full-capacity reservation: slot storage never relocates, so
    // references held across a concurrent park stay valid.
    page.rows.reserve(kRowsPerPage);
  } else {
    page.cow_epoch = store_->cow_epoch();
  }
}

void HeapTable::AppendRawSlot(Row row, bool live) {
  if (pages_.empty() || pages_.back().live.size() >= kRowsPerPage) {
    AppendRawPage();
  }
  const uint32_t p = static_cast<uint32_t>(pages_.size() - 1);
  MutableRows(p).push_back(std::move(row));
  pages_[p].live.push_back(live ? 1 : 0);
  if (live) {
    ++live_rows_;
  } else {
    ++dead_slots_;
  }
}

void HeapTable::ApplyPut(RowId id, Row row) {
  while (pages_.size() <= id.page) AppendRawPage();
  std::vector<uint8_t>& live = pages_[id.page].live;
  const size_t slots = std::min<size_t>(size_t{id.slot} + 1, kRowsPerPage);
  if (live.size() < slots) {
    MutableRows(id.page).resize(slots);
    dead_slots_ += slots - live.size();
    live.resize(slots, 0);
  }
  // A malformed record (slot past capacity) is skipped; it dirties no page
  // unless it grew one above.
  if (id.slot >= live.size()) return;
  PutSlot(id, std::move(row));
}

void HeapTable::ApplyDelete(RowId id) {
  if (IsLive(id)) KillSlot(id);
}

// --- paged mode wiring ---

void HeapTable::AttachStore(PageStore* store, StorageObserver* observer) {
  observer_ = observer;
  if (store_ == store) return;
  store_ = store;
  DropCache();
  for (Page& page : pages_) {
    page.cow_epoch = store_->cow_epoch();
    store_->WriteBlob(&page.chain, EncodeRows(page.rows),
                      /*copy_on_write=*/false);
    page.rows = {};
  }
}

void HeapTable::CollectChainPages(std::set<uint32_t>* live) const {
  for (const Page& page : pages_) {
    live->insert(page.chain.begin(), page.chain.end());
  }
}

}  // namespace lego::minidb
