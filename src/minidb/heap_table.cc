#include "minidb/heap_table.h"

#include <algorithm>
#include <utility>

#include "minidb/page_store.h"
#include "minidb/storage_serde.h"
#include "persist/io.h"

namespace lego::minidb {

namespace {
thread_local RowObserver* tls_row_observer = nullptr;
thread_local StorageObserver* tls_storage_observer = nullptr;
}  // namespace

RowObserver* RowHooks::Get() { return tls_row_observer; }
void RowHooks::Set(RowObserver* observer) { tls_row_observer = observer; }

StorageObserver* StorageHooks::Get() { return tls_storage_observer; }
void StorageHooks::Set(StorageObserver* observer) {
  tls_storage_observer = observer;
}

HeapTable::Page HeapTable::MakePage() {
  Page page;
  // Full-capacity reservation: slot storage never relocates, so references
  // held across a concurrent park stay valid.
  page.rows.reserve(kRowsPerPage);
  page.live.reserve(kRowsPerPage);
  return page;
}

// --- paged-mode cache machinery ---

std::string HeapTable::EncodeCachedPage() const {
  persist::StateWriter w;
  w.WriteU32(static_cast<uint32_t>(cached_rows_.size()));
  for (const Row& row : cached_rows_) SerializeRow(row, &w);
  return w.buffer();
}

void HeapTable::FlushCache() const {
  if (cached_page_ == kNoCachedPage || !cached_dirty_) return;
  if (cached_page_ >= ppages_.size()) {  // page vanished (Clear/Vacuum race)
    cached_dirty_ = false;
    return;
  }
  PagedPage& pp = ppages_[cached_page_];
  // A dirty page whose last write predates the current cow epoch is shared
  // with a snapshot transaction's catalog copy — write a fresh chain so the
  // snapshot keeps its bytes.
  const bool cow = store_->cow_active() && pp.cow_epoch != store_->cow_epoch();
  const std::string blob = EncodeCachedPage();
  store_->WriteBlob(&pp.chain, blob, cow);
  pp.cow_epoch = store_->cow_epoch();
  cached_dirty_ = false;
}

void HeapTable::LoadPage(uint32_t p) const {
  if (cached_page_ == p) return;
  FlushCache();
  cached_page_ = p;
  cached_rows_.clear();
  cached_dirty_ = false;
  const PagedPage& pp = ppages_[p];
  if (!pp.chain.empty()) {
    std::string blob;
    store_->ReadBlob(pp.chain, &blob);
    persist::StateReader r = persist::StateReader::FromPayload(std::move(blob));
    const uint32_t count = r.ReadU32();
    for (uint32_t i = 0; i < count && r.ok(); ++i) {
      cached_rows_.push_back(DeserializeRow(&r));
    }
    if (!r.ok()) cached_rows_.clear();  // torn/failed read: empty rows
  }
  // The resident metadata is authoritative for the slot count: an insert
  // grows slots before the blob is rewritten, and a failed read must still
  // yield an addressable page.
  cached_rows_.resize(ppages_[p].slots);
}

// --- insert ---

RowId HeapTable::PeekInsert() const {
  if (store_ != nullptr) {
    if (ppages_.empty() || ppages_.back().slots >= kRowsPerPage) {
      return RowId{static_cast<uint32_t>(ppages_.size()), 0};
    }
    const PagedPage& pp = ppages_.back();
    if (dead_slots_ > 0) {
      for (uint32_t i = 0; i < pp.slots; ++i) {
        if (!pp.live[i]) {
          return RowId{static_cast<uint32_t>(ppages_.size() - 1), i};
        }
      }
    }
    return RowId{static_cast<uint32_t>(ppages_.size() - 1), pp.slots};
  }
  if (pages_.empty() || pages_.back().rows.size() >= kRowsPerPage) {
    return RowId{static_cast<uint32_t>(pages_.size()), 0};
  }
  const Page& page = pages_.back();
  if (dead_slots_ > 0) {
    for (size_t i = 0; i < page.rows.size(); ++i) {
      if (!page.live[i]) {
        return RowId{static_cast<uint32_t>(pages_.size() - 1),
                     static_cast<uint32_t>(i)};
      }
    }
  }
  return RowId{static_cast<uint32_t>(pages_.size() - 1),
               static_cast<uint32_t>(page.rows.size())};
}

RowId HeapTable::PagedInsert(Row row) {
  if (ppages_.empty() || ppages_.back().slots >= kRowsPerPage) {
    ppages_.emplace_back();
    ppages_.back().cow_epoch = store_->cow_epoch();
  }
  const uint32_t p = static_cast<uint32_t>(ppages_.size() - 1);
  PagedPage& pp = ppages_[p];
  // Reuse a tombstoned slot on the tail page first (same policy as memory
  // mode — RowId assignment stays digest-identical).
  uint32_t slot = pp.slots;
  if (dead_slots_ > 0) {
    for (uint32_t i = 0; i < pp.slots; ++i) {
      if (!pp.live[i]) {
        slot = i;
        break;
      }
    }
  }
  LoadPage(p);
  if (slot < pp.slots) {
    cached_rows_[slot] = std::move(row);
    pp.live[slot] = 1;
    ++live_rows_;
    --dead_slots_;
  } else {
    cached_rows_.push_back(std::move(row));
    pp.live.push_back(1);
    ++pp.slots;
    ++live_rows_;
  }
  cached_dirty_ = true;
  return RowId{p, slot};
}

RowId HeapTable::Insert(Row row) {
  if (RowObserver* o = RowHooks::Get()) o->OnInsert(this);
  if (store_ != nullptr) {
    const RowId id = PagedInsert(std::move(row));
    if (StorageObserver* s = StorageHooks::Get()) s->OnPut(this, id, nullptr);
    return id;
  }
  if (pages_.empty() || pages_.back().rows.size() >= kRowsPerPage) {
    pages_.push_back(MakePage());
  }
  Page& page = pages_.back();
  // Reuse a tombstoned slot on the tail page first.
  if (dead_slots_ > 0) {
    for (size_t i = 0; i < page.rows.size(); ++i) {
      if (!page.live[i]) {
        page.rows[i] = std::move(row);
        page.live[i] = 1;
        ++live_rows_;
        --dead_slots_;
        const RowId id{static_cast<uint32_t>(pages_.size() - 1),
                       static_cast<uint32_t>(i)};
        if (StorageObserver* s = StorageHooks::Get()) {
          s->OnPut(this, id, nullptr);
        }
        return id;
      }
    }
  }
  page.rows.push_back(std::move(row));
  page.live.push_back(1);
  ++live_rows_;
  const RowId id{static_cast<uint32_t>(pages_.size() - 1),
                 static_cast<uint32_t>(page.rows.size() - 1)};
  if (StorageObserver* s = StorageHooks::Get()) s->OnPut(this, id, nullptr);
  return id;
}

// --- delete / update ---

bool HeapTable::PagedDelete(RowId id) {
  if (id.page >= ppages_.size()) return false;
  PagedPage& pp = ppages_[id.page];
  if (id.slot >= pp.slots || !pp.live[id.slot]) return false;
  LoadPage(id.page);
  Row before = std::move(cached_rows_[id.slot]);
  cached_rows_[id.slot].clear();
  pp.live[id.slot] = 0;
  --live_rows_;
  ++dead_slots_;
  cached_dirty_ = true;
  if (StorageObserver* s = StorageHooks::Get()) s->OnErase(this, id, before);
  return true;
}

bool HeapTable::Delete(RowId id) {
  if (RowObserver* o = RowHooks::Get()) o->OnDelete(this, id);
  if (store_ != nullptr) return PagedDelete(id);
  if (id.page >= pages_.size()) return false;
  Page& page = pages_[id.page];
  if (id.slot >= page.rows.size() || !page.live[id.slot]) return false;
  StorageObserver* s = StorageHooks::Get();
  Row before;
  if (s != nullptr) before = std::move(page.rows[id.slot]);
  page.live[id.slot] = 0;
  page.rows[id.slot].clear();
  --live_rows_;
  ++dead_slots_;
  if (s != nullptr) s->OnErase(this, id, before);
  return true;
}

bool HeapTable::PagedUpdate(RowId id, Row row) {
  if (id.page >= ppages_.size()) return false;
  PagedPage& pp = ppages_[id.page];
  if (id.slot >= pp.slots || !pp.live[id.slot]) return false;
  LoadPage(id.page);
  StorageObserver* s = StorageHooks::Get();
  Row before;
  if (s != nullptr) before = std::move(cached_rows_[id.slot]);
  cached_rows_[id.slot] = std::move(row);
  cached_dirty_ = true;
  if (s != nullptr) s->OnPut(this, id, &before);
  return true;
}

bool HeapTable::Update(RowId id, Row row) {
  if (RowObserver* o = RowHooks::Get()) o->OnUpdate(this, id);
  if (store_ != nullptr) return PagedUpdate(id, std::move(row));
  if (id.page >= pages_.size()) return false;
  Page& page = pages_[id.page];
  if (id.slot >= page.rows.size() || !page.live[id.slot]) return false;
  StorageObserver* s = StorageHooks::Get();
  Row before;
  if (s != nullptr) before = std::move(page.rows[id.slot]);
  page.rows[id.slot] = std::move(row);
  if (s != nullptr) s->OnPut(this, id, &before);
  return true;
}

// --- reads ---

const Row* HeapTable::PagedGetSlot(RowId id) const {
  if (id.page >= ppages_.size()) return nullptr;
  const PagedPage& pp = ppages_[id.page];
  if (id.slot >= pp.slots || !pp.live[id.slot]) return nullptr;
  LoadPage(id.page);
  return &cached_rows_[id.slot];
}

const Row* HeapTable::Get(RowId id) const {
  if (store_ != nullptr) {
    // Liveness metadata is resident: dead/out-of-range lookups never touch
    // the pager.
    if (id.page >= ppages_.size()) return nullptr;
    const PagedPage& pp = ppages_[id.page];
    if (id.slot >= pp.slots || !pp.live[id.slot]) return nullptr;
    if (RowObserver* o = RowHooks::Get()) {
      o->OnRead(this, id);
      if (!pp.live[id.slot]) return nullptr;
    }
    // Load *after* the observer: parking may have let another session swap
    // the decoded cache to a different page.
    return PagedGetSlot(id);
  }
  if (id.page >= pages_.size()) return nullptr;
  const Page& page = pages_[id.page];
  if (id.slot >= page.rows.size() || !page.live[id.slot]) return nullptr;
  if (RowObserver* o = RowHooks::Get()) {
    o->OnRead(this, id);
    // Re-check: the observer may have parked this session and (under a
    // planted isolation defect) the row may have died meanwhile.
    if (!page.live[id.slot]) return nullptr;
  }
  return &page.rows[id.slot];
}

const Row* HeapTable::RawRow(RowId id) const {
  if (store_ != nullptr) return PagedGetSlot(id);
  if (id.page >= pages_.size()) return nullptr;
  const Page& page = pages_[id.page];
  if (id.slot >= page.rows.size() || !page.live[id.slot]) return nullptr;
  return &page.rows[id.slot];
}

bool HeapTable::ResurrectAt(RowId id, Row row) {
  if (store_ != nullptr) {
    if (id.page >= ppages_.size()) return false;
    PagedPage& pp = ppages_[id.page];
    if (id.slot >= pp.slots || pp.live[id.slot]) return false;
    LoadPage(id.page);
    cached_rows_[id.slot] = std::move(row);
    pp.live[id.slot] = 1;
    ++live_rows_;
    --dead_slots_;
    cached_dirty_ = true;
    if (StorageObserver* s = StorageHooks::Get()) s->OnStructural(this);
    return true;
  }
  if (id.page >= pages_.size()) return false;
  Page& page = pages_[id.page];
  if (id.slot >= page.rows.size() || page.live[id.slot]) return false;
  page.rows[id.slot] = std::move(row);
  page.live[id.slot] = 1;
  ++live_rows_;
  --dead_slots_;
  if (StorageObserver* s = StorageHooks::Get()) s->OnStructural(this);
  return true;
}

void HeapTable::Scan(const std::function<bool(RowId, const Row&)>& fn) const {
  if (store_ != nullptr) {
    for (uint32_t p = 0; p < ppages_.size(); ++p) {
      const PagedPage& pp = ppages_[p];
      for (uint32_t s = 0; s < pp.slots; ++s) {
        if (!pp.live[s]) continue;
        if (RowObserver* o = RowHooks::Get()) {
          o->OnRead(this, RowId{p, s});
          if (!pp.live[s]) continue;  // died while parked (planted defects)
        }
        LoadPage(p);
        // Copy out: the callback may itself read this heap (subqueries,
        // index maintenance) and swap the decoded cache under us.
        const Row row = cached_rows_[s];
        if (!fn(RowId{p, s}, row)) return;
      }
    }
    return;
  }
  for (uint32_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    for (uint32_t s = 0; s < page.rows.size(); ++s) {
      if (!page.live[s]) continue;
      if (RowObserver* o = RowHooks::Get()) {
        o->OnRead(this, RowId{p, s});
        if (!page.live[s]) continue;  // died while parked (planted defects)
      }
      if (!fn(RowId{p, s}, page.rows[s])) return;
    }
  }
}

double HeapTable::DeadFraction() const {
  size_t total = live_rows_ + dead_slots_;
  return total == 0 ? 0.0 : static_cast<double>(dead_slots_) / total;
}

void HeapTable::Vacuum() {
  if (store_ != nullptr) {
    // Collect survivors (copies — the decoded cache is being torn down),
    // then rebuild fresh fully-packed pages. Old chains become garbage for
    // the next checkpoint sweep; they may still back a snapshot copy.
    std::vector<Row> survivors;
    survivors.reserve(live_rows_);
    for (uint32_t p = 0; p < ppages_.size(); ++p) {
      const PagedPage& pp = ppages_[p];
      for (uint32_t s = 0; s < pp.slots; ++s) {
        if (!pp.live[s]) continue;
        LoadPage(p);
        survivors.push_back(cached_rows_[s]);
      }
    }
    ppages_.clear();
    cached_page_ = kNoCachedPage;
    cached_rows_.clear();
    cached_dirty_ = false;
    live_rows_ = survivors.size();
    dead_slots_ = 0;
    for (size_t off = 0; off < survivors.size(); off += kRowsPerPage) {
      const size_t n = std::min<size_t>(kRowsPerPage, survivors.size() - off);
      ppages_.emplace_back();
      PagedPage& pp = ppages_.back();
      pp.slots = static_cast<uint32_t>(n);
      pp.live.assign(n, 1);
      pp.cow_epoch = store_->cow_epoch();
      persist::StateWriter w;
      w.WriteU32(static_cast<uint32_t>(n));
      for (size_t i = 0; i < n; ++i) SerializeRow(survivors[off + i], &w);
      store_->WriteBlob(&pp.chain, w.buffer(), /*copy_on_write=*/false);
    }
    if (StorageObserver* s = StorageHooks::Get()) s->OnStructural(this);
    return;
  }
  std::deque<Page> compacted;
  for (Page& page : pages_) {
    for (size_t i = 0; i < page.rows.size(); ++i) {
      if (!page.live[i]) continue;
      if (compacted.empty() || compacted.back().rows.size() >= kRowsPerPage) {
        compacted.push_back(MakePage());
      }
      compacted.back().rows.push_back(std::move(page.rows[i]));
      compacted.back().live.push_back(1);
    }
  }
  pages_ = std::move(compacted);
  dead_slots_ = 0;
  if (StorageObserver* s = StorageHooks::Get()) s->OnStructural(this);
}

void HeapTable::Clear() {
  pages_.clear();
  // Paged mode: chains are orphaned, not freed — a snapshot copy may still
  // reference them. The checkpoint sweep reclaims them.
  ppages_.clear();
  cached_page_ = kNoCachedPage;
  cached_rows_.clear();
  cached_dirty_ = false;
  live_rows_ = 0;
  dead_slots_ = 0;
  if (StorageObserver* s = StorageHooks::Get()) s->OnStructural(this);
}

void HeapTable::VisitSlots(
    const std::function<void(RowId, bool, const Row&)>& fn) const {
  if (store_ != nullptr) {
    for (uint32_t p = 0; p < ppages_.size(); ++p) {
      const PagedPage& pp = ppages_[p];
      for (uint32_t s = 0; s < pp.slots; ++s) {
        LoadPage(p);  // re-assert per slot: fn may read through this heap
        fn(RowId{p, s}, pp.live[s] != 0, cached_rows_[s]);
      }
    }
    return;
  }
  for (uint32_t p = 0; p < pages_.size(); ++p) {
    const Page& page = pages_[p];
    for (uint32_t s = 0; s < page.rows.size(); ++s) {
      fn(RowId{p, s}, page.live[s] != 0, page.rows[s]);
    }
  }
}

void HeapTable::AppendRawPage() {
  if (store_ != nullptr) {
    ppages_.emplace_back();
    ppages_.back().cow_epoch = store_->cow_epoch();
    return;
  }
  pages_.push_back(MakePage());
}

void HeapTable::AppendRawSlot(Row row, bool live) {
  if (store_ != nullptr) {
    if (ppages_.empty() || ppages_.back().slots >= kRowsPerPage) {
      AppendRawPage();
    }
    const uint32_t p = static_cast<uint32_t>(ppages_.size() - 1);
    PagedPage& pp = ppages_[p];
    LoadPage(p);
    cached_rows_.push_back(std::move(row));
    pp.live.push_back(live ? 1 : 0);
    ++pp.slots;
    cached_dirty_ = true;
    if (live) {
      ++live_rows_;
    } else {
      ++dead_slots_;
    }
    return;
  }
  if (pages_.empty() || pages_.back().rows.size() >= kRowsPerPage) {
    pages_.push_back(MakePage());
  }
  Page& page = pages_.back();
  page.rows.push_back(std::move(row));
  page.live.push_back(live ? 1 : 0);
  if (live) {
    ++live_rows_;
  } else {
    ++dead_slots_;
  }
}

void HeapTable::ApplyPut(RowId id, Row row) {
  if (store_ != nullptr) {
    while (ppages_.size() <= id.page) {
      ppages_.emplace_back();
      ppages_.back().cow_epoch = store_->cow_epoch();
    }
    PagedPage& pp = ppages_[id.page];
    LoadPage(id.page);
    while (pp.slots <= id.slot && pp.slots < kRowsPerPage) {
      cached_rows_.emplace_back();
      pp.live.push_back(0);
      ++pp.slots;
      ++dead_slots_;
      cached_dirty_ = true;
    }
    if (id.slot >= pp.slots) return;  // malformed record; skip
    if (!pp.live[id.slot]) {
      pp.live[id.slot] = 1;
      ++live_rows_;
      --dead_slots_;
    }
    cached_rows_[id.slot] = std::move(row);
    cached_dirty_ = true;
    return;
  }
  while (pages_.size() <= id.page) pages_.push_back(MakePage());
  Page& page = pages_[id.page];
  while (page.rows.size() <= id.slot && page.rows.size() < kRowsPerPage) {
    page.rows.emplace_back();
    page.live.push_back(0);
    ++dead_slots_;
  }
  if (id.slot >= page.rows.size()) return;  // malformed record; skip
  if (!page.live[id.slot]) {
    page.live[id.slot] = 1;
    ++live_rows_;
    --dead_slots_;
  }
  page.rows[id.slot] = std::move(row);
}

void HeapTable::ApplyDelete(RowId id) {
  if (store_ != nullptr) {
    if (id.page >= ppages_.size()) return;
    PagedPage& pp = ppages_[id.page];
    if (id.slot >= pp.slots || !pp.live[id.slot]) return;
    LoadPage(id.page);
    cached_rows_[id.slot].clear();
    pp.live[id.slot] = 0;
    --live_rows_;
    ++dead_slots_;
    cached_dirty_ = true;
    return;
  }
  if (id.page >= pages_.size()) return;
  Page& page = pages_[id.page];
  if (id.slot >= page.rows.size() || !page.live[id.slot]) return;
  page.live[id.slot] = 0;
  page.rows[id.slot].clear();
  --live_rows_;
  ++dead_slots_;
}

// --- paged mode wiring ---

void HeapTable::AttachStore(PageStore* store) {
  if (store_ == store) return;
  store_ = store;
  ppages_.clear();
  cached_page_ = kNoCachedPage;
  cached_rows_.clear();
  cached_dirty_ = false;
  for (Page& page : pages_) {
    ppages_.emplace_back();
    PagedPage& pp = ppages_.back();
    pp.live = page.live;
    pp.slots = static_cast<uint32_t>(page.rows.size());
    pp.cow_epoch = store_->cow_epoch();
    persist::StateWriter w;
    w.WriteU32(pp.slots);
    for (const Row& row : page.rows) SerializeRow(row, &w);
    store_->WriteBlob(&pp.chain, w.buffer(), /*copy_on_write=*/false);
  }
  pages_.clear();
}

void HeapTable::CollectChainPages(std::set<uint32_t>* live) const {
  for (const PagedPage& pp : ppages_) {
    live->insert(pp.chain.begin(), pp.chain.end());
  }
}

}  // namespace lego::minidb
