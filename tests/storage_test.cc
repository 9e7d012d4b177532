#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "minidb/btree.h"
#include "minidb/env.h"
#include "minidb/heap_table.h"
#include "minidb/page_store.h"
#include "util/random.h"

namespace lego::minidb {
namespace {

TEST(HeapTableTest, InsertGetDelete) {
  HeapTable heap;
  RowId id = heap.Insert({Value::Int(1), Value::Text("a")});
  ASSERT_NE(heap.Get(id), nullptr);
  EXPECT_EQ((*heap.Get(id))[0].AsInt(), 1);
  EXPECT_EQ(heap.LiveRowCount(), 1u);
  EXPECT_TRUE(heap.Delete(id));
  EXPECT_EQ(heap.Get(id), nullptr);
  EXPECT_FALSE(heap.Delete(id));  // double delete
  EXPECT_EQ(heap.LiveRowCount(), 0u);
}

TEST(HeapTableTest, PagesFillAtCapacity) {
  HeapTable heap;
  for (uint32_t i = 0; i < HeapTable::kRowsPerPage + 1; ++i) {
    heap.Insert({Value::Int(i)});
  }
  EXPECT_EQ(heap.PageCount(), 2u);
  EXPECT_EQ(heap.LiveRowCount(), HeapTable::kRowsPerPage + 1);
}

TEST(HeapTableTest, UpdateInPlace) {
  HeapTable heap;
  RowId id = heap.Insert({Value::Int(1)});
  EXPECT_TRUE(heap.Update(id, {Value::Int(2)}));
  EXPECT_EQ((*heap.Get(id))[0].AsInt(), 2);
  heap.Delete(id);
  EXPECT_FALSE(heap.Update(id, {Value::Int(3)}));
}

TEST(HeapTableTest, ScanVisitsLiveRowsInOrder) {
  HeapTable heap;
  for (int i = 0; i < 10; ++i) heap.Insert({Value::Int(i)});
  heap.Delete(RowId{0, 3});
  std::vector<int64_t> seen;
  heap.Scan([&](RowId, const Row& row) {
    seen.push_back(row[0].AsInt());
    return true;
  });
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 3), 0);
}

TEST(HeapTableTest, ScanEarlyStop) {
  HeapTable heap;
  for (int i = 0; i < 10; ++i) heap.Insert({Value::Int(i)});
  int visited = 0;
  heap.Scan([&](RowId, const Row&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3);
}

TEST(HeapTableTest, VacuumCompactsAndDropsTombstones) {
  HeapTable heap;
  for (uint32_t i = 0; i < 200; ++i) heap.Insert({Value::Int(i)});
  for (uint32_t i = 0; i < 200; i += 2) {
    heap.Delete(RowId{i / HeapTable::kRowsPerPage,
                      i % HeapTable::kRowsPerPage});
  }
  EXPECT_GT(heap.DeadFraction(), 0.0);
  size_t live_before = heap.LiveRowCount();
  heap.Vacuum();
  EXPECT_EQ(heap.LiveRowCount(), live_before);
  EXPECT_EQ(heap.DeadFraction(), 0.0);
  // All survivors are odd.
  heap.Scan([&](RowId, const Row& row) {
    EXPECT_EQ(row[0].AsInt() % 2, 1);
    return true;
  });
}

TEST(BTreeTest, InsertFindErase) {
  BTreeIndex tree;
  tree.Insert(Value::Int(1), RowId{0, 0});
  tree.Insert(Value::Int(1), RowId{0, 1});  // duplicate key
  tree.Insert(Value::Int(2), RowId{0, 2});
  EXPECT_EQ(tree.Find(Value::Int(1)).size(), 2u);
  EXPECT_EQ(tree.Find(Value::Int(3)).size(), 0u);
  EXPECT_EQ(tree.EntryCount(), 3u);
  EXPECT_EQ(tree.KeyCount(), 2u);
  EXPECT_TRUE(tree.Erase(Value::Int(1), RowId{0, 0}));
  EXPECT_EQ(tree.Find(Value::Int(1)).size(), 1u);
  EXPECT_FALSE(tree.Erase(Value::Int(1), RowId{0, 0}));  // already gone
  EXPECT_FALSE(tree.Erase(Value::Int(9), RowId{0, 0}));  // absent key
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTreeIndex tree;
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(Value::Int(i), RowId{0, static_cast<uint32_t>(i)});
  }
  EXPECT_GT(tree.Height(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(tree.Find(Value::Int(i)).size(), 1u) << i;
  }
}

TEST(BTreeTest, RangeQueries) {
  BTreeIndex tree;
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Value::Int(i), RowId{0, static_cast<uint32_t>(i)});
  }
  Value lo = Value::Int(10);
  Value hi = Value::Int(20);
  EXPECT_EQ(tree.Range(&lo, true, &hi, true).size(), 11u);
  EXPECT_EQ(tree.Range(&lo, false, &hi, false).size(), 9u);
  EXPECT_EQ(tree.Range(nullptr, true, &hi, true).size(), 21u);
  EXPECT_EQ(tree.Range(&lo, true, nullptr, true).size(), 90u);
  EXPECT_EQ(tree.Range(nullptr, true, nullptr, true).size(), 100u);
}

TEST(BTreeTest, RangeReturnsKeysInOrder) {
  BTreeIndex tree;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    tree.Insert(Value::Int(static_cast<int64_t>(rng.NextBelow(10000))),
                RowId{0, static_cast<uint32_t>(i)});
  }
  auto rids = tree.Range(nullptr, true, nullptr, true);
  EXPECT_EQ(rids.size(), 500u);
}

TEST(BTreeTest, MixedTypeKeysFollowTotalOrder) {
  BTreeIndex tree;
  tree.Insert(Value::Null(), RowId{0, 0});
  tree.Insert(Value::Bool(true), RowId{0, 1});
  tree.Insert(Value::Int(5), RowId{0, 2});
  tree.Insert(Value::Text("x"), RowId{0, 3});
  EXPECT_TRUE(tree.CheckInvariants());
  Value lo = Value::Int(0);
  // Everything >= Int(0): the int and the text (text sorts above numeric).
  EXPECT_EQ(tree.Range(&lo, true, nullptr, true).size(), 2u);
}

TEST(BTreeTest, CopyIsIndependent) {
  BTreeIndex tree;
  for (int i = 0; i < 300; ++i) {
    tree.Insert(Value::Int(i), RowId{0, static_cast<uint32_t>(i)});
  }
  BTreeIndex copy = tree;
  EXPECT_TRUE(copy.CheckInvariants());
  EXPECT_EQ(copy.EntryCount(), tree.EntryCount());
  copy.Erase(Value::Int(5), RowId{0, 5});
  EXPECT_EQ(tree.Find(Value::Int(5)).size(), 1u);
  EXPECT_EQ(copy.Find(Value::Int(5)).size(), 0u);
  // Leaf chain of the copy must be intact for range scans.
  EXPECT_EQ(copy.Range(nullptr, true, nullptr, true).size(), 299u);
}

// Property sweep: a random operation sequence must agree with a reference
// std::multimap at every checkpoint, across several seeds.
class BTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreePropertyTest, AgreesWithReferenceModel) {
  Rng rng(GetParam());
  BTreeIndex tree;
  std::multimap<int64_t, uint32_t> model;

  for (int step = 0; step < 3000; ++step) {
    int64_t key = static_cast<int64_t>(rng.NextBelow(200));
    if (rng.NextBool(0.6)) {
      uint32_t rid = static_cast<uint32_t>(step);
      tree.Insert(Value::Int(key), RowId{0, rid});
      model.emplace(key, rid);
    } else {
      auto it = model.find(key);
      if (it != model.end()) {
        EXPECT_TRUE(tree.Erase(Value::Int(key), RowId{0, it->second}));
        model.erase(it);
      } else {
        EXPECT_TRUE(tree.Find(Value::Int(key)).empty());
      }
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "step " << step;
      ASSERT_EQ(tree.EntryCount(), model.size());
    }
  }
  ASSERT_TRUE(tree.CheckInvariants());
  // Final: every key's posting size matches the model.
  for (int64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(tree.Find(Value::Int(key)).size(), model.count(key)) << key;
  }
  // Range over the whole tree matches the model size.
  EXPECT_EQ(tree.Range(nullptr, true, nullptr, true).size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 99u));

// Property sweep for the heap, in memory mode and in paged mode: a random
// operation sequence must agree with a reference model of the slot layout.

// One allocated slot per entry; nullopt is a tombstone.
using SlotModel = std::vector<std::vector<std::optional<int64_t>>>;

// (page, slot, live, row text) for every allocated slot, in physical order.
using SlotList = std::vector<std::tuple<uint32_t, uint32_t, bool, std::string>>;

// Rows carry a text payload so that a full 64-slot page spans more than one
// 8 KiB physical page in paged mode.
Row HeapRow(int64_t v) {
  const char fill = static_cast<char>('a' + (v & 15));
  return {Value::Int(v), Value::Text(std::string(150, fill))};
}

std::string RowText(const Row& row) {
  std::string out;
  for (const Value& v : row) out += v.ToString() + ";";
  return out;
}

// A heap in memory mode (frames == 0), or in paged mode over a PageStore on
// a MemEnv with `frames` pool frames.
class HeapUnderTest {
 public:
  explicit HeapUnderTest(size_t frames) {
    if (frames == 0) return;
    store_ = std::make_unique<PageStore>(&env_, "heap.pages", frames,
                                         /*panic_on_error=*/false);
    EXPECT_TRUE(store_->Reset().ok());
    heap_.AttachStore(store_.get(), /*observer=*/nullptr);
  }

  HeapTable& heap() { return heap_; }
  uint64_t blob_writes() const {
    return store_ != nullptr ? store_->stats().blob_writes : 0;
  }
  uint64_t evictions() const {
    return store_ != nullptr ? store_->pool_stats().evictions : 0;
  }

 private:
  MemEnv env_;
  std::unique_ptr<PageStore> store_;
  HeapTable heap_;
};

// What an operation sequence leaves observable: every RowId an Insert
// returned, and the final slot layout.
struct HeapTrace {
  std::vector<RowId> inserted;
  SlotList slots;
  size_t live_rows = 0;
  size_t pages = 0;
};

SlotList SlotsOf(const HeapTable& heap) {
  SlotList out;
  heap.VisitSlots([&](RowId id, bool live, const Row& row) {
    out.emplace_back(id.page, id.slot, live, live ? RowText(row) : "");
  });
  return out;
}

SlotList SlotsOf(const SlotModel& model) {
  SlotList out;
  for (uint32_t p = 0; p < model.size(); ++p) {
    for (uint32_t s = 0; s < model[p].size(); ++s) {
      const bool live = model[p][s].has_value();
      out.emplace_back(p, s, live, live ? RowText(HeapRow(*model[p][s])) : "");
    }
  }
  return out;
}

// Every slot of the model that is live (or dead), in physical order.
std::vector<RowId> ModelSlots(const SlotModel& model, bool live) {
  std::vector<RowId> out;
  for (uint32_t p = 0; p < model.size(); ++p) {
    for (uint32_t s = 0; s < model[p].size(); ++s) {
      if (model[p][s].has_value() == live) out.push_back(RowId{p, s});
    }
  }
  return out;
}

size_t ModelLiveRows(const SlotModel& model) {
  return ModelSlots(model, /*live=*/true).size();
}

// The model's Insert: reuse the first tombstone on the tail page, else
// append, rolling to a new page at capacity.
RowId ModelInsert(SlotModel* model, int64_t v) {
  if (model->empty() || model->back().size() >= HeapTable::kRowsPerPage) {
    model->emplace_back();
  }
  auto& tail = model->back();
  const uint32_t p = static_cast<uint32_t>(model->size() - 1);
  for (uint32_t s = 0; s < tail.size(); ++s) {
    if (!tail[s].has_value()) {
      tail[s] = v;
      return RowId{p, s};
    }
  }
  tail.emplace_back(v);
  return RowId{p, static_cast<uint32_t>(tail.size() - 1)};
}

// Runs `steps` random operations from `seed` on `h`, checking each result
// against the model, and returns the trace.
HeapTrace RunHeapOps(uint64_t seed, int steps, HeapUnderTest* h) {
  Rng rng(seed);
  HeapTable& heap = h->heap();
  SlotModel model;
  HeapTrace trace;
  auto pick = [&](const std::vector<RowId>& ids) {
    return ids[rng.NextBelow(ids.size())];
  };
  auto random_slot = [&]() {
    return RowId{
        static_cast<uint32_t>(rng.NextBelow(model.size() + 1)),
        static_cast<uint32_t>(rng.NextBelow(HeapTable::kRowsPerPage))};
  };
  auto model_live = [&](RowId id) {
    return id.page < model.size() && id.slot < model[id.page].size() &&
           model[id.page][id.slot].has_value();
  };

  for (int step = 0; step < steps; ++step) {
    const int64_t v = step;
    const double dice = rng.NextDouble();
    const std::vector<RowId> live = ModelSlots(model, /*live=*/true);
    const std::vector<RowId> dead = ModelSlots(model, /*live=*/false);
    if (dice < 0.36 || live.empty()) {
      const RowId peek = heap.PeekInsert();
      const RowId id = heap.Insert(HeapRow(v));
      EXPECT_EQ(peek, id) << "step " << step;
      EXPECT_EQ(id, ModelInsert(&model, v)) << "step " << step;
      trace.inserted.push_back(id);
    } else if (dice < 0.52) {
      const RowId id = pick(live);
      EXPECT_TRUE(heap.Delete(id)) << "step " << step;
      EXPECT_FALSE(heap.Delete(id)) << "step " << step;
      model[id.page][id.slot].reset();
    } else if (dice < 0.64) {
      const RowId id = pick(live);
      EXPECT_TRUE(heap.Update(id, HeapRow(-v))) << "step " << step;
      model[id.page][id.slot] = -v;
    } else if (dice < 0.70) {
      // ResurrectAt fills a tombstone and refuses a live slot.
      EXPECT_FALSE(heap.ResurrectAt(pick(live), HeapRow(v)));
      if (!dead.empty()) {
        const RowId id = pick(dead);
        EXPECT_TRUE(heap.ResurrectAt(id, HeapRow(v))) << "step " << step;
        model[id.page][id.slot] = v;
      }
    } else if (dice < 0.76) {
      // Redo put anywhere up to one page past the end: the missing pages
      // and the slots below it appear as tombstones.
      const RowId id = random_slot();
      heap.ApplyPut(id, HeapRow(v));
      while (model.size() <= id.page) model.emplace_back();
      auto& page = model[id.page];
      while (page.size() <= id.slot) page.emplace_back();
      page[id.slot] = v;
    } else if (dice < 0.82) {
      const RowId id = random_slot();
      heap.ApplyDelete(id);
      if (model_live(id)) model[id.page][id.slot].reset();
    } else if (dice < 0.84) {
      // A redo put past a full page's capacity is malformed: it changes
      // nothing and, in paged mode, dirties no page (no blob write, not even
      // at the next cache switch).
      for (uint32_t p = 0; p < model.size(); ++p) {
        if (model[p].size() < HeapTable::kRowsPerPage) continue;
        const auto before = SlotsOf(heap);  // loads, and so flushes, every page
        const uint64_t writes = h->blob_writes();
        heap.ApplyPut(RowId{p, HeapTable::kRowsPerPage +
                                   static_cast<uint32_t>(rng.NextBelow(8))},
                      HeapRow(v));
        EXPECT_EQ(SlotsOf(heap), before) << "step " << step;
        EXPECT_EQ(h->blob_writes(), writes) << "step " << step;
        break;
      }
    } else if (dice < 0.86) {
      heap.Vacuum();
      SlotModel packed;
      for (const RowId id : live) {
        if (packed.empty() || packed.back().size() >= HeapTable::kRowsPerPage) {
          packed.emplace_back();
        }
        packed.back().push_back(model[id.page][id.slot]);
      }
      model = std::move(packed);
    } else {
      // Point reads, live and not.
      const RowId id = dice < 0.93 ? pick(live) : random_slot();
      const Row* row = heap.Get(id);
      EXPECT_EQ(row != nullptr, model_live(id)) << "step " << step;
      if (row != nullptr && model_live(id)) {
        EXPECT_EQ(RowText(*row), RowText(HeapRow(*model[id.page][id.slot])));
      }
      const Row* raw = heap.RawRow(id);
      EXPECT_EQ(raw != nullptr, model_live(id)) << "step " << step;
    }
    EXPECT_EQ(heap.LiveRowCount(), ModelLiveRows(model)) << "step " << step;
    if (step % 250 == 0) {
      EXPECT_EQ(SlotsOf(heap), SlotsOf(model)) << "step " << step;
    }
  }

  trace.slots = SlotsOf(heap);
  EXPECT_EQ(trace.slots, SlotsOf(model));
  trace.live_rows = heap.LiveRowCount();
  trace.pages = heap.PageCount();
  EXPECT_EQ(trace.live_rows, ModelLiveRows(model));
  EXPECT_EQ(trace.pages, model.size());
  size_t scanned = 0;
  heap.Scan([&](RowId id, const Row& row) {
    EXPECT_TRUE(model_live(id));
    if (model_live(id)) {
      EXPECT_EQ(RowText(row), RowText(HeapRow(*model[id.page][id.slot])));
    }
    ++scanned;
    return true;
  });
  EXPECT_EQ(scanned, ModelLiveRows(model));
  return trace;
}

// (seed, pool frames); 0 frames is memory mode.
class HeapPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(HeapPropertyTest, AgreesWithReferenceModel) {
  const auto [seed, frames] = GetParam();
  HeapUnderTest h(frames);
  const HeapTrace trace = RunHeapOps(seed, 2000, &h);
  EXPECT_GT(trace.pages, 4u) << "the heap must span several logical pages";
  if (frames > 0) {
    EXPECT_GT(h.evictions(), 0u) << "the pool never evicted; test is vacuous";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HeapPropertyTest,
    ::testing::Combine(::testing::Values(uint64_t{7}, uint64_t{8},
                                         uint64_t{9}),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{4})),
    [](const ::testing::TestParamInfo<HeapPropertyTest::ParamType>& info) {
      const size_t frames = std::get<1>(info.param);
      return (frames == 0 ? std::string("mem")
                          : "paged" + std::to_string(frames)) +
             "_seed" + std::to_string(std::get<0>(info.param));
    });

// The two modes are one slot layer: the same operations give the same
// RowIds and the same slots, whatever the pool size.
TEST(HeapCrossModeTest, PagedMatchesMemory) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    HeapUnderTest mem(0);
    const HeapTrace want = RunHeapOps(seed, 1500, &mem);
    for (size_t frames : {1u, 3u}) {
      HeapUnderTest paged(frames);
      const HeapTrace got = RunHeapOps(seed, 1500, &paged);
      EXPECT_EQ(got.inserted, want.inserted) << seed << "/" << frames;
      EXPECT_EQ(got.slots, want.slots) << seed << "/" << frames;
      EXPECT_EQ(got.live_rows, want.live_rows) << seed << "/" << frames;
      EXPECT_EQ(got.pages, want.pages) << seed << "/" << frames;
    }
  }
}

}  // namespace
}  // namespace lego::minidb
