#include "minidb/storage_serde.h"

#include <map>
#include <utility>
#include <vector>

#include "persist/ast_serde.h"
#include "util/hash.h"

namespace lego::minidb {

namespace {

constexpr uint32_t kCatalogTag = persist::ChunkTag("CATL");
constexpr uint32_t kTableTag = persist::ChunkTag("TABL");
constexpr uint32_t kHeapTag = persist::ChunkTag("HEAP");
constexpr uint32_t kIndexTag = persist::ChunkTag("INDX");
constexpr uint32_t kViewTag = persist::ChunkTag("VIEW");
constexpr uint32_t kTriggerTag = persist::ChunkTag("TRIG");
constexpr uint32_t kRuleTag = persist::ChunkTag("RULE");
constexpr uint32_t kSequenceTag = persist::ChunkTag("SEQN");

void SerializeSchema(const TableSchema& schema, persist::StateWriter* w) {
  w->WriteU64(schema.columns.size());
  for (const ColumnInfo& col : schema.columns) {
    w->WriteString(col.name);
    w->WriteU8(static_cast<uint8_t>(col.type));
    w->WriteBool(col.primary_key);
    w->WriteBool(col.unique);
    w->WriteBool(col.not_null);
    persist::SerializeOptionalExpr(col.default_value.get(), w);
  }
}

Status DeserializeSchema(persist::StateReader* r, TableSchema* out) {
  const uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n; ++i) {
    ColumnInfo col;
    col.name = r->ReadString();
    col.type = static_cast<ValueType>(r->ReadU8());
    col.primary_key = r->ReadBool();
    col.unique = r->ReadBool();
    col.not_null = r->ReadBool();
    sql::ExprPtr def;
    Status s = persist::DeserializeOptionalExpr(r, &def);
    if (!s.ok()) return s;
    col.default_value = std::shared_ptr<const sql::Expr>(std::move(def));
    out->columns.push_back(std::move(col));
  }
  return r->status();
}

void SerializeHeap(const HeapTable& heap, persist::StateWriter* w) {
  w->BeginChunk(kHeapTag);
  w->WriteU64(heap.PageCount());
  // Per-page slot lists: page boundaries are preserved exactly (WAL redo can
  // leave partially-filled middle pages, so re-packing would shift RowIds).
  // Rows are copied out — a paged heap serves VisitSlots from a transient
  // one-page decode buffer, so references do not survive the walk.
  std::vector<std::vector<std::pair<bool, Row>>> pages(heap.PageCount());
  heap.VisitSlots([&](RowId id, bool live, const Row& row) {
    pages[id.page].push_back({live, row});
  });
  for (const auto& page : pages) {
    w->WriteU32(static_cast<uint32_t>(page.size()));
    for (const auto& [live, row] : page) {
      w->WriteBool(live);
      if (live) SerializeRow(row, w);
    }
  }
  w->EndChunk();
}

/// Digest-mode heap walk: live rows only, keyed by RowId. Tombstones and
/// page structure are deliberately excluded — crash recovery's losers pass
/// undoes an uncommitted insert by re-tombstoning its slot, so a recovered
/// heap can carry trailing tombstones (even whole tombstone-only pages)
/// that the oracle's shadow re-execution, which rolls back via catalog
/// snapshot, never materializes. Live rows and their slots match exactly in
/// both; structural residue does not.
void SerializeHeapLiveRows(const HeapTable& heap, persist::StateWriter* w) {
  w->BeginChunk(kHeapTag);
  w->WriteU64(heap.LiveRowCount());
  heap.VisitSlots([&](RowId id, bool live, const Row& row) {
    if (!live) return;
    w->WriteU32(id.page);
    w->WriteU32(id.slot);
    SerializeRow(row, w);
  });
  w->EndChunk();
}

Status DeserializeHeap(persist::StateReader* r, HeapTable* out) {
  Status s = r->EnterChunk(kHeapTag);
  if (!s.ok()) return s;
  const uint64_t page_count = r->ReadU64();
  if (!r->CheckCount(page_count, 4)) return r->status();
  for (uint64_t p = 0; p < page_count; ++p) {
    out->AppendRawPage();
    const uint32_t slot_count = r->ReadU32();
    if (slot_count > HeapTable::kRowsPerPage || !r->CheckCount(slot_count, 1)) {
      return r->ok() ? Status::Internal("heap page overflows slot capacity")
                     : r->status();
    }
    for (uint32_t i = 0; i < slot_count; ++i) {
      const bool live = r->ReadBool();
      Row row;
      if (live) row = DeserializeRow(r);
      if (!r->ok()) return r->status();
      out->AppendRawSlot(std::move(row), live);
    }
  }
  return r->ExitChunk();
}

/// One walk drives the snapshot payload and both digests:
///  - kFull: snapshot mode — exact heap slot layout, sequence positions,
///    temp tables excluded.
///  - kSchema: definitions only, temp tables included (the per-statement
///    schema fingerprint).
///  - kDigest: like kFull but heaps contribute live rows only (see
///    SerializeHeapLiveRows) — the durable-state digest the durability
///    oracle compares across crash/recovery.
enum class BlobMode { kSchema, kFull, kDigest };

void SerializeCatalogBlob(const Catalog& catalog, BlobMode mode,
                          persist::StateWriter* w) {
  const bool full = mode != BlobMode::kSchema;
  w->BeginChunk(kCatalogTag);

  std::vector<const TableInfo*> tables;
  for (const std::string& name : catalog.TableNames()) {
    const TableInfo* t = catalog.GetTable(name).value();
    if (full && t->temporary) continue;
    tables.push_back(t);
  }
  w->WriteU64(tables.size());
  for (const TableInfo* t : tables) {
    w->BeginChunk(kTableTag);
    w->WriteString(t->name);
    w->WriteString(t->comment);
    w->WriteBool(t->temporary);
    w->WriteI64(t->analyzed_row_count);
    SerializeSchema(t->schema, w);
    w->WriteU64(t->index_names.size());
    for (const std::string& ix : t->index_names) w->WriteString(ix);
    if (mode == BlobMode::kFull) SerializeHeap(t->heap, w);
    if (mode == BlobMode::kDigest) SerializeHeapLiveRows(t->heap, w);
    w->EndChunk();
  }

  const std::vector<std::string> index_names = catalog.IndexNames();
  w->WriteU64(index_names.size());
  for (const std::string& name : index_names) {
    const IndexInfo* ix = catalog.FindIndex(name);
    w->BeginChunk(kIndexTag);
    w->WriteString(ix->name);
    w->WriteString(ix->table);
    w->WriteU64(ix->columns.size());
    for (const std::string& col : ix->columns) w->WriteString(col);
    w->WriteBool(ix->unique);
    w->EndChunk();
  }

  const std::vector<std::string> view_names = catalog.ViewNames();
  w->WriteU64(view_names.size());
  for (const std::string& name : view_names) {
    const ViewInfo* v = catalog.GetView(name);
    w->BeginChunk(kViewTag);
    w->WriteString(v->name);
    persist::SerializeSelect(*v->select, w);
    w->EndChunk();
  }

  const std::vector<std::string> trigger_names = catalog.TriggerNames();
  w->WriteU64(trigger_names.size());
  for (const std::string& name : trigger_names) {
    const TriggerInfo* t = catalog.FindTrigger(name);
    w->BeginChunk(kTriggerTag);
    w->WriteString(t->name);
    w->WriteString(t->table);
    w->WriteU8(static_cast<uint8_t>(t->timing));
    w->WriteU8(static_cast<uint8_t>(t->event));
    w->WriteBool(t->for_each_row);
    persist::SerializeStatement(*t->body, w);
    w->EndChunk();
  }

  const std::vector<std::string> rule_names = catalog.RuleNames();
  w->WriteU64(rule_names.size());
  for (const std::string& name : rule_names) {
    const RuleInfo* rl = catalog.FindRule(name);
    w->BeginChunk(kRuleTag);
    w->WriteString(rl->name);
    w->WriteString(rl->table);
    w->WriteU8(static_cast<uint8_t>(rl->event));
    w->WriteBool(rl->instead);
    persist::SerializeOptionalStatement(rl->action.get(), w);
    w->EndChunk();
  }

  const std::vector<std::string> seq_names = catalog.SequenceNames();
  w->WriteU64(seq_names.size());
  for (const std::string& name : seq_names) {
    const SequenceInfo* sq = catalog.FindSequence(name);
    w->BeginChunk(kSequenceTag);
    w->WriteString(sq->name);
    w->WriteI64(sq->start);
    w->WriteI64(sq->increment);
    if (full) {
      w->WriteI64(sq->current);
      w->WriteBool(sq->started);
    }
    w->EndChunk();
  }

  w->WriteU64(catalog.users().size());
  for (const std::string& user : catalog.users()) w->WriteString(user);

  w->WriteU64(catalog.privileges().size());
  for (const auto& [user, grants] : catalog.privileges()) {
    w->WriteString(user);
    w->WriteU64(grants.size());
    for (const auto& [table, mask] : grants) {
      w->WriteString(table);
      w->WriteU8(mask);
    }
  }

  w->EndChunk();
}

}  // namespace

void SerializeValue(const Value& v, persist::StateWriter* w) {
  w->WriteU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->WriteI64(v.int_value());
      break;
    case ValueType::kReal:
      w->WriteDouble(v.real_value());
      break;
    case ValueType::kText:
      w->WriteString(v.text_value());
      break;
    case ValueType::kBool:
      w->WriteBool(v.bool_value());
      break;
  }
}

Value DeserializeValue(persist::StateReader* r) {
  const auto type = static_cast<ValueType>(r->ReadU8());
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return Value::Int(r->ReadI64());
    case ValueType::kReal:
      return Value::Real(r->ReadDouble());
    case ValueType::kText:
      return Value::Text(r->ReadString());
    case ValueType::kBool:
      return Value::Bool(r->ReadBool());
  }
  return Value::Null();
}

void SerializeRow(const Row& row, persist::StateWriter* w) {
  w->WriteU64(row.size());
  for (const Value& v : row) SerializeValue(v, w);
}

Row DeserializeRow(persist::StateReader* r) {
  Row row;
  const uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 1)) return row;
  row.reserve(n);
  for (uint64_t i = 0; i < n; ++i) row.push_back(DeserializeValue(r));
  return row;
}

void SerializeCatalog(const Catalog& catalog, persist::StateWriter* w) {
  SerializeCatalogBlob(catalog, BlobMode::kFull, w);
}

Status DeserializeCatalog(persist::StateReader* r, Catalog* out) {
  Status s = r->EnterChunk(kCatalogTag);
  if (!s.ok()) return s;

  const uint64_t table_count = r->ReadU64();
  if (!r->CheckCount(table_count, 8)) return r->status();
  for (uint64_t i = 0; i < table_count; ++i) {
    s = r->EnterChunk(kTableTag);
    if (!s.ok()) return s;
    TableInfo t;
    t.name = r->ReadString();
    t.comment = r->ReadString();
    t.temporary = r->ReadBool();
    t.analyzed_row_count = r->ReadI64();
    s = DeserializeSchema(r, &t.schema);
    if (!s.ok()) return s;
    const uint64_t ix_count = r->ReadU64();
    if (!r->CheckCount(ix_count, 1)) return r->status();
    // Creation order, which CreateIndex below keeps for listed indexes.
    for (uint64_t k = 0; k < ix_count; ++k) {
      t.index_names.push_back(r->ReadString());
    }
    s = DeserializeHeap(r, &t.heap);
    if (!s.ok()) return s;
    s = r->ExitChunk();
    if (!s.ok()) return s;
    s = out->CreateTable(std::move(t));
    if (!s.ok()) return s;
  }

  const uint64_t index_count = r->ReadU64();
  if (!r->CheckCount(index_count, 8)) return r->status();
  for (uint64_t i = 0; i < index_count; ++i) {
    s = r->EnterChunk(kIndexTag);
    if (!s.ok()) return s;
    IndexInfo ix;
    ix.name = r->ReadString();
    ix.table = r->ReadString();
    const uint64_t col_count = r->ReadU64();
    if (!r->CheckCount(col_count, 1)) return r->status();
    for (uint64_t k = 0; k < col_count; ++k) {
      ix.columns.push_back(r->ReadString());
    }
    ix.unique = r->ReadBool();
    s = r->ExitChunk();
    if (!s.ok()) return s;
    s = out->CreateIndex(std::move(ix));
    if (!s.ok()) return s;
  }

  const uint64_t view_count = r->ReadU64();
  if (!r->CheckCount(view_count, 8)) return r->status();
  for (uint64_t i = 0; i < view_count; ++i) {
    s = r->EnterChunk(kViewTag);
    if (!s.ok()) return s;
    ViewInfo v;
    v.name = r->ReadString();
    auto select = persist::DeserializeSelect(r);
    if (!select.ok()) return select.status();
    v.select = std::shared_ptr<const sql::SelectStmt>(
        std::move(select).ValueOrDie());
    s = r->ExitChunk();
    if (!s.ok()) return s;
    s = out->CreateView(std::move(v), /*or_replace=*/false);
    if (!s.ok()) return s;
  }

  const uint64_t trigger_count = r->ReadU64();
  if (!r->CheckCount(trigger_count, 8)) return r->status();
  for (uint64_t i = 0; i < trigger_count; ++i) {
    s = r->EnterChunk(kTriggerTag);
    if (!s.ok()) return s;
    TriggerInfo t;
    t.name = r->ReadString();
    t.table = r->ReadString();
    t.timing = static_cast<sql::TriggerTiming>(r->ReadU8());
    t.event = static_cast<sql::TriggerEvent>(r->ReadU8());
    t.for_each_row = r->ReadBool();
    auto body = persist::DeserializeStatement(r);
    if (!body.ok()) return body.status();
    t.body =
        std::shared_ptr<const sql::Statement>(std::move(body).ValueOrDie());
    s = r->ExitChunk();
    if (!s.ok()) return s;
    s = out->CreateTrigger(std::move(t));
    if (!s.ok()) return s;
  }

  const uint64_t rule_count = r->ReadU64();
  if (!r->CheckCount(rule_count, 8)) return r->status();
  for (uint64_t i = 0; i < rule_count; ++i) {
    s = r->EnterChunk(kRuleTag);
    if (!s.ok()) return s;
    RuleInfo rl;
    rl.name = r->ReadString();
    rl.table = r->ReadString();
    rl.event = static_cast<sql::TriggerEvent>(r->ReadU8());
    rl.instead = r->ReadBool();
    sql::StmtPtr action;
    s = persist::DeserializeOptionalStatement(r, &action);
    if (!s.ok()) return s;
    rl.action = std::shared_ptr<const sql::Statement>(std::move(action));
    s = r->ExitChunk();
    if (!s.ok()) return s;
    s = out->CreateRule(std::move(rl), /*or_replace=*/false);
    if (!s.ok()) return s;
  }

  const uint64_t seq_count = r->ReadU64();
  if (!r->CheckCount(seq_count, 8)) return r->status();
  for (uint64_t i = 0; i < seq_count; ++i) {
    s = r->EnterChunk(kSequenceTag);
    if (!s.ok()) return s;
    SequenceInfo sq;
    sq.name = r->ReadString();
    sq.start = r->ReadI64();
    sq.increment = r->ReadI64();
    sq.current = r->ReadI64();
    sq.started = r->ReadBool();
    s = r->ExitChunk();
    if (!s.ok()) return s;
    s = out->CreateSequence(std::move(sq));
    if (!s.ok()) return s;
  }

  const uint64_t user_count = r->ReadU64();
  if (!r->CheckCount(user_count, 1)) return r->status();
  for (uint64_t i = 0; i < user_count; ++i) {
    s = out->CreateUser(r->ReadString(), /*if_not_exists=*/false);
    if (!s.ok()) return s;
  }

  const uint64_t priv_user_count = r->ReadU64();
  if (!r->CheckCount(priv_user_count, 8)) return r->status();
  for (uint64_t i = 0; i < priv_user_count; ++i) {
    const std::string user = r->ReadString();
    const uint64_t grant_count = r->ReadU64();
    if (!r->CheckCount(grant_count, 2)) return r->status();
    for (uint64_t k = 0; k < grant_count; ++k) {
      const std::string table = r->ReadString();
      const PrivMask mask = r->ReadU8();
      out->Grant(user, table, mask);
    }
  }

  s = r->ExitChunk();
  if (!s.ok()) return s;
  if (!r->ok()) return r->status();

  // Rebuild the trees from the loaded heaps (trees are never serialized —
  // REINDEX-style rebuild).
  for (const std::string& name : out->IndexNames()) {
    IndexInfo* ix = out->GetIndex(name).value();
    auto table_or = out->GetTable(ix->table);
    if (!table_or.ok()) continue;
    TableInfo* table = table_or.value();
    ix->tree.Clear();
    const int col = table->schema.FindColumn(ix->columns[0]);
    if (col < 0) continue;
    table->heap.Scan([&](RowId rid, const Row& row) {
      if (static_cast<size_t>(col) < row.size()) {
        ix->tree.Insert(row[col], rid);
      }
      return true;
    });
  }
  return Status::OK();
}

uint64_t StateDigest(const Catalog& catalog) {
  persist::StateWriter w;
  SerializeCatalogBlob(catalog, BlobMode::kDigest, &w);
  return Fnv1a64(w.buffer());
}

uint64_t SchemaFingerprint(const Catalog& catalog) {
  persist::StateWriter w;
  SerializeCatalogBlob(catalog, BlobMode::kSchema, &w);
  return Fnv1a64(w.buffer());
}

}  // namespace lego::minidb
