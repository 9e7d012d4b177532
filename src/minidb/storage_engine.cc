#include "minidb/storage_engine.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "minidb/storage_serde.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "util/hash.h"

namespace lego::minidb {

namespace {

constexpr uint32_t kSnapMagic = 0x504e534cU;  // 'LSNP' little-endian
constexpr uint32_t kSnapVersion = 1;
/// Data pages carry [u64 lsn][u32 chunk_len][bytes].
constexpr size_t kPageDataCap = kPageSize - sizeof(uint64_t) - sizeof(uint32_t);

void EncodeU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void EncodeU64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t DecodeU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t DecodeU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// SchemaFingerprint of an empty catalog, which every ResetFresh starts
/// from.
uint64_t EmptySchemaFingerprint() {
  static const uint64_t fingerprint = SchemaFingerprint(Catalog());
  return fingerprint;
}

bool IsTclType(sql::StatementType t) {
  switch (t) {
    case sql::StatementType::kBegin:
    case sql::StatementType::kCommit:
    case sql::StatementType::kRollback:
    case sql::StatementType::kSavepoint:
    case sql::StatementType::kRelease:
    case sql::StatementType::kRollbackTo:
      return true;
    default:
      return false;
  }
}

/// Statements that mutate session context later logical replays depend on
/// (SET role switches the privilege-relevant user; settings feed
/// current_setting()). Logged logically outside the transaction buffer,
/// mirroring their non-transactional semantics.
bool IsSessionContextType(sql::StatementType t) {
  switch (t) {
    case sql::StatementType::kSet:
    case sql::StatementType::kPragma:
    case sql::StatementType::kAlterSystem:
    case sql::StatementType::kDiscard:
      return true;
    default:
      return false;
  }
}

}  // namespace

StorageEngine::StorageEngine(Options options)
    : options_(std::move(options)),
      env_(options_.env != nullptr ? options_.env : Env::Posix()),
      wal_(env_),
      page_store_(env_, HeapPagesPath(), options_.pool_frames,
                  options_.panic_on_storage_error) {
  if (options_.pool_frames == 0) options_.pool_frames = 1;
}

std::string StorageEngine::SnapPath(uint64_t lsn) const {
  return options_.dir + "/snap." + std::to_string(lsn);
}

std::string StorageEngine::WalPath(uint64_t lsn) const {
  return options_.dir + "/wal." + std::to_string(lsn);
}

Status StorageEngine::WriteManifest(const ManifestInfo& info) {
  persist::StateWriter w;
  w.WriteU64(info.snapshot_lsn);
  return env_->WriteFileAtomic(ManifestPath(), w.EnvelopedBytes());
}

StatusOr<StorageEngine::ManifestInfo> StorageEngine::ReadManifest(
    Env* env, const std::string& dir) {
  auto bytes = env->ReadFile(dir + "/MANIFEST");
  if (!bytes.ok()) return bytes.status();
  auto reader = persist::StateReader::FromEnvelope(std::move(bytes).ValueOrDie());
  if (!reader.ok()) return reader.status();
  ManifestInfo info;
  info.snapshot_lsn = reader.value().ReadU64();
  if (!reader.value().ok()) return reader.value().status();
  return info;
}

Status StorageEngine::RemoveAllExcept(const std::set<std::string>& keep) {
  auto listing = env_->ListDir(options_.dir);
  if (!listing.ok()) return listing.status();
  for (const std::string& name : listing.value()) {
    if (keep.count(name) > 0) continue;
    const std::string path = options_.dir + "/" + name;
    if (!env_->RemoveFile(path).ok()) (void)env_->RemoveDirRecursive(path);
  }
  return Status::OK();
}

Status StorageEngine::ResetFresh(Database* db) {
  db->set_storage_hook(nullptr);
  db->ResetAll();
  // Only a MANIFEST this engine wrote or read as 0, with no write failed
  // since, vouches for a directory holding nothing but generation 0.
  const bool relayout = manifest_lsn_ != 0 || degraded();
  manifest_lsn_.reset();
  lsn_ = 1;
  degraded_ = false;
  ResetTxnState(/*next_txn_id=*/1);
  // The catalog is empty, and so is its fingerprint known without a walk.
  schema_fp_ = EmptySchemaFingerprint();
  schema_fp_epoch_ = db->catalog().schema_epoch();
  if (relayout) {
    // A directory that cannot be listed does not exist yet.
    if (!RemoveAllExcept({"MANIFEST", "wal.0", "heap.pages"}).ok()) {
      LEGO_RETURN_IF_ERROR(env_->CreateDir(options_.dir));
    }
    LEGO_RETURN_IF_ERROR(WriteManifest(ManifestInfo{0}));
  }
  // The unsynced log tail and dirty pool frames are dropped unwritten.
  LEGO_RETURN_IF_ERROR(wal_.is_open() && wal_.path() == WalPath(0)
                           ? wal_.Truncate()
                           : wal_.Open(WalPath(0), /*truncate=*/true));
  LEGO_RETURN_IF_ERROR(page_store_.Reset());
  db->catalog().set_page_store(&page_store_, this);
  db->set_storage_hook(this);
  manifest_lsn_ = 0;
  return Status::OK();
}

void StorageEngine::ClearTxn() {
  in_txn_ = false;
  txn_id_ = 0;
  txn_streamed_ = false;
  txn_logical_mode_ = false;
  last_streamed_lsn_ = 0;
  txn_buffer_.clear();
  savepoint_marks_.clear();
}

void StorageEngine::ResetTxnState(uint64_t next_txn_id) {
  ClearTxn();
  next_txn_id_ = next_txn_id;
  commits_since_checkpoint_ = 0;
  checkpoint_pending_ = false;
  in_statement_ = false;
  schema_fp_epoch_ = 0;
  table_names_epoch_ = 0;
  seq_before_epoch_ = 0;
}

Status StorageEngine::OpenOrRecover(Database* db) {
  if (!env_->FileExists(ManifestPath())) return ResetFresh(db);
  db->set_storage_hook(nullptr);
  manifest_lsn_.reset();

  auto manifest = ReadManifest(env_, options_.dir);
  if (!manifest.ok()) return manifest.status();
  const uint64_t snap_lsn = manifest.value().snapshot_lsn;

  db->ResetAll();
  uint64_t max_lsn = snap_lsn;
  if (snap_lsn > 0) {
    Catalog loaded;
    BufferPool::Stats pool_stats;
    LEGO_RETURN_IF_ERROR(LoadSnapshot(env_, SnapPath(snap_lsn),
                                      options_.pool_frames, &loaded,
                                      &pool_stats));
    db->catalog() = std::move(loaded);
    stats_.pool.Add(pool_stats);
  }

  WalLoadStats wstats;
  auto records = WalManager::Load(env_, WalPath(snap_lsn), &wstats);
  if (!records.ok()) return records.status();
  std::vector<uint64_t> loser_txns;
  uint64_t undo_count = 0;
  LEGO_RETURN_IF_ERROR(
      ReplayInto(db, records.value(), &loser_txns, &undo_count));
  uint64_t max_txn = 0;
  for (const WalRecord& rec : records.value()) {
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
    if (rec.txn_id > max_txn) max_txn = rec.txn_id;
  }
  stats_.recovered_records += wstats.records;
  stats_.recovered_commits += wstats.commits;
  stats_.loser_records += wstats.loser_records;
  stats_.torn_tail_bytes += wstats.torn_tail_bytes;
  stats_.undo_applied += undo_count;
  lsn_ = max_lsn + 1;

  // Tail repair: only a physically unparseable suffix forces a rewrite.
  // Uncommitted records are legitimate log content under the steal policy —
  // the losers pass undid them, and the kAbort markers appended below keep
  // every future recovery unwinding them at this same position.
  if (wstats.torn_tail_bytes > 0) {
    LEGO_RETURN_IF_ERROR(wal_.Open(WalPath(snap_lsn), /*truncate=*/true));
    for (const WalRecord& rec : records.value()) {
      LEGO_RETURN_IF_ERROR(wal_.Append(rec));
    }
    LEGO_RETURN_IF_ERROR(wal_.Flush());
  } else {
    LEGO_RETURN_IF_ERROR(wal_.Open(WalPath(snap_lsn), /*truncate=*/false));
  }

  // Compensate losers at their undo position. Without these, a later
  // recovery would unwind the loser at end-of-log — where a committed
  // transaction may have reused its row ids. No sync needed: the log is
  // append-ordered, so if anything later becomes durable, these markers
  // are durable first.
  for (uint64_t txn : loser_txns) {
    WalRecord rec;
    rec.type = WalRecordType::kAbort;
    rec.lsn = lsn_++;
    rec.txn_id = txn;
    rec.deferred = false;
    LEGO_RETURN_IF_ERROR(wal_.Append(rec));
    ++stats_.wal_records;
  }

  // Sweep strays from interrupted checkpoints (snap.tmp, orphaned
  // generations the manifest never flipped to).
  (void)RemoveAllExcept({"MANIFEST", "snap." + std::to_string(snap_lsn),
                         "wal." + std::to_string(snap_lsn), "heap.pages"});

  degraded_ = false;
  ResetTxnState(max_txn + 1);
  LEGO_RETURN_IF_ERROR(page_store_.Reset());
  db->catalog().set_page_store(&page_store_, this);
  db->set_storage_hook(this);
  manifest_lsn_ = snap_lsn;
  return Status::OK();
}

Status StorageEngine::RecoverInto(Env* env, const std::string& dir,
                                  Database* db, WalLoadStats* wal_stats) {
  auto manifest = ReadManifest(env, dir);
  if (!manifest.ok()) return manifest.status();
  const uint64_t snap_lsn = manifest.value().snapshot_lsn;
  db->ResetAll();
  if (snap_lsn > 0) {
    Catalog loaded;
    LEGO_RETURN_IF_ERROR(LoadSnapshot(env, dir + "/snap." +
                                               std::to_string(snap_lsn),
                                      /*pool_frames=*/64, &loaded, nullptr));
    db->catalog() = std::move(loaded);
  }
  auto records = WalManager::Load(
      env, dir + "/wal." + std::to_string(snap_lsn), wal_stats);
  if (!records.ok()) return records.status();
  return ReplayInto(db, records.value(), nullptr, nullptr);
}

Status StorageEngine::WriteSnapshot(const Database& db, uint64_t lsn,
                                    BufferPool::Stats* pool_stats) {
  persist::StateWriter w;
  SerializeCatalog(db.catalog(), &w);
  const std::string& blob = w.buffer();

  const std::string tmp = options_.dir + "/snap.tmp";
  auto file_or = env_->OpenPagedFile(tmp, /*truncate=*/true);
  if (!file_or.ok()) return file_or.status();
  std::unique_ptr<PagedFile> file = std::move(file_or).ValueOrDie();
  BufferPool pool(file.get(), options_.pool_frames);

  const uint64_t data_pages = (blob.size() + kPageDataCap - 1) / kPageDataCap;
  auto fail = [&](const Status& s) {
    (void)env_->RemoveFile(tmp);
    return s;
  };

  {
    auto frame = pool.Pin(0);
    if (!frame.ok()) return fail(frame.status());
    char* p = frame.value();
    std::memset(p, 0, kPageSize);
    EncodeU32(p, kSnapMagic);
    EncodeU32(p + 4, kSnapVersion);
    EncodeU64(p + 8, lsn);
    EncodeU64(p + 16, data_pages);
    EncodeU64(p + 24, blob.size());
    EncodeU64(p + 32, Fnv1a64(blob));
    pool.Unpin(0, /*dirty=*/true);
  }
  for (uint64_t i = 0; i < data_pages; ++i) {
    const size_t off = i * kPageDataCap;
    const size_t len = std::min(kPageDataCap, blob.size() - off);
    auto frame = pool.Pin(i + 1);
    if (!frame.ok()) return fail(frame.status());
    char* p = frame.value();
    std::memset(p, 0, kPageSize);
    EncodeU64(p, lsn);  // every page is LSN-stamped
    EncodeU32(p + 8, static_cast<uint32_t>(len));
    std::memcpy(p + 12, blob.data() + off, len);
    pool.Unpin(i + 1, /*dirty=*/true);
  }
  Status s = pool.FlushAll();
  if (pool_stats != nullptr) *pool_stats = pool.stats();
  if (!s.ok()) return fail(s);
  file.reset();
  return env_->RenameFile(tmp, SnapPath(lsn));
}

Status StorageEngine::LoadSnapshot(Env* env, const std::string& path,
                                   size_t pool_frames, Catalog* out,
                                   BufferPool::Stats* pool_stats) {
  auto file_or = env->OpenPagedFile(path, /*truncate=*/false);
  if (!file_or.ok()) return file_or.status();
  std::unique_ptr<PagedFile> file = std::move(file_or).ValueOrDie();
  BufferPool pool(file.get(), pool_frames);

  uint64_t lsn = 0;
  uint64_t data_pages = 0;
  uint64_t blob_len = 0;
  uint64_t blob_hash = 0;
  {
    auto frame = pool.Pin(0);
    if (!frame.ok()) return frame.status();
    const char* p = frame.value();
    const uint32_t magic = DecodeU32(p);
    const uint32_t version = DecodeU32(p + 4);
    lsn = DecodeU64(p + 8);
    data_pages = DecodeU64(p + 16);
    blob_len = DecodeU64(p + 24);
    blob_hash = DecodeU64(p + 32);
    pool.Unpin(0, false);
    if (magic != kSnapMagic) {
      return Status::Internal("snapshot magic mismatch in " + path);
    }
    if (version != kSnapVersion) {
      return Status::Internal("snapshot version mismatch in " + path);
    }
    if (blob_len > data_pages * kPageDataCap) {
      return Status::Internal("snapshot length overruns its pages: " + path);
    }
  }

  std::string blob;
  blob.reserve(blob_len);
  for (uint64_t i = 0; i < data_pages; ++i) {
    auto frame = pool.Pin(i + 1);
    if (!frame.ok()) return frame.status();
    const char* p = frame.value();
    const uint64_t page_lsn = DecodeU64(p);
    const uint32_t len = DecodeU32(p + 8);
    if (page_lsn != lsn || len > kPageDataCap) {
      pool.Unpin(i + 1, false);
      return Status::Internal("snapshot page " + std::to_string(i + 1) +
                              " is stamped with the wrong LSN: " + path);
    }
    blob.append(p + 12, len);
    pool.Unpin(i + 1, false);
  }
  if (pool_stats != nullptr) *pool_stats = pool.stats();
  if (blob.size() != blob_len || Fnv1a64(blob) != blob_hash) {
    return Status::Internal("snapshot payload hash mismatch: " + path);
  }
  persist::StateReader reader = persist::StateReader::FromPayload(std::move(blob));
  return DeserializeCatalog(&reader, out);
}

void StorageEngine::RebuildIndexes(Catalog* catalog) {
  for (const std::string& name : catalog->IndexNames()) {
    IndexInfo* ix = catalog->GetIndex(name).value();
    auto table_or = catalog->GetTable(ix->table);
    if (!table_or.ok()) continue;
    TableInfo* table = table_or.value();
    ix->tree.Clear();
    if (ix->columns.empty()) continue;
    const int col = table->schema.FindColumn(ix->columns[0]);
    if (col < 0) continue;
    table->heap.Scan([&](RowId rid, const Row& row) {
      if (static_cast<size_t>(col) < row.size()) ix->tree.Insert(row[col], rid);
      return true;
    });
  }
}

Status StorageEngine::ReplayInto(Database* db,
                                 const std::vector<WalRecord>& recs,
                                 std::vector<uint64_t>* loser_txns,
                                 uint64_t* undo_count) {
  // Pass 1: which transactions resolved to commit. For the autocommit
  // pseudo-transaction (txn 0), each batch is immediately followed by its
  // own marker, so "a txn-0 kCommit exists later in the log" is exactly
  // "this batch's marker survived" — the log is append-ordered and torn
  // only at the tail.
  std::set<uint64_t> committed;
  size_t last_txn0_commit = 0;
  bool has_txn0_commit = false;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].type != WalRecordType::kCommit) continue;
    if (recs[i].txn_id == 0) {
      last_txn0_commit = i;
      has_txn0_commit = true;
    } else {
      committed.insert(recs[i].txn_id);
    }
  }
  auto deferred_committed = [&](const WalRecord& rec, size_t pos) {
    if (rec.txn_id == 0) return has_txn0_commit && pos < last_txn0_commit;
    return committed.count(rec.txn_id) > 0;
  };

  // Pass 2: redo in order; undo aborted streams at their positions.
  // `pending` holds each open transaction's streamed records in log order.
  std::map<uint64_t, std::vector<const WalRecord*>> pending;
  auto undo_one = [&](const WalRecord* r) {
    auto table = db->catalog().GetTable(r->table);
    if (!table.ok()) return;
    if (r->type == WalRecordType::kPut) {
      if (r->has_before) {
        table.value()->heap.ApplyPut(r->rid, r->before);
      } else {
        table.value()->heap.ApplyDelete(r->rid);  // undo insert: re-tombstone
      }
    } else if (r->type == WalRecordType::kErase) {
      table.value()->heap.ApplyPut(r->rid, r->row);  // undo delete: restore
    }
    if (undo_count != nullptr) ++*undo_count;
  };

  for (size_t i = 0; i < recs.size(); ++i) {
    const WalRecord& rec = recs[i];
    switch (rec.type) {
      case WalRecordType::kLogical: {
        if (!deferred_committed(rec, i)) break;
        // Logical replay re-executes the statement; it may consult indexes,
        // which physio replay leaves stale — rebuild first.
        RebuildIndexes(&db->catalog());
        if (!rec.user.empty()) db->session().current_user = rec.user;
        auto stmts = sql::Parser::ParseScript(rec.text + ";");
        if (!stmts.ok()) {
          return Status::Internal("WAL logical record failed to parse: " +
                                  stmts.status().message());
        }
        for (const sql::StmtPtr& stmt : stmts.value()) {
          // Errors are part of the deterministic original behavior (a
          // statement can be logged with partial effects).
          (void)db->Execute(*stmt);
        }
        break;
      }
      case WalRecordType::kPut: {
        if (rec.deferred && !deferred_committed(rec, i)) break;
        auto table = db->catalog().GetTable(rec.table);
        if (table.ok()) table.value()->heap.ApplyPut(rec.rid, rec.row);
        if (!rec.deferred) pending[rec.txn_id].push_back(&rec);
        break;
      }
      case WalRecordType::kErase: {
        if (rec.deferred && !deferred_committed(rec, i)) break;
        auto table = db->catalog().GetTable(rec.table);
        if (table.ok()) table.value()->heap.ApplyDelete(rec.rid);
        if (!rec.deferred) pending[rec.txn_id].push_back(&rec);
        break;
      }
      case WalRecordType::kSeqSet: {
        if (!deferred_committed(rec, i)) break;
        (void)db->catalog().SetSequencePosition(rec.text, rec.seq_current,
                                                rec.seq_started);
        break;
      }
      case WalRecordType::kCommit:
        if (rec.txn_id != 0) pending.erase(rec.txn_id);  // winner: no undo
        break;
      case WalRecordType::kAbort: {
        auto it = pending.find(rec.txn_id);
        if (it != pending.end()) {
          for (auto r = it->second.rbegin(); r != it->second.rend(); ++r) {
            undo_one(*r);
          }
          pending.erase(it);
        }
        break;
      }
      case WalRecordType::kAbortTo: {
        auto it = pending.find(rec.txn_id);
        if (it != pending.end()) {
          std::vector<const WalRecord*>& stream = it->second;
          while (!stream.empty() && stream.back()->lsn > rec.undo_upto) {
            undo_one(stream.back());
            stream.pop_back();
          }
        }
        break;
      }
    }
  }

  // Losers pass: transactions that never resolved. Undo their streams in
  // reverse LSN order across transactions (interleaved streams must unwind
  // newest-first).
  std::vector<const WalRecord*> losers;
  for (auto& [txn, stream] : pending) {
    if (loser_txns != nullptr) loser_txns->push_back(txn);
    losers.insert(losers.end(), stream.begin(), stream.end());
  }
  std::sort(losers.begin(), losers.end(),
            [](const WalRecord* a, const WalRecord* b) {
              return a->lsn > b->lsn;
            });
  for (const WalRecord* r : losers) undo_one(r);

  RebuildIndexes(&db->catalog());
  return Status::OK();
}

Status StorageEngine::Checkpoint(Database* db) {
  manifest_lsn_.reset();
  schema_fp_epoch_ = 0;
  if (in_txn_) {
    checkpoint_pending_ = true;
    return Status::OK();
  }
  auto old_manifest = ReadManifest(env_, options_.dir);
  const uint64_t old_lsn =
      old_manifest.ok() ? old_manifest.value().snapshot_lsn : 0;
  const uint64_t snap_lsn = lsn_++;

  BufferPool::Stats pool_stats;
  LEGO_RETURN_IF_ERROR(WriteSnapshot(*db, snap_lsn, &pool_stats));
  stats_.pool.Add(pool_stats);

  // New (empty) log first, manifest flip second: until the flip, recovery
  // still reads the old generation, which stays complete.
  WalManager fresh(env_);
  Status s = fresh.Open(WalPath(snap_lsn), /*truncate=*/true);
  if (!s.ok()) {
    (void)env_->RemoveFile(SnapPath(snap_lsn));
    return s;
  }
  s = WriteManifest(ManifestInfo{snap_lsn});
  if (!s.ok()) {
    (void)env_->RemoveFile(SnapPath(snap_lsn));
    (void)env_->RemoveFile(WalPath(snap_lsn));
    return s;
  }
  manifest_lsn_ = snap_lsn;
  wal_ = std::move(fresh);
  if (old_lsn != snap_lsn) {
    (void)env_->RemoveFile(WalPath(old_lsn));
    if (old_lsn > 0) (void)env_->RemoveFile(SnapPath(old_lsn));
  }

  // Outside any transaction exactly one catalog copy exists, so every page
  // chain not reachable from it is garbage (copy-on-write leftovers,
  // VACUUM/TRUNCATE/DROP residue) — reclaim.
  std::set<uint32_t> live;
  db->catalog().CollectChainPages(&live);
  page_store_.Sweep(live);

  ++stats_.checkpoints;
  commits_since_checkpoint_ = 0;
  checkpoint_pending_ = false;
  return Status::OK();
}

void StorageEngine::HandleStorageFailure(const Status& status) {
  if (options_.panic_on_storage_error) {
    std::fprintf(stderr, "storage: commit not durable, exiting: %s\n",
                 status.message().c_str());
    std::fflush(stderr);
    _exit(kStorageFailExitCode);
  }
  degraded_ = true;
}

bool StorageEngine::AppendRecord(const WalRecord& rec) {
  const uint64_t before = wal_.buffered_bytes() + wal_.synced_bytes();
  Status s = wal_.Append(rec);
  if (!s.ok()) {
    HandleStorageFailure(s);
    return false;
  }
  ++stats_.wal_records;
  stats_.wal_bytes += wal_.buffered_bytes() + wal_.synced_bytes() - before;
  return true;
}

void StorageEngine::CommitBatch(std::vector<WalRecord> records,
                                uint64_t txn_id) {
  if (records.empty() && txn_id == 0) return;
  for (const WalRecord& rec : records) {
    if (!AppendRecord(rec)) return;
  }
  const uint64_t before = wal_.buffered_bytes() + wal_.synced_bytes();
  Status s = wal_.Commit(lsn_++, txn_id, options_.skip_fsync);
  if (!s.ok()) {
    HandleStorageFailure(s);
    return;
  }
  ++stats_.wal_records;  // the kCommit marker
  stats_.wal_bytes += wal_.buffered_bytes() + wal_.synced_bytes() - before;
  if (!options_.skip_fsync) ++stats_.fsyncs;
  ++stats_.commits;
  ++commits_since_checkpoint_;
}

void StorageEngine::MaybeAutoCheckpoint(Database* db) {
  if (in_txn_ || degraded_) return;
  if (!checkpoint_pending_ &&
      commits_since_checkpoint_ < options_.checkpoint_every_commits) {
    return;
  }
  // A failed checkpoint leaves the previous generation fully valid, so the
  // engine keeps running on the old WAL; it will simply retry later.
  if (!Checkpoint(db).ok()) commits_since_checkpoint_ = 0;
}

StorageEngine::Stats StorageEngine::stats() const {
  Stats s = stats_;
  s.pool.Add(page_store_.pool_stats());
  s.pages.Add(page_store_.stats());
  return s;
}

void StorageEngine::OnStatementBegin(Database& db) {
  if (degraded_) return;
  structural_ = false;
  unknown_heap_ = false;
  stmt_records_.clear();
  stmt_user_ = db.session().current_user;
  const Catalog& catalog = db.catalog();
  schema_epoch_before_ = catalog.schema_epoch();
  sequence_epoch_before_ = catalog.sequence_epoch();
  if (schema_fp_epoch_ != schema_epoch_before_) {
    schema_fp_ = SchemaFingerprint(catalog);
    schema_fp_epoch_ = schema_epoch_before_;
    ++stats_.schema_fingerprints;
  }
  if (table_names_epoch_ != schema_epoch_before_) {
    // Temporary heaps hold no observer, so they never report.
    table_names_.clear();
    for (const std::string& name : catalog.TableNames()) {
      const TableInfo* t = catalog.GetTable(name).value();
      if (!t->temporary) table_names_[&t->heap] = name;
    }
    table_names_epoch_ = schema_epoch_before_;
  }
  if (seq_before_epoch_ != sequence_epoch_before_) {
    seq_before_.clear();
    for (const std::string& name : catalog.SequenceNames()) {
      const SequenceInfo* seq = catalog.FindSequence(name);
      seq_before_[name] = {seq->current, seq->started};
    }
    seq_before_epoch_ = sequence_epoch_before_;
  }
  in_statement_ = true;
}

void StorageEngine::OnStatementEnd(Database& db, const sql::Statement& stmt,
                                   bool executed_ok) {
  if (!in_statement_) return;
  in_statement_ = false;
  if (degraded_) return;

  const sql::StatementType type = stmt.type();
  if (IsTclType(type)) {
    // Buffer management already happened through the StorageHook
    // notifications the transaction-control path fired.
    stmt_records_.clear();
    return;
  }

  if (IsSessionContextType(type)) {
    stmt_records_.clear();
    if (!executed_ok) return;
    WalRecord rec;
    rec.type = WalRecordType::kLogical;
    rec.lsn = lsn_++;
    rec.text = sql::ToSql(stmt);
    rec.user = stmt_user_;
    std::vector<WalRecord> batch;
    batch.push_back(std::move(rec));
    CommitBatch(std::move(batch), /*txn_id=*/0);
    MaybeAutoCheckpoint(&db);
    return;
  }

  if (type == sql::StatementType::kCheckpoint) {
    // CHECKPOINT changes no durable state, so it must be handled before the
    // state_changed early-return below. A failed attempt leaves the
    // previous generation valid; the statement's own status stands.
    stmt_records_.clear();
    if (executed_ok) (void)Checkpoint(&db);  // defers itself in a txn
    return;
  }

  // Unmoved epochs mean an unchanged schema and unmoved sequences; a moved
  // one is settled by the fingerprint and the positions themselves.
  const Catalog& catalog = db.catalog();
  bool schema_changed = false;
  if (catalog.schema_epoch() != schema_epoch_before_) {
    const uint64_t schema_fp_after = SchemaFingerprint(catalog);
    ++stats_.schema_fingerprints;
    schema_changed = schema_fp_after != schema_fp_;
    schema_fp_ = schema_fp_after;
    schema_fp_epoch_ = catalog.schema_epoch();
  }

  std::vector<WalRecord> seq_records;
  if (catalog.sequence_epoch() != sequence_epoch_before_) {
    SeqSnapshot seq_after;
    for (const std::string& name : catalog.SequenceNames()) {
      const SequenceInfo* seq = catalog.FindSequence(name);
      const std::pair<int64_t, bool> position{seq->current, seq->started};
      seq_after.emplace_hint(seq_after.end(), name, position);
      auto it = seq_before_.find(name);
      if (it != seq_before_.end() && it->second == position) continue;
      WalRecord rec;
      rec.type = WalRecordType::kSeqSet;
      rec.text = name;
      rec.seq_current = seq->current;
      rec.seq_started = seq->started;
      seq_records.push_back(std::move(rec));
    }
    seq_before_ = std::move(seq_after);
    seq_before_epoch_ = catalog.sequence_epoch();
  }

  const bool state_changed = !stmt_records_.empty() || structural_ ||
                             unknown_heap_ || schema_changed ||
                             !seq_records.empty();
  if (!state_changed) return;

  const bool physio_ok = !structural_ && !unknown_heap_ && !schema_changed;

  if (in_txn_ && physio_ok && !txn_logical_mode_) {
    // Steal path: stream this statement's physiological records to the log
    // now, before commit is certain — their before-images make them
    // undoable. Sequence updates cannot be undone, so they join the
    // deferred commit-time suffix instead.
    for (WalRecord& rec : stmt_records_) {
      rec.lsn = lsn_++;
      rec.txn_id = txn_id_;
      rec.deferred = false;
      if (!AppendRecord(rec)) {
        stmt_records_.clear();
        return;
      }
      last_streamed_lsn_ = rec.lsn;
      txn_streamed_ = true;
    }
    stmt_records_.clear();
    for (WalRecord& rec : seq_records) {
      rec.lsn = lsn_++;
      txn_buffer_.push_back(std::move(rec));
    }
    if (wal_.buffered_bytes() >= options_.steal_flush_bytes) {
      Status s = wal_.Flush();
      if (!s.ok()) {
        HandleStorageFailure(s);
        return;
      }
      ++stats_.steal_flushes;
      ++stats_.fsyncs;
    }
    return;
  }

  std::vector<WalRecord> records;
  if (physio_ok) {
    records = std::move(stmt_records_);
    for (WalRecord& rec : seq_records) records.push_back(std::move(rec));
  } else {
    WalRecord rec;
    rec.type = WalRecordType::kLogical;
    rec.text = sql::ToSql(stmt);
    rec.user = stmt_user_;
    records.push_back(std::move(rec));
  }
  stmt_records_.clear();
  for (WalRecord& rec : records) rec.lsn = lsn_++;

  if (in_txn_) {
    // A logical record cannot be undone: it and everything after it in this
    // transaction defer to commit time (recovery drops them as a unit if
    // the transaction loses).
    if (!physio_ok) txn_logical_mode_ = true;
    for (WalRecord& rec : records) txn_buffer_.push_back(std::move(rec));
    return;
  }
  CommitBatch(std::move(records), /*txn_id=*/0);
  MaybeAutoCheckpoint(&db);
}

void StorageEngine::OnPut(const HeapTable* table, RowId id,
                          const Row* before) {
  if (!in_statement_) return;
  auto it = table_names_.find(table);
  if (it == table_names_.end()) {
    unknown_heap_ = true;
    return;
  }
  const Row* row = table->RawRow(id);
  if (row == nullptr) {
    structural_ = true;  // cannot capture a post-image: fall back to logical
    return;
  }
  WalRecord rec;
  rec.type = WalRecordType::kPut;
  rec.table = it->second;
  rec.rid = id;
  rec.row = *row;
  if (before != nullptr) {
    rec.has_before = true;
    rec.before = *before;
  }
  stmt_records_.push_back(std::move(rec));
}

void StorageEngine::OnErase(const HeapTable* table, RowId id,
                            const Row& before) {
  if (!in_statement_) return;
  auto it = table_names_.find(table);
  if (it == table_names_.end()) {
    unknown_heap_ = true;
    return;
  }
  WalRecord rec;
  rec.type = WalRecordType::kErase;
  rec.table = it->second;
  rec.rid = id;
  rec.row = before;  // the undo image
  stmt_records_.push_back(std::move(rec));
}

void StorageEngine::OnStructural(const HeapTable* table) {
  if (!in_statement_) return;
  if (table_names_.count(table) == 0) {
    unknown_heap_ = true;
    return;
  }
  structural_ = true;
}

void StorageEngine::OnTxnBegin(Database& db) {
  (void)db;
  ClearTxn();
  in_txn_ = true;
  txn_id_ = next_txn_id_++;
  // The transaction snapshot was copied just before this hook fired; from
  // now until resolution, flushing a page the snapshot shares must
  // copy-on-write.
  page_store_.BumpCowEpoch();
  page_store_.SetCowActive(true);
}

void StorageEngine::OnTxnCommit(Database& db) {
  const uint64_t txn = txn_id_;
  const bool streamed = txn_streamed_;
  std::vector<WalRecord> batch = std::move(txn_buffer_);
  ClearTxn();
  page_store_.SetCowActive(false);
  if (!batch.empty() || streamed) {
    for (WalRecord& rec : batch) {
      rec.txn_id = txn;
      rec.deferred = true;
    }
    CommitBatch(std::move(batch), txn);
  }
  MaybeAutoCheckpoint(&db);
}

void StorageEngine::OnTxnRollback(Database& db) {
  (void)db;
  const uint64_t txn = txn_id_;
  const bool streamed = txn_streamed_;
  ClearTxn();
  page_store_.SetCowActive(false);
  if (streamed && !degraded_) {
    // Recovery must unwind the streamed prefix. No sync needed: if the
    // marker is lost, everything after it is lost too, and the losers pass
    // undoes the stream at the same position.
    WalRecord rec;
    rec.type = WalRecordType::kAbort;
    rec.lsn = lsn_++;
    rec.txn_id = txn;
    rec.deferred = false;
    (void)AppendRecord(rec);
  }
}

void StorageEngine::OnTxnSavepoint(Database& db, const std::string& name) {
  (void)db;
  savepoint_marks_.push_back(
      SavepointMark{name, txn_buffer_.size(), last_streamed_lsn_});
  // The savepoint took another catalog copy; pages flushed from here on
  // must not overwrite chains that copy shares.
  page_store_.BumpCowEpoch();
}

void StorageEngine::OnTxnRelease(Database& db, const std::string& name) {
  (void)db;
  for (auto it = savepoint_marks_.rbegin(); it != savepoint_marks_.rend();
       ++it) {
    if (it->name == name) {
      // Drop this mark and everything nested inside it; records are kept
      // (RELEASE merges work into the enclosing scope).
      savepoint_marks_.erase(it.base() - 1, savepoint_marks_.end());
      return;
    }
  }
}

void StorageEngine::OnTxnRollbackTo(Database& db, const std::string& name) {
  (void)db;
  for (auto it = savepoint_marks_.rbegin(); it != savepoint_marks_.rend();
       ++it) {
    if (it->name != name) continue;
    txn_buffer_.resize(it->buffer_size);
    if (txn_streamed_ && last_streamed_lsn_ > it->last_streamed_lsn &&
        !degraded_) {
      // Streamed records past the savepoint are already in the log; tell
      // recovery to unwind exactly that suffix.
      WalRecord rec;
      rec.type = WalRecordType::kAbortTo;
      rec.lsn = lsn_++;
      rec.txn_id = txn_id_;
      rec.deferred = false;
      rec.undo_upto = it->last_streamed_lsn;
      (void)AppendRecord(rec);
    }
    last_streamed_lsn_ = it->last_streamed_lsn;
    // Keep the mark itself (SQL semantics: the savepoint survives).
    savepoint_marks_.erase(it.base(), savepoint_marks_.end());
    // The catalog was just restored from the savepoint copy; its pages
    // carry pre-bump epochs, so future flushes keep copy-on-writing away
    // from the chains the outer snapshot still references.
    page_store_.BumpCowEpoch();
    return;
  }
}

}  // namespace lego::minidb
