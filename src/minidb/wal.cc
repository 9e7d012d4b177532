#include "minidb/wal.h"

#include <cstring>
#include <utility>

#include "chaos/failpoint.h"
#include "minidb/storage_serde.h"
#include "persist/io.h"
#include "util/hash.h"

namespace lego::minidb {

namespace {

constexpr size_t kFrameHeader = sizeof(uint32_t) + sizeof(uint64_t);

void EncodeRecord(const WalRecord& rec, persist::StateWriter* w) {
  w->WriteU8(static_cast<uint8_t>(rec.type));
  w->WriteU64(rec.lsn);
  w->WriteU64(rec.txn_id);
  w->WriteBool(rec.deferred);
  switch (rec.type) {
    case WalRecordType::kLogical:
      w->WriteString(rec.text);
      w->WriteString(rec.user);
      break;
    case WalRecordType::kPut:
      w->WriteString(rec.table);
      w->WriteU32(rec.rid.page);
      w->WriteU32(rec.rid.slot);
      SerializeRow(rec.row, w);
      w->WriteBool(rec.has_before);
      if (rec.has_before) SerializeRow(rec.before, w);
      break;
    case WalRecordType::kErase:
      w->WriteString(rec.table);
      w->WriteU32(rec.rid.page);
      w->WriteU32(rec.rid.slot);
      SerializeRow(rec.row, w);  // before-image for the losers pass
      break;
    case WalRecordType::kSeqSet:
      w->WriteString(rec.text);
      w->WriteI64(rec.seq_current);
      w->WriteBool(rec.seq_started);
      break;
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      break;
    case WalRecordType::kAbortTo:
      w->WriteU64(rec.undo_upto);
      break;
  }
}

StatusOr<WalRecord> DecodeRecord(std::string payload) {
  persist::StateReader r = persist::StateReader::FromPayload(std::move(payload));
  WalRecord rec;
  rec.type = static_cast<WalRecordType>(r.ReadU8());
  rec.lsn = r.ReadU64();
  rec.txn_id = r.ReadU64();
  rec.deferred = r.ReadBool();
  switch (rec.type) {
    case WalRecordType::kLogical:
      rec.text = r.ReadString();
      rec.user = r.ReadString();
      break;
    case WalRecordType::kPut:
      rec.table = r.ReadString();
      rec.rid.page = r.ReadU32();
      rec.rid.slot = r.ReadU32();
      rec.row = DeserializeRow(&r);
      rec.has_before = r.ReadBool();
      if (rec.has_before) rec.before = DeserializeRow(&r);
      break;
    case WalRecordType::kErase:
      rec.table = r.ReadString();
      rec.rid.page = r.ReadU32();
      rec.rid.slot = r.ReadU32();
      rec.row = DeserializeRow(&r);
      break;
    case WalRecordType::kSeqSet:
      rec.text = r.ReadString();
      rec.seq_current = r.ReadI64();
      rec.seq_started = r.ReadBool();
      break;
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      break;
    case WalRecordType::kAbortTo:
      rec.undo_upto = r.ReadU64();
      break;
    default:
      return Status::Internal("unknown WAL record type");
  }
  if (!r.ok()) return r.status();
  return rec;
}

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

}  // namespace

Status WalManager::Open(const std::string& path, bool truncate) {
  auto log = env_->NewWritableLog(path, truncate);
  if (!log.ok()) return log.status();
  log_ = std::move(log).ValueOrDie();
  path_ = path;
  appended_records_ = 0;
  return Status::OK();
}

Status WalManager::Truncate() {
  if (log_ == nullptr) return Status::Internal("WAL is not open");
  LEGO_RETURN_IF_ERROR(log_->Truncate());
  appended_records_ = 0;
  return Status::OK();
}

Status WalManager::Append(const WalRecord& rec) {
  if (log_ == nullptr) return Status::Internal("WAL is not open");
  if (LEGO_FAILPOINT("wal.append")) {
    return Status::Internal("injected wal.append failure");
  }
  persist::StateWriter w;
  EncodeRecord(rec, &w);
  const std::string& payload = w.buffer();
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint64_t hash = Fnv1a64(payload);
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(reinterpret_cast<const char*>(&hash), sizeof(hash));
  frame.append(payload);
  LEGO_RETURN_IF_ERROR(log_->Append(frame));
  ++appended_records_;
  return Status::OK();
}

Status WalManager::Commit(uint64_t lsn, uint64_t txn_id, bool skip_sync) {
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.lsn = lsn;
  rec.txn_id = txn_id;
  LEGO_RETURN_IF_ERROR(Append(rec));
  // Planted defect --planted-skip-fsync: acknowledge without pushing the
  // user-space buffer to the file. The durability oracle must catch this.
  if (skip_sync) return Status::OK();
  return log_->Sync();
}

Status WalManager::Flush() {
  if (log_ == nullptr) return Status::Internal("WAL is not open");
  return log_->Sync();
}

StatusOr<std::vector<WalRecord>> WalManager::Load(Env* env,
                                                  const std::string& path,
                                                  WalLoadStats* stats) {
  WalLoadStats local;
  WalLoadStats* st = stats != nullptr ? stats : &local;
  *st = WalLoadStats{};
  if (!env->FileExists(path)) return std::vector<WalRecord>{};
  auto data_or = env->ReadFile(path);
  if (!data_or.ok()) return data_or.status();
  const std::string& data = data_or.value();

  std::vector<WalRecord> records;
  size_t last_commit_count = 0;  // records.size() as of the last kCommit
  uint64_t commits_kept = 0;
  size_t pos = 0;
  while (pos + kFrameHeader <= data.size()) {
    const uint32_t len = DecodeU32(data.data() + pos);
    const uint64_t hash = DecodeU64(data.data() + pos + sizeof(uint32_t));
    if (pos + kFrameHeader + len > data.size()) break;  // torn frame
    std::string payload = data.substr(pos + kFrameHeader, len);
    if (Fnv1a64(payload) != hash) break;  // corrupt frame: treat as tail
    if (LEGO_FAILPOINT("wal.recover")) {
      return Status::Internal("injected wal.recover failure");
    }
    auto rec = DecodeRecord(std::move(payload));
    if (!rec.ok()) break;  // undecodable but checksummed: stop, keep prefix
    pos += kFrameHeader + len;
    const bool is_commit = rec.value().type == WalRecordType::kCommit;
    records.push_back(std::move(rec).ValueOrDie());
    if (is_commit) {
      last_commit_count = records.size();
      ++commits_kept;
    }
  }
  st->torn_tail_bytes = data.size() - pos;
  // Steal: complete records past the last commit are *kept* — they belong
  // to transactions that never committed, and the caller's losers pass
  // unwinds their effects with the before-images they carry.
  st->loser_records = records.size() - last_commit_count;
  st->records = records.size();
  st->commits = commits_kept;
  return records;
}

}  // namespace lego::minidb
