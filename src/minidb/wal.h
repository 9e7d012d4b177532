#ifndef LEGO_MINIDB_WAL_H_
#define LEGO_MINIDB_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "minidb/env.h"
#include "minidb/row.h"

namespace lego::minidb {

/// Record kinds of the steal/undo WAL. Physiological records carry both the
/// post-image (redo) and the before-image (undo), so records of *open*
/// transactions may be streamed to the log — and flushed — before commit;
/// recovery redoes everything in order and unwinds losers with the
/// before-images (ARIES-lite with a losers pass).
enum class WalRecordType : uint8_t {
  kLogical = 1,  // re-execute `text` as SQL (schema changes, structural ops)
  kPut = 2,      // physiological: post-image of (table, rid) + before-image
  kErase = 3,    // physiological: tombstone (table, rid); `row` = before-image
  kSeqSet = 4,   // sequence position after the statement
  kCommit = 5,   // txn_id committed: its records are permanent
  kAbort = 6,    // txn_id rolled back: undo its streamed records
  kAbortTo = 7,  // partial rollback: undo txn_id's streamed records with
                 // lsn > undo_upto (ROLLBACK TO SAVEPOINT over a stolen
                 // prefix)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  uint64_t lsn = 0;
  /// Owning transaction. 0 = autocommit batch (records and their kCommit
  /// marker are appended as one atomic push).
  uint64_t txn_id = 0;
  /// Deferred records were buffered until commit was certain (logical
  /// records, autocommit batches, post-logical transaction suffixes) and
  /// carry no before-image: recovery applies them only when their txn's
  /// kCommit marker is present. Streamed (non-deferred) records reached the
  /// log mid-transaction under the steal policy; recovery applies them
  /// unconditionally and relies on before-images to unwind losers.
  bool deferred = true;
  std::string text;   // kLogical: SQL text; kSeqSet: sequence name
  std::string user;   // kLogical: session user the statement executed as
  std::string table;  // kPut/kErase
  RowId rid;          // kPut/kErase
  Row row;            // kPut: post-image; kErase: before-image (undo)
  /// kPut undo: the slot's pre-image when it was live (an update), absent
  /// when the put created the slot (an insert; undo re-tombstones it).
  bool has_before = false;
  Row before;
  int64_t seq_current = 0;  // kSeqSet
  bool seq_started = false;
  uint64_t undo_upto = 0;  // kAbortTo: undo streamed records with lsn > this
};

struct WalLoadStats {
  uint64_t records = 0;         // complete records returned
  uint64_t commits = 0;         // kCommit markers seen
  uint64_t loser_records = 0;   // records after the last kCommit (kept —
                                // they are undo candidates, not garbage)
  uint64_t torn_tail_bytes = 0; // unparseable suffix (counted, not fatal)
};

/// Append side of the write-ahead log. Records are framed
/// [u32 len][u64 fnv1a hash][payload] and accumulate in the Env log's
/// user-space buffer; Commit() appends the kCommit marker and pushes the
/// whole batch through Sync() — commit *is* the sync. Under the steal
/// policy, Flush() also runs mid-transaction whenever the buffer grows past
/// the caller's threshold, so large transactions never buffer unboundedly.
/// `wal.append` covers the framing path, env.write/env.sync fire inside
/// Sync.
class WalManager {
 public:
  explicit WalManager(Env* env) : env_(env) {}

  Status Open(const std::string& path, bool truncate);
  bool is_open() const { return log_ != nullptr; }
  const std::string& path() const { return path_; }
  void Close() { log_.reset(); }
  /// Empties the open log in place, as Open(path(), true) would: buffered
  /// bytes are dropped unwritten and the file is truncated to zero.
  Status Truncate();

  Status Append(const WalRecord& rec);

  /// Appends txn `txn_id`'s commit marker and syncs. `skip_sync` is the
  /// planted skip-fsync defect: the batch stays in the user-space buffer
  /// and a SIGKILL genuinely loses it.
  Status Commit(uint64_t lsn, uint64_t txn_id, bool skip_sync);

  /// Pushes the buffer and fsyncs without a commit marker (mid-transaction
  /// steal flush, and tail repair after recovery).
  Status Flush();

  uint64_t appended_records() const { return appended_records_; }
  /// Appended-but-unsynced bytes (the steal flush trigger).
  uint64_t buffered_bytes() const {
    return log_ ? log_->BufferedBytes() : 0;
  }
  uint64_t synced_bytes() const {
    return log_ ? log_->SyncedBytes() : 0;
  }

  /// Replays `path` into records. Stops cleanly at a torn/corrupt frame
  /// (counted in stats, not an error) and returns *every* complete record —
  /// including those past the last kCommit, which the caller's losers pass
  /// unwinds via their before-images. `wal.recover` fires per record read.
  /// A missing file is an empty log.
  static StatusOr<std::vector<WalRecord>> Load(Env* env,
                                               const std::string& path,
                                               WalLoadStats* stats);

 private:
  Env* env_;
  std::string path_;
  std::unique_ptr<WritableLog> log_;
  uint64_t appended_records_ = 0;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_WAL_H_
