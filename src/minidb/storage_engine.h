#ifndef LEGO_MINIDB_STORAGE_ENGINE_H_
#define LEGO_MINIDB_STORAGE_ENGINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "minidb/buffer_pool.h"
#include "minidb/database.h"
#include "minidb/env.h"
#include "minidb/page_store.h"
#include "minidb/wal.h"

namespace lego::minidb {

/// ARIES-lite paged storage engine. Since PR 9 it is the *source of truth*
/// for row storage: every non-temporary heap routes its rows through a
/// PageStore ("heap.pages" — slotted logical pages chunked across 8 KiB
/// physical pages under one BufferPool), so reads are served from pager
/// frames and working sets larger than `pool_frames` genuinely evict and
/// reload through Env. The in-memory execution path (`--storage=mem`) never
/// constructs an engine and is bit-identical to before.
///
/// Logging is steal/undo: physiological records carry both the post-image
/// (redo) and the before-image (undo), so records of *open* transactions
/// stream to the WAL mid-transaction — and flush once the log buffer passes
/// `steal_flush_bytes` — instead of buffering unboundedly until COMMIT.
/// Recovery is redo-then-undo: replay every record in order (deferred
/// records only when their transaction's kCommit marker is present), undo
/// aborted streams at their kAbort/kAbortTo positions, then unwind losers —
/// streamed records of transactions that never resolved — in reverse LSN
/// order via their before-images, appending compensating kAbort markers so
/// a second crash recovers identically.
///
/// ResetFresh and OpenOrRecover make the engine the Database's StorageHook,
/// whose statement bracket Database::Execute opens around every statement,
/// and the StorageObserver of every paged heap. Row reports outside a
/// bracket (a concurrent run, which uninstalls the hook) are ignored.
///
/// Per statement, effects are classified:
///  - *physiological* — only row puts/erases on known non-temporary tables,
///    no schema change: each effect becomes a kPut/kErase (idempotent on
///    replay), plus kSeqSet for moved sequences. Whether the schema changed
///    is decided by SchemaFingerprint, which the bracket takes only when
///    the catalog's schema epoch moved during the statement.
///  - *logical* — schema changes, structural heap rewrites (VACUUM,
///    TRUNCATE), or mutations of tables born this statement: one kLogical
///    record re-executes the statement's SQL at recovery.
/// Logical records cannot be undone, so they are always *deferred*
/// (buffered until commit is certain); once a transaction logs one, the
/// rest of that transaction defers too — mixing streamed records after a
/// dropped logical prefix would undo against the wrong heap layout.
/// SET/PRAGMA/ALTER SYSTEM/DISCARD are logged logically outside the
/// transaction buffer, mirroring their non-transactional semantics.
///
/// Commit protocol: autocommit statements append their records plus a
/// kCommit marker and fsync before the statement is acknowledged; a
/// transaction streams physiological records as it goes, appends the
/// deferred suffix plus kCommit(txn) at COMMIT, and fsyncs then. An
/// acknowledged effect is always synced; a crash loses at most
/// unacknowledged work — the invariant the durability oracle checks.
///
/// Snapshot transactions over shared pages are kept sound by the
/// PageStore's copy-on-write epoch: the engine bumps the epoch at BEGIN,
/// SAVEPOINT, and ROLLBACK TO, and arms cow for the transaction's duration,
/// so a heap flushing a dirty page the snapshot shares writes a fresh chain
/// instead of overwriting. Orphaned chains are reclaimed by a mark-and-
/// sweep at checkpoint.
///
/// Directory layout: MANIFEST (atomic; snapshot LSN, 0 = none),
/// snap.<lsn> (paged image streamed through its own BufferPool), wal.<lsn>
/// (rotated at checkpoint), heap.pages (the PageStore backing file — a
/// runtime cache of the live heaps, emptied and refilled at recovery;
/// durability lives in snapshot + WAL). A fresh generation is exactly
/// MANIFEST (0), wal.0 and heap.pages.
///
/// Lifecycle: the engine owns one PageStore, and so one heap pool, for its
/// whole life. Construction does no I/O; the first ResetFresh or
/// OpenOrRecover opens the files. From then on the engine keeps one handle
/// on the current WAL and one on heap.pages, and every later reset or
/// recovery empties or refills them through those handles.
class StorageEngine : public StorageHook, public StorageObserver {
 public:
  struct Options {
    Env* env = nullptr;  // nullptr → Env::Posix()
    std::string dir;
    size_t pool_frames = 64;
    uint64_t checkpoint_every_commits = 128;
    /// Mid-transaction WAL push threshold (the steal policy's bound on
    /// buffered log bytes).
    size_t steal_flush_bytes = 64 * 1024;
    /// Planted defect: acknowledge commits without fsync (--planted-skip-
    /// fsync). Committed batches stay in the user-space log buffer and a
    /// SIGKILL genuinely loses them.
    bool skip_fsync = false;
    /// Forked child: a commit that cannot be made durable _exit()s with
    /// kStorageFailExitCode before acknowledging. In-process: the engine
    /// degrades (stops logging, flags degraded()) instead.
    bool panic_on_storage_error = false;
  };

  struct Stats {
    uint64_t commits = 0;
    uint64_t checkpoints = 0;
    uint64_t wal_records = 0;
    uint64_t recovered_records = 0;
    uint64_t recovered_commits = 0;
    /// Uncommitted records found in the log at recovery (losers + aborted
    /// streams — undo candidates, not corruption).
    uint64_t loser_records = 0;
    /// Undo operations applied (recovery losers pass + abort positions).
    uint64_t undo_applied = 0;
    uint64_t torn_tail_bytes = 0;
    /// Mid-transaction WAL pushes forced by steal_flush_bytes.
    uint64_t steal_flushes = 0;
    /// Bytes pushed to the log (appended frames, synced or not).
    uint64_t wal_bytes = 0;
    /// Log fsyncs issued (commit syncs + steal flushes).
    uint64_t fsyncs = 0;
    /// SchemaFingerprint calls made by the statement bracket.
    uint64_t schema_fingerprints = 0;
    /// Combined pager traffic: snapshot read/write pools plus the heap
    /// PageStore's pool (merged by stats()).
    BufferPool::Stats pool;
    /// Heap PageStore counters (blob I/O, cow writes, sweeps).
    PageStore::Stats pages;
  };

  explicit StorageEngine(Options options);

  // --- lifecycle ---

  /// Starts a fresh generation (manifest LSN 0, empty WAL, empty page
  /// store); resets `*db` and routes its heaps through the page store. The
  /// per-case reset, one sequence from any prior state:
  ///  1. unless this engine last wrote or read MANIFEST as 0 and is not
  ///     degraded, removes everything in the directory but MANIFEST, wal.0
  ///     and heap.pages (or creates the directory) and writes MANIFEST 0
  ///     atomically. This runs on the first reset, after any Checkpoint
  ///     attempt (deferred and failed ones included), after OpenOrRecover
  ///     of a later generation and after a degradation;
  ///  2. empties wal.0 and heap.pages through the open handles, opening one
  ///     only where the engine has none on that file; the log's unsynced
  ///     buffer is dropped unwritten;
  ///  3. clears the pool frames without write-back and rewinds the page
  ///     allocator. The pool and its counters live on.
  /// The common case, a reset after a case without a checkpoint, is step 2
  /// and 3 only: no directory listing, manifest write or file open.
  /// The engine becomes `*db`'s storage hook only once all three succeed.
  /// After a failure the case runs on memory-mode heaps and is not logged,
  /// and the next reset starts again at step 1.
  Status ResetFresh(Database* db);

  /// Loads the manifest/snapshot, replays the WAL into `*db` redo-then-undo
  /// (appending kAbort markers for losers, repairing a torn tail), reopens
  /// the WAL for appending, sweeps files of other generations, and
  /// re-paginates the recovered heaps through the emptied page store.
  /// Idempotent: recovering twice yields the same state.
  Status OpenOrRecover(Database* db);

  /// Writes snap.<lsn> through the buffer pool, rotates the WAL, flips the
  /// manifest, removes the previous generation, and sweeps orphaned page
  /// chains. Deferred while a transaction is open.
  Status Checkpoint(Database* db);

  /// Pure-read recovery into `*db` for out-of-process verification (the
  /// parent-side durability checker reads a dead child's directory without
  /// disturbing it). Installs nothing, repairs nothing, appends nothing.
  static Status RecoverInto(Env* env, const std::string& dir, Database* db,
                            WalLoadStats* wal_stats);

  bool degraded() const { return degraded_ || page_store_.degraded(); }
  uint64_t lsn() const { return lsn_; }
  /// Counter snapshot with the heap page store's pool/blob stats merged in.
  Stats stats() const;
  const Options& options() const { return options_; }
  Env* env() const { return env_; }
  const PageStore& page_store() const { return page_store_; }

  // --- StorageObserver (captured inside the statement bracket only) ---
  void OnPut(const HeapTable* table, RowId id, const Row* before) override;
  void OnErase(const HeapTable* table, RowId id, const Row& before) override;
  void OnStructural(const HeapTable* table) override;

  // --- StorageHook (transaction boundaries, success path only) ---
  void OnTxnBegin(Database& db) override;
  void OnTxnCommit(Database& db) override;
  void OnTxnRollback(Database& db) override;
  void OnTxnSavepoint(Database& db, const std::string& name) override;
  void OnTxnRelease(Database& db, const std::string& name) override;
  void OnTxnRollbackTo(Database& db, const std::string& name) override;

 private:
  // --- statement bracket (Database::Execute wraps every statement) ---

  /// Opens the bracket: records the catalog's schema and sequence epochs
  /// and brings the schema fingerprint, table_names_ and seq_before_ up to
  /// them, rebuilding only a cache whose epoch tag differs.
  void OnStatementBegin(Database& db) override;
  /// Classifies and logs the statement's captured effects. The schema
  /// counts as changed only if the schema epoch moved and the fingerprint
  /// differs; the sequences are walked for kSeqSet records only if the
  /// sequence epoch moved (see Catalog for the epoch contract). A
  /// CHECKPOINT statement runs Checkpoint here; a failed attempt is not
  /// reported (the previous generation stays valid and stats().checkpoints
  /// stays put).
  void OnStatementEnd(Database& db, const sql::Statement& stmt,
                      bool executed_ok) override;

  struct ManifestInfo {
    uint64_t snapshot_lsn = 0;  // 0 = no snapshot yet
  };

  /// Savepoint bookmark: how much of the deferred buffer and the streamed
  /// prefix belongs to the enclosing scope.
  struct SavepointMark {
    std::string name;
    size_t buffer_size = 0;
    uint64_t last_streamed_lsn = 0;
  };

  std::string ManifestPath() const { return options_.dir + "/MANIFEST"; }
  std::string SnapPath(uint64_t lsn) const;
  std::string WalPath(uint64_t lsn) const;
  std::string HeapPagesPath() const { return options_.dir + "/heap.pages"; }

  Status WriteManifest(const ManifestInfo& info);
  static StatusOr<ManifestInfo> ReadManifest(Env* env, const std::string& dir);

  /// Serializes the catalog into snap.tmp via the buffer pool and renames
  /// it into place.
  Status WriteSnapshot(const Database& db, uint64_t lsn,
                       BufferPool::Stats* pool_stats);
  static Status LoadSnapshot(Env* env, const std::string& path,
                             size_t pool_frames, Catalog* out,
                             BufferPool::Stats* pool_stats);

  /// Redo-then-undo replay of loaded WAL records on top of the (snapshot)
  /// state in `*db`. Deferred records apply only when their transaction
  /// committed; streamed records apply unconditionally and are unwound at
  /// kAbort/kAbortTo positions or, for losers, at end of log in reverse LSN
  /// order. `loser_txns` (optional) receives the ids of transactions whose
  /// streams were unwound by the losers pass; `undo_count` (optional)
  /// counts undo operations applied.
  static Status ReplayInto(Database* db, const std::vector<WalRecord>& recs,
                           std::vector<uint64_t>* loser_txns,
                           uint64_t* undo_count);
  static void RebuildIndexes(Catalog* catalog);

  /// Removes every entry of the directory not named in `keep`.
  Status RemoveAllExcept(const std::set<std::string>& keep);

  /// Flushes `records` + a kCommit(txn_id) marker to the WAL and syncs
  /// (unless the skip-fsync plant is armed). On failure: panic or degrade.
  void CommitBatch(std::vector<WalRecord> records, uint64_t txn_id);
  /// Appends one record, tracking stats; false on failure (after applying
  /// the failure policy).
  bool AppendRecord(const WalRecord& rec);
  /// Panic (_exit(kStorageFailExitCode)) or set degraded_, per options.
  void HandleStorageFailure(const Status& status);
  /// Ends the transaction bookkeeping: no transaction, nothing streamed or
  /// buffered, no savepoint marks.
  void ClearTxn();
  /// Clears the transaction and statement state of a new generation.
  void ResetTxnState(uint64_t next_txn_id);
  void MaybeAutoCheckpoint(Database* db);

  /// Sequence positions by name.
  using SeqSnapshot = std::map<std::string, std::pair<int64_t, bool>>;

  Options options_;
  Env* env_;
  WalManager wal_;
  PageStore page_store_;
  uint64_t lsn_ = 1;
  bool degraded_ = false;
  /// The snapshot LSN MANIFEST holds as this engine last wrote or read it,
  /// with nothing of another generation beside it. Unknown (nullopt)
  /// before the first reset, from the start of any Checkpoint attempt
  /// (a deferred one included) until its manifest flip succeeds, and while
  /// a ResetFresh or OpenOrRecover runs.
  std::optional<uint64_t> manifest_lsn_;
  Stats stats_;

  // Transaction state. Streamed records are already in the log; the buffer
  // holds the deferred suffix (sequence updates, post-logical records).
  bool in_txn_ = false;
  uint64_t txn_id_ = 0;        // current transaction, 0 = none
  uint64_t next_txn_id_ = 1;
  bool txn_streamed_ = false;  // any record streamed for this txn
  bool txn_logical_mode_ = false;  // a logical record forced full deferral
  uint64_t last_streamed_lsn_ = 0;
  std::vector<WalRecord> txn_buffer_;
  std::vector<SavepointMark> savepoint_marks_;
  uint64_t commits_since_checkpoint_ = 0;
  bool checkpoint_pending_ = false;

  // Per-statement capture state.
  bool in_statement_ = false;
  bool structural_ = false;
  bool unknown_heap_ = false;
  /// The catalog's epochs when the statement began.
  uint64_t schema_epoch_before_ = 0;
  uint64_t sequence_epoch_before_ = 0;
  /// Caches of catalog state, each tagged with the catalog epoch it was
  /// taken at (0 = none; no epoch is 0). OnStatementBegin rebuilds one only
  /// when the catalog's epoch differs from its tag, and OnStatementEnd
  /// refreshes the two that a statement which moved their epoch has just
  /// walked. Between a statement's begin and end, schema_fp_ is the
  /// fingerprint at the begin. ResetTxnState drops all three tags, and
  /// ResetFresh then tags the empty catalog's fingerprint. Checkpoint drops
  /// the fingerprint's: a concurrent run, whose statements bypass the
  /// bracket, ends in one.
  uint64_t schema_fp_ = 0;
  uint64_t schema_fp_epoch_ = 0;
  /// Non-temporary heap -> table name (the WAL records' table key).
  std::map<const HeapTable*, std::string> table_names_;
  uint64_t table_names_epoch_ = 0;
  SeqSnapshot seq_before_;
  uint64_t seq_before_epoch_ = 0;
  std::string stmt_user_;
  std::vector<WalRecord> stmt_records_;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_STORAGE_ENGINE_H_
