#ifndef LEGO_MINIDB_ENV_H_
#define LEGO_MINIDB_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lego::minidb {

/// Fixed page size of the paged storage layer. Shared by the pager, the
/// buffer pool, the snapshot format, and the benchmarks.
inline constexpr size_t kPageSize = 8192;

/// Exit code a forked child uses when the paged storage layer cannot make a
/// commit durable (WAL append/flush/fsync failure in panic mode) or cannot
/// complete a page read/write the heap depends on. Reserved next to
/// faults::kOomExitCode (86); the parent maps it to the durability oracle
/// instead of a generic crash.
inline constexpr int kStorageFailExitCode = 87;

/// Append-only log file handle (WAL). Appends accumulate in a *user-space*
/// buffer; Sync() pushes the buffer to the file in bounded chunks (each
/// chunk passing the `env.write` failpoint) and then fsyncs (`env.sync`).
/// The user-space buffer is the point: a process killed before Sync()
/// genuinely loses the un-synced suffix — the OS page cache would survive a
/// SIGKILL and make an omitted fsync unobservable to the durability oracle.
class WritableLog {
 public:
  virtual ~WritableLog() = default;
  /// Buffers `data`; never touches the file.
  virtual Status Append(std::string_view data) = 0;
  /// Flushes the buffer (chunked writes) and fsyncs. On a mid-flush failure
  /// the file keeps the prefix that made it out — a torn tail.
  virtual Status Sync() = 0;
  /// Bytes appended but not yet pushed by Sync().
  virtual uint64_t BufferedBytes() const = 0;
  /// Durable bytes: file size as of the last successful Sync().
  virtual uint64_t SyncedBytes() const = 0;
  /// Empties the log in place: drops the buffer without writing it and
  /// truncates the file to zero, leaving the state opening with `truncate`
  /// gives. The handle stays open.
  virtual Status Truncate() = 0;
};

/// Page-granular random-access file (snapshot/heap images). Writes pass the
/// `env.write` failpoint; Sync() passes `env.sync`.
class PagedFile {
 public:
  virtual ~PagedFile() = default;
  /// Reads page `page_id` into `buf` (kPageSize bytes). Reading a page that
  /// was never written yields zeros.
  virtual Status ReadPage(uint64_t page_id, char* buf) = 0;
  virtual Status WritePage(uint64_t page_id, const char* buf) = 0;
  virtual Status Sync() = 0;
  /// Pages the file currently spans (highest written page + 1).
  virtual uint64_t PageCount() const = 0;
  /// Truncates the file to zero pages in place; the handle stays open.
  virtual Status Truncate() = 0;
};

/// Counters a storage Env accumulates over its lifetime; the benchmarks and
/// campaign stats report them (WAL bytes, fsyncs per campaign).
struct EnvStats {
  uint64_t bytes_written = 0;
  uint64_t write_calls = 0;
  uint64_t syncs = 0;
};

/// The storage environment seam: every file-system touch of the paged
/// storage engine goes through one of these, so tests can substitute an
/// in-memory Env with crash simulation and fault injection, and the chaos
/// layer's env.* failpoints cover the real one.
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for appending (`truncate` drops existing content first).
  virtual StatusOr<std::unique_ptr<WritableLog>> NewWritableLog(
      const std::string& path, bool truncate) = 0;
  /// Opens/creates a page-granular file.
  virtual StatusOr<std::unique_ptr<PagedFile>> OpenPagedFile(
      const std::string& path, bool truncate) = 0;

  /// Whole-file reads/writes for small metadata (MANIFEST). The write is
  /// atomic: temp file + sync + rename, so a crash never leaves a torn
  /// manifest behind.
  virtual StatusOr<std::string> ReadFile(const std::string& path) = 0;
  virtual Status WriteFileAtomic(const std::string& path,
                                 std::string_view content) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  virtual Status CreateDir(const std::string& path) = 0;
  /// Files directly inside `path` (no subdirectories expected), sorted.
  virtual StatusOr<std::vector<std::string>> ListDir(
      const std::string& path) = 0;
  /// Removes every file in `path` and then the directory itself. Missing
  /// directories are OK (idempotent wipe).
  virtual Status RemoveDirRecursive(const std::string& path) = 0;

  const EnvStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EnvStats{}; }

  /// The process-wide POSIX Env (not owned).
  static Env* Posix();

 protected:
  EnvStats stats_;
};

/// In-memory Env for tests: a private filesystem map with the same
/// buffered-log semantics as the POSIX Env, plus crash simulation (drop
/// everything not synced) and direct fault injection that does not depend
/// on the global chaos registry.
class MemEnv : public Env {
 public:
  MemEnv();
  ~MemEnv() override;

  StatusOr<std::unique_ptr<WritableLog>> NewWritableLog(
      const std::string& path, bool truncate) override;
  StatusOr<std::unique_ptr<PagedFile>> OpenPagedFile(const std::string& path,
                                                     bool truncate) override;
  StatusOr<std::string> ReadFile(const std::string& path) override;
  Status WriteFileAtomic(const std::string& path,
                         std::string_view content) override;
  bool FileExists(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status CreateDir(const std::string& path) override;
  StatusOr<std::vector<std::string>> ListDir(const std::string& path) override;
  Status RemoveDirRecursive(const std::string& path) override;

  /// Reverts every file to its last-synced content (open handles keep
  /// working but their unsynced state is gone) — the moral equivalent of
  /// SIGKILL for in-process recovery tests.
  void SimulateCrash();

  /// Fault injection: the next `n` write/sync operations fail. 0 disarms.
  void FailNextWrites(int n) { fail_writes_ = n; }
  void FailNextSyncs(int n) { fail_syncs_ = n; }
  /// Truncates the tail of `path` by `bytes` (torn-tail construction).
  void TruncateFileTail(const std::string& path, uint64_t bytes);

 private:
  friend class MemWritableLog;
  friend class MemPagedFile;
  struct MemFile {
    std::string data;    // current (possibly unsynced) content
    std::string synced;  // content as of the last sync
  };
  bool ConsumeWriteFault() { return fail_writes_ > 0 ? (--fail_writes_, true)
                                                     : false; }
  bool ConsumeSyncFault() { return fail_syncs_ > 0 ? (--fail_syncs_, true)
                                                   : false; }

  std::map<std::string, MemFile> files_;
  std::set<std::string> dirs_;
  int fail_writes_ = 0;
  int fail_syncs_ = 0;
};

}  // namespace lego::minidb

#endif  // LEGO_MINIDB_ENV_H_
