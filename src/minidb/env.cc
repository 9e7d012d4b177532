#include "minidb/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "chaos/failpoint.h"

namespace lego::minidb {

namespace {

/// Flush granularity for WritableLog::Sync. Each chunk is one write() and
/// one `env.write` failpoint hit, so a kill:N schedule can land *inside* a
/// multi-chunk flush and produce a genuinely torn record tail.
constexpr size_t kLogFlushChunk = 4096;

Status IoError(const std::string& what, const std::string& path) {
  return Status::Internal(what + " failed for '" + path + "': " +
                          std::strerror(errno));
}

Status InjectedError(const std::string& site, const std::string& path) {
  return Status::Internal("injected " + site + " failure for '" + path + "'");
}

// ---------------------------------------------------------------------------
// POSIX Env
// ---------------------------------------------------------------------------

class PosixWritableLog : public WritableLog {
 public:
  PosixWritableLog(int fd, std::string path, uint64_t synced)
      : fd_(fd), path_(std::move(path)), synced_bytes_(synced) {}
  ~PosixWritableLog() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    buffer_.append(data);
    return Status::OK();
  }

  Status Sync() override {
    size_t off = 0;
    while (off < buffer_.size()) {
      if (LEGO_FAILPOINT("env.write")) {
        buffer_.erase(0, off);
        return InjectedError("env.write", path_);
      }
      const size_t n = std::min(kLogFlushChunk, buffer_.size() - off);
      ssize_t w = ::write(fd_, buffer_.data() + off, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        buffer_.erase(0, off);
        return IoError("write", path_);
      }
      off += static_cast<size_t>(w);
    }
    buffer_.clear();
    if (LEGO_FAILPOINT("env.sync")) return InjectedError("env.sync", path_);
    if (::fsync(fd_) != 0) return IoError("fsync", path_);
    synced_bytes_ += off;
    return Status::OK();
  }

  uint64_t BufferedBytes() const override { return buffer_.size(); }
  uint64_t SyncedBytes() const override { return synced_bytes_; }

  Status Truncate() override {
    buffer_.clear();
    if (::ftruncate(fd_, 0) != 0) return IoError("ftruncate", path_);
    synced_bytes_ = 0;
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
  std::string buffer_;
  uint64_t synced_bytes_ = 0;
};

class PosixPagedFile : public PagedFile {
 public:
  PosixPagedFile(int fd, std::string path, uint64_t page_count, EnvStats* stats)
      : fd_(fd), path_(std::move(path)), page_count_(page_count),
        stats_(stats) {}
  ~PosixPagedFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status ReadPage(uint64_t page_id, char* buf) override {
    std::memset(buf, 0, kPageSize);
    size_t got = 0;
    while (got < kPageSize) {
      ssize_t r = ::pread(fd_, buf + got, kPageSize - got,
                          static_cast<off_t>(page_id * kPageSize + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return IoError("pread", path_);
      }
      if (r == 0) break;  // short file: rest stays zero
      got += static_cast<size_t>(r);
    }
    return Status::OK();
  }

  Status WritePage(uint64_t page_id, const char* buf) override {
    if (LEGO_FAILPOINT("env.write")) return InjectedError("env.write", path_);
    size_t put = 0;
    while (put < kPageSize) {
      ssize_t w = ::pwrite(fd_, buf + put, kPageSize - put,
                           static_cast<off_t>(page_id * kPageSize + put));
      if (w < 0) {
        if (errno == EINTR) continue;
        return IoError("pwrite", path_);
      }
      put += static_cast<size_t>(w);
    }
    stats_->bytes_written += kPageSize;
    ++stats_->write_calls;
    page_count_ = std::max(page_count_, page_id + 1);
    return Status::OK();
  }

  Status Sync() override {
    if (LEGO_FAILPOINT("env.sync")) return InjectedError("env.sync", path_);
    if (::fsync(fd_) != 0) return IoError("fsync", path_);
    ++stats_->syncs;
    return Status::OK();
  }

  uint64_t PageCount() const override { return page_count_; }

  Status Truncate() override {
    if (::ftruncate(fd_, 0) != 0) return IoError("ftruncate", path_);
    page_count_ = 0;
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
  uint64_t page_count_;
  EnvStats* stats_;
};

class PosixEnv : public Env {
 public:
  StatusOr<std::unique_ptr<WritableLog>> NewWritableLog(
      const std::string& path, bool truncate) override {
    int flags = O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return IoError("open", path);
    struct stat st;
    uint64_t size = 0;
    if (::fstat(fd, &st) == 0) size = static_cast<uint64_t>(st.st_size);
    return std::unique_ptr<WritableLog>(
        new StatTrackingLog(fd, path, size, &stats_));
  }

  StatusOr<std::unique_ptr<PagedFile>> OpenPagedFile(const std::string& path,
                                                     bool truncate) override {
    int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return IoError("open", path);
    struct stat st;
    uint64_t pages = 0;
    if (::fstat(fd, &st) == 0) {
      pages = (static_cast<uint64_t>(st.st_size) + kPageSize - 1) / kPageSize;
    }
    return std::unique_ptr<PagedFile>(
        new PosixPagedFile(fd, path, pages, &stats_));
  }

  StatusOr<std::string> ReadFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return IoError("open", path);
    std::string out;
    char buf[1 << 16];
    for (;;) {
      ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return IoError("read", path);
      }
      if (r == 0) break;
      out.append(buf, static_cast<size_t>(r));
    }
    ::close(fd);
    return out;
  }

  Status WriteFileAtomic(const std::string& path,
                         std::string_view content) override {
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return IoError("open", tmp);
    size_t off = 0;
    while (off < content.size()) {
      if (LEGO_FAILPOINT("env.write")) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return InjectedError("env.write", tmp);
      }
      ssize_t w = ::write(fd, content.data() + off, content.size() - off);
      if (w < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::unlink(tmp.c_str());
        return IoError("write", tmp);
      }
      off += static_cast<size_t>(w);
    }
    stats_.bytes_written += off;
    ++stats_.write_calls;
    if (LEGO_FAILPOINT("env.sync") || ::fsync(fd) != 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return InjectedError("env.sync", tmp);
    }
    ++stats_.syncs;
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      ::unlink(tmp.c_str());
      return IoError("rename", path);
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return IoError("unlink", path);
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return IoError("rename", from);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    // mkdir -p over the whole path: per-worker db dirs nest under --db-dir.
    std::string prefix;
    size_t pos = 0;
    while (pos <= path.size()) {
      size_t next = path.find('/', pos);
      if (next == std::string::npos) next = path.size();
      prefix = path.substr(0, next);
      if (!prefix.empty() && ::mkdir(prefix.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        return IoError("mkdir", prefix);
      }
      pos = next + 1;
    }
    return Status::OK();
  }

  StatusOr<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) return IoError("opendir", path);
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(dir)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
  }

  Status RemoveDirRecursive(const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) {
      return errno == ENOENT ? Status::OK() : IoError("opendir", path);
    }
    while (struct dirent* e = ::readdir(dir)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string full = path + "/" + name;
      struct stat st;
      if (::stat(full.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        Status s = RemoveDirRecursive(full);
        if (!s.ok()) {
          ::closedir(dir);
          return s;
        }
      } else {
        ::unlink(full.c_str());
      }
    }
    ::closedir(dir);
    if (::rmdir(path.c_str()) != 0 && errno != ENOENT) {
      return IoError("rmdir", path);
    }
    return Status::OK();
  }

 private:
  /// PosixWritableLog plus Env-level stat accounting.
  class StatTrackingLog : public PosixWritableLog {
   public:
    StatTrackingLog(int fd, const std::string& path, uint64_t synced,
                    EnvStats* stats)
        : PosixWritableLog(fd, path, synced), stats_(stats) {}
    Status Append(std::string_view data) override {
      appended_ += data.size();
      return PosixWritableLog::Append(data);
    }
    Status Sync() override {
      const uint64_t pending = BufferedBytes();
      Status s = PosixWritableLog::Sync();
      if (s.ok()) {
        stats_->bytes_written += pending;
        ++stats_->write_calls;
        ++stats_->syncs;
      }
      return s;
    }

   private:
    EnvStats* stats_;
    uint64_t appended_ = 0;
  };
};

}  // namespace

Env* Env::Posix() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

// ---------------------------------------------------------------------------
// MemEnv
// ---------------------------------------------------------------------------

// Defined at namespace scope (not anonymous) so MemEnv's friend declarations
// in the header actually apply.
class MemWritableLog : public WritableLog {
 public:
  MemWritableLog(MemEnv* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    buffer_.append(data);
    return Status::OK();
  }

  Status Sync() override;

  uint64_t BufferedBytes() const override { return buffer_.size(); }
  uint64_t SyncedBytes() const override { return synced_bytes_; }
  Status Truncate() override;

 private:
  friend class lego::minidb::MemEnv;
  MemEnv* env_;
  std::string path_;
  std::string buffer_;
  uint64_t synced_bytes_ = 0;
};

class MemPagedFile : public PagedFile {
 public:
  MemPagedFile(MemEnv* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  Status ReadPage(uint64_t page_id, char* buf) override;
  Status WritePage(uint64_t page_id, const char* buf) override;
  Status Sync() override;
  uint64_t PageCount() const override;
  Status Truncate() override;

 private:
  MemEnv* env_;
  std::string path_;
};

MemEnv::MemEnv() = default;
MemEnv::~MemEnv() = default;

StatusOr<std::unique_ptr<WritableLog>> MemEnv::NewWritableLog(
    const std::string& path, bool truncate) {
  MemFile& f = files_[path];
  if (truncate) f = MemFile{};
  auto log = std::make_unique<MemWritableLog>(this, path);
  log->synced_bytes_ = f.synced.size();
  return std::unique_ptr<WritableLog>(std::move(log));
}

Status MemWritableLog::Sync() {
  auto it = env_->files_.find(path_);
  if (it == env_->files_.end()) {
    return Status::Internal("mem log file vanished: " + path_);
  }
  // Chunked like the POSIX log: a write fault mid-flush leaves a torn tail
  // in the *unsynced* image; the synced image advances only on full success.
  size_t off = 0;
  while (off < buffer_.size()) {
    if (env_->ConsumeWriteFault()) {
      it->second.data.append(buffer_, 0, off);
      buffer_.erase(0, off);
      return Status::Internal("injected mem write failure for " + path_);
    }
    const size_t n = std::min<size_t>(4096, buffer_.size() - off);
    it->second.data.append(buffer_, off, n);
    off += n;
  }
  buffer_.clear();
  if (env_->ConsumeSyncFault()) {
    return Status::Internal("injected mem sync failure for " + path_);
  }
  it->second.synced = it->second.data;
  synced_bytes_ = it->second.synced.size();
  env_->stats_.bytes_written += off;
  ++env_->stats_.write_calls;
  ++env_->stats_.syncs;
  return Status::OK();
}

Status MemWritableLog::Truncate() {
  buffer_.clear();
  env_->files_[path_] = MemEnv::MemFile{};
  synced_bytes_ = 0;
  return Status::OK();
}

StatusOr<std::unique_ptr<PagedFile>> MemEnv::OpenPagedFile(
    const std::string& path, bool truncate) {
  MemFile& f = files_[path];
  if (truncate) f = MemFile{};
  return std::unique_ptr<PagedFile>(new MemPagedFile(this, path));
}

Status MemPagedFile::ReadPage(uint64_t page_id, char* buf) {
  std::memset(buf, 0, kPageSize);
  auto it = env_->files_.find(path_);
  if (it == env_->files_.end()) return Status::OK();
  const std::string& data = it->second.data;
  const uint64_t off = page_id * kPageSize;
  if (off >= data.size()) return Status::OK();
  const size_t n = std::min<uint64_t>(kPageSize, data.size() - off);
  std::memcpy(buf, data.data() + off, n);
  return Status::OK();
}

Status MemPagedFile::WritePage(uint64_t page_id, const char* buf) {
  if (env_->ConsumeWriteFault()) {
    return Status::Internal("injected mem write failure for " + path_);
  }
  auto it = env_->files_.find(path_);
  if (it == env_->files_.end()) {
    return Status::Internal("mem paged file vanished: " + path_);
  }
  std::string& data = it->second.data;
  const uint64_t off = page_id * kPageSize;
  if (data.size() < off + kPageSize) data.resize(off + kPageSize, '\0');
  std::memcpy(data.data() + off, buf, kPageSize);
  env_->stats_.bytes_written += kPageSize;
  ++env_->stats_.write_calls;
  return Status::OK();
}

Status MemPagedFile::Sync() {
  if (env_->ConsumeSyncFault()) {
    return Status::Internal("injected mem sync failure for " + path_);
  }
  auto it = env_->files_.find(path_);
  if (it == env_->files_.end()) {
    return Status::Internal("mem paged file vanished: " + path_);
  }
  it->second.synced = it->second.data;
  ++env_->stats_.syncs;
  return Status::OK();
}

uint64_t MemPagedFile::PageCount() const {
  auto it = env_->files_.find(path_);
  if (it == env_->files_.end()) return 0;
  return (it->second.data.size() + kPageSize - 1) / kPageSize;
}

Status MemPagedFile::Truncate() {
  env_->files_[path_] = MemEnv::MemFile{};
  return Status::OK();
}

StatusOr<std::string> MemEnv::ReadFile(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::Internal("mem file not found: " + path);
  }
  return it->second.data;
}

Status MemEnv::WriteFileAtomic(const std::string& path,
                               std::string_view content) {
  if (ConsumeWriteFault()) {
    return Status::Internal("injected mem write failure for " + path);
  }
  if (ConsumeSyncFault()) {
    return Status::Internal("injected mem sync failure for " + path);
  }
  MemFile& f = files_[path];
  f.data.assign(content);
  f.synced = f.data;  // atomic write is durable by contract
  stats_.bytes_written += content.size();
  ++stats_.write_calls;
  ++stats_.syncs;
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& path) {
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

Status MemEnv::RemoveFile(const std::string& path) {
  files_.erase(path);
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Status::Internal("mem rename source missing: " + from);
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& path) {
  dirs_.insert(path);
  return Status::OK();
}

StatusOr<std::vector<std::string>> MemEnv::ListDir(const std::string& path) {
  std::vector<std::string> names;
  const std::string prefix = path + "/";
  for (const auto& [name, file] : files_) {
    if (name.rfind(prefix, 0) == 0 &&
        name.find('/', prefix.size()) == std::string::npos) {
      names.push_back(name.substr(prefix.size()));
    }
  }
  return names;
}

Status MemEnv::RemoveDirRecursive(const std::string& path) {
  const std::string prefix = path + "/";
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  dirs_.erase(path);
  return Status::OK();
}

void MemEnv::SimulateCrash() {
  for (auto& [name, file] : files_) {
    file.data = file.synced;
  }
}

void MemEnv::TruncateFileTail(const std::string& path, uint64_t bytes) {
  auto it = files_.find(path);
  if (it == files_.end()) return;
  std::string& data = it->second.data;
  data.resize(bytes > data.size() ? 0 : data.size() - bytes);
  it->second.synced = data;
}

}  // namespace lego::minidb
