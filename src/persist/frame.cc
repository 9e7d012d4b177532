#include "persist/frame.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include "persist/io.h"

namespace lego::persist {
namespace {

/// Writes exactly n bytes, retrying EINTR.
Status WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("pipe write: ") + strerror(errno));
    }
    if (w == 0) return Status::Internal("pipe write: zero write");
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

/// Reads exactly n bytes. NotFound on immediate EOF (nothing read yet),
/// Internal on torn reads / stop-flag abort.
Status ReadAll(int fd, char* data, size_t n, const std::atomic<bool>* stop) {
  size_t off = 0;
  while (off < n) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return Status::Internal("pipe read: stop requested");
    }
    ssize_t r = ::read(fd, data + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("pipe read: ") + strerror(errno));
    }
    if (r == 0) {
      if (off == 0) return Status::NotFound("pipe closed");
      return Status::Internal("pipe read: torn frame");
    }
    off += static_cast<size_t>(r);
  }
  return Status::OK();
}

bool ValidLength(uint32_t len) { return len != 0 && len <= kMaxFrameBytes; }

}  // namespace

Status SendFrame(int fd, uint8_t type, std::string_view payload) {
  if (payload.size() + 1 > kMaxFrameBytes) {
    return Status::Internal("frame too large");
  }
  std::string frame;
  frame.reserve(4 + 1 + payload.size());
  AppendU32(&frame, static_cast<uint32_t>(payload.size() + 1));
  frame.push_back(static_cast<char>(type));
  frame.append(payload.data(), payload.size());
  return WriteAll(fd, frame.data(), frame.size());
}

Status RecvFrame(int fd, uint8_t* type, std::string* payload,
                 const std::atomic<bool>* stop) {
  char len_bytes[4];
  Status st = ReadAll(fd, len_bytes, sizeof(len_bytes), stop);
  if (!st.ok()) return st;
  const uint32_t len = LoadU32(len_bytes);
  if (!ValidLength(len)) return Status::Internal("frame: bad length prefix");
  std::string body(len, '\0');
  st = ReadAll(fd, body.data(), body.size(), stop);
  if (!st.ok()) {
    // EOF mid-body is a torn frame, not a clean close.
    if (st.code() == StatusCode::kNotFound) {
      return Status::Internal("pipe read: torn frame");
    }
    return st;
  }
  *type = static_cast<uint8_t>(body[0]);
  payload->assign(body.data() + 1, body.size() - 1);
  return Status::OK();
}

bool FrameBuffer::Next(uint8_t* type, std::string* payload) {
  if (overflowed_ || buf_.size() < 4) return false;
  const uint32_t len = LoadU32(buf_.data());
  if (!ValidLength(len)) {
    overflowed_ = true;
    return false;
  }
  if (buf_.size() < 4 + static_cast<size_t>(len)) return false;
  *type = static_cast<uint8_t>(buf_[4]);
  payload->assign(buf_.data() + 5, len - 1);
  buf_.erase(0, 4 + static_cast<size_t>(len));
  return true;
}

}  // namespace lego::persist
