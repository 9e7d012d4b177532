#ifndef LEGO_PERSIST_FRAME_H_
#define LEGO_PERSIST_FRAME_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace lego::persist {

/// Length-prefixed frames over a pipe, shared by the fork-server backend
/// and the fleet coordinator:
///
///   frame := u32 length | u8 type | payload[length - 1]
///
/// A peer killed mid-write leaves a torn frame the reader detects (short
/// read or an out-of-range length) instead of a desynchronized stream.

/// Upper bound on one frame. Generous (corpus pools ride in fleet lease
/// grants) but finite: a corrupted length prefix fails fast instead of
/// allocating.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Writes one frame, retrying EINTR. EPIPE (peer died) and short writes
/// surface as errors: senders treat any failure as "peer gone".
Status SendFrame(int fd, uint8_t type, std::string_view payload);

/// Blocking read of one frame. NotFound signals clean EOF before a frame
/// started (peer closed); anything else torn or oversized is an error. When
/// `stop` is set, the read aborts with Internal once the flag turns true.
Status RecvFrame(int fd, uint8_t* type, std::string* payload,
                 const std::atomic<bool>* stop = nullptr);

/// Nonblocking reassembly buffer for polled reads: bytes go in as they
/// arrive, complete frames come out. A length prefix of 0 or beyond
/// kMaxFrameBytes poisons the buffer (Overflowed): the peer is speaking
/// garbage.
class FrameBuffer {
 public:
  void Append(const char* data, size_t n) { buf_.append(data, n); }

  /// Extracts the next complete frame. Returns false when no full frame is
  /// buffered yet (or the buffer is poisoned).
  bool Next(uint8_t* type, std::string* payload);

  bool Overflowed() const { return overflowed_; }
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool overflowed_ = false;
};

}  // namespace lego::persist

#endif  // LEGO_PERSIST_FRAME_H_
