#ifndef LEGO_FLEET_PROTOCOL_H_
#define LEGO_FLEET_PROTOCOL_H_

#include <cstdint>
#include <string_view>

#include "persist/frame.h"
#include "persist/io.h"
#include "util/status.h"

namespace lego::fleet {

/// Coordinator <-> worker wire protocol over anonymous pipes, one pair per
/// worker slot, in the persist frames the fork-server backend also speaks
/// (persist/frame.h):
///
///   frame := u32 length | u8 type | payload[length - 1]
///
/// so a worker killed mid-write leaves a torn frame the coordinator detects
/// (short read / oversized length) instead of a desynchronized stream.
/// Payloads are persist envelopes or little-endian scalars; the result
/// payload additionally carries its own magic/version/checksum envelope so
/// the coordinator can reject poisoned results that arrive in well-formed
/// frames.
enum class MsgType : uint8_t {
  kHello = 1,       // worker -> coord: u64 pid (ready for a lease)
  kHeartbeat = 2,   // worker -> coord: u32 shard | u64 executions
  kResult = 3,      // worker -> coord: u32 shard | enveloped ShardOutcome
  kLeaseGrant = 4,  // coord -> worker: u32 shard | enveloped pool
  kShutdown = 5,    // coord -> worker: drain and exit(0)
};

using persist::FrameBuffer;
using persist::kMaxFrameBytes;

/// persist::SendFrame with a typed message. Workers drain on SIGTERM even
/// when blocked in RecvFrame on the command pipe, through its stop flag.
inline Status SendFrame(int fd, MsgType type, std::string_view payload) {
  return persist::SendFrame(fd, static_cast<uint8_t>(type), payload);
}
using persist::RecvFrame;

// Little-endian scalars of the fixed-layout payloads. ReadU32/ReadU64
// return 0 past the end of `bytes`.
using persist::AppendU32;
using persist::AppendU64;
inline uint32_t ReadU32(std::string_view bytes, size_t offset) {
  return offset + 4 <= bytes.size() ? persist::LoadU32(bytes.data() + offset)
                                    : 0;
}
inline uint64_t ReadU64(std::string_view bytes, size_t offset) {
  return offset + 8 <= bytes.size() ? persist::LoadU64(bytes.data() + offset)
                                    : 0;
}

}  // namespace lego::fleet

#endif  // LEGO_FLEET_PROTOCOL_H_
