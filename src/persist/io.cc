#include "persist/io.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "chaos/failpoint.h"
#include "util/hash.h"

namespace lego::persist {

namespace {

constexpr char kMagic[4] = {'L', 'G', 'S', 'T'};
// Envelope: magic(4) version(4) payload_size(8) payload checksum(8).
constexpr size_t kHeaderSize = 4 + 4 + 8;
constexpr size_t kTrailerSize = 8;

/// Shared temp-then-rename protocol for state files and text artifacts.
/// The persist.* failpoints model each stage an OS-level write can fail at
/// (short-circuited after the real error check, so they only fire on
/// writes that would otherwise have succeeded).
Status WriteBytesAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f || LEGO_FAILPOINT("persist.open")) {
      return Status::Internal("cannot open " + tmp + " for writing");
    }
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f || LEGO_FAILPOINT("persist.write")) {
      return Status::Internal("short write to " + tmp);
    }
  }
  if (LEGO_FAILPOINT("persist.rename")) {
    return Status::Internal("rename " + tmp + " -> " + path +
                            ": injected fault");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal("rename " + tmp + " -> " + path + ": " +
                            ec.message());
  }
  return Status::OK();
}

}  // namespace

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::string TagName(uint32_t tag) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    out.push_back(c >= 0x20 && c < 0x7f ? c : '?');
  }
  return out;
}

void StateWriter::WriteU32(uint32_t v) { AppendU32(&buf_, v); }

void StateWriter::WriteU64(uint64_t v) { AppendU64(&buf_, v); }

void StateWriter::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void StateWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  buf_.append(s.data(), s.size());
}

void StateWriter::BeginChunk(uint32_t tag) {
  WriteU32(tag);
  open_chunks_.push_back(buf_.size());
  WriteU64(0);  // placeholder, patched by EndChunk
}

void StateWriter::EndChunk() {
  size_t at = open_chunks_.back();
  open_chunks_.pop_back();
  uint64_t len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i) {
    buf_[at + static_cast<size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

std::string StateWriter::EnvelopedBytes() const {
  std::string out;
  out.reserve(kHeaderSize + buf_.size() + kTrailerSize);
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kFormatVersion);
  AppendU64(&out, buf_.size());
  out.append(buf_);
  AppendU64(&out, Fnv1a64(buf_));
  return out;
}

Status StateWriter::WriteFileAtomic(const std::string& path) const {
  return WriteBytesAtomic(path, EnvelopedBytes());
}

Status WriteTextFileAtomic(const std::string& path, std::string_view content) {
  return WriteBytesAtomic(path, content);
}

StatusOr<StateReader> StateReader::FromFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::NotFound("state file not found: " + path);
  }
  if (LEGO_FAILPOINT("persist.read")) {
    return Status::Internal("read " + path + ": injected fault");
  }
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return FromEnvelope(std::move(bytes));
}

StatusOr<StateReader> StateReader::FromFileLenient(const std::string& path,
                                                   bool* degraded) {
  if (degraded != nullptr) *degraded = false;
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::NotFound("state file not found: " + path);
  }
  if (LEGO_FAILPOINT("persist.read")) {
    return Status::Internal("read " + path + ": injected fault");
  }
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("state file truncated before header: " +
                                   std::to_string(bytes.size()) + " bytes");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a lego state file (bad magic)");
  }
  uint32_t version = LoadU32(bytes.data() + 4);
  if (version != kFormatVersion) {
    return Status::Unsupported("state format version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kFormatVersion) + ")");
  }
  const uint64_t declared = LoadU64(bytes.data() + 8);
  const size_t body = bytes.size() - kHeaderSize;  // payload (+trailer if any)
  if (body >= declared && body - declared == kTrailerSize) {
    // Structurally complete — accept only if the checksum also holds.
    std::string payload = bytes.substr(kHeaderSize, declared);
    uint64_t checksum = LoadU64(bytes.data() + kHeaderSize + declared);
    if (checksum == Fnv1a64(payload)) {
      return StateReader(std::move(payload));
    }
  }
  // Damaged envelope: hand back the payload prefix actually present (a
  // truncated file may end inside the payload or inside the trailer; the
  // clamp below never exposes more than the declared payload length).
  if (degraded != nullptr) *degraded = true;
  const size_t take = static_cast<size_t>(
      declared < body ? declared : static_cast<uint64_t>(body));
  return StateReader(bytes.substr(kHeaderSize, take));
}

Status ProbeEnvelope(std::string_view bytes, uint32_t* version) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    return Status::InvalidArgument("envelope truncated: " +
                                   std::to_string(bytes.size()) + " bytes");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a lego state envelope (bad magic)");
  }
  const uint32_t v = LoadU32(bytes.data() + 4);
  if (version != nullptr) *version = v;
  if (v != kFormatVersion) {
    return Status::Unsupported("state format version " + std::to_string(v) +
                               " (expected " +
                               std::to_string(kFormatVersion) + ")");
  }
  const uint64_t payload_size = LoadU64(bytes.data() + 8);
  if (payload_size != bytes.size() - kHeaderSize - kTrailerSize) {
    return Status::InvalidArgument(
        "envelope truncated: payload declares " +
        std::to_string(payload_size) + " bytes, frame holds " +
        std::to_string(bytes.size() - kHeaderSize - kTrailerSize));
  }
  const std::string_view payload = bytes.substr(kHeaderSize, payload_size);
  if (LoadU64(bytes.data() + kHeaderSize + payload_size) !=
      Fnv1a64(payload)) {
    return Status::InvalidArgument("envelope corrupt (checksum mismatch)");
  }
  return Status::OK();
}

StatusOr<StateReader> StateReader::FromEnvelope(std::string bytes) {
  if (bytes.size() < kHeaderSize + kTrailerSize) {
    return Status::InvalidArgument("state file truncated: " +
                                   std::to_string(bytes.size()) + " bytes");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a lego state file (bad magic)");
  }
  uint32_t version = LoadU32(bytes.data() + 4);
  if (version != kFormatVersion) {
    return Status::Unsupported("state format version " +
                               std::to_string(version) + " (expected " +
                               std::to_string(kFormatVersion) + ")");
  }
  uint64_t payload_size = LoadU64(bytes.data() + 8);
  if (payload_size != bytes.size() - kHeaderSize - kTrailerSize) {
    return Status::InvalidArgument(
        "state file truncated: payload declares " +
        std::to_string(payload_size) + " bytes, file holds " +
        std::to_string(bytes.size() - kHeaderSize - kTrailerSize));
  }
  std::string payload = bytes.substr(kHeaderSize, payload_size);
  uint64_t checksum = LoadU64(bytes.data() + kHeaderSize + payload_size);
  if (checksum != Fnv1a64(payload)) {
    return Status::InvalidArgument("state file corrupt (checksum mismatch)");
  }
  return StateReader(std::move(payload));
}

StateReader StateReader::FromPayload(std::string payload) {
  return StateReader(std::move(payload));
}

bool StateReader::Require(size_t n) {
  if (!status_.ok()) return false;
  if (pos_ + n > Limit()) {
    Fail("state chunk overrun: need " + std::to_string(n) + " bytes, " +
         std::to_string(Limit() - pos_) + " left");
    return false;
  }
  return true;
}

void StateReader::Fail(std::string msg) {
  if (status_.ok()) status_ = Status::InvalidArgument(std::move(msg));
}

uint8_t StateReader::ReadU8() {
  if (!Require(1)) return 0;
  return static_cast<uint8_t>(payload_[pos_++]);
}

uint32_t StateReader::ReadU32() {
  if (!Require(4)) return 0;
  uint32_t v = LoadU32(payload_.data() + pos_);
  pos_ += 4;
  return v;
}

uint64_t StateReader::ReadU64() {
  if (!Require(8)) return 0;
  uint64_t v = LoadU64(payload_.data() + pos_);
  pos_ += 8;
  return v;
}

double StateReader::ReadDouble() {
  uint64_t bits = ReadU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string StateReader::ReadString() {
  uint64_t len = ReadU64();
  if (!Require(len)) return {};
  std::string s = payload_.substr(pos_, len);
  pos_ += len;
  return s;
}

Status StateReader::EnterChunk(uint32_t expected_tag) {
  uint32_t tag = ReadU32();
  uint64_t len = ReadU64();
  if (!status_.ok()) return status_;
  if (tag != expected_tag) {
    Fail("expected chunk " + TagName(expected_tag) + ", found " +
         TagName(tag));
    return status_;
  }
  if (pos_ + len > Limit()) {
    Fail("chunk " + TagName(tag) + " overruns its parent");
    return status_;
  }
  limits_.push_back(pos_ + static_cast<size_t>(len));
  return Status::OK();
}

Status StateReader::EnterChunkTruncated(uint32_t expected_tag) {
  uint32_t tag = ReadU32();
  uint64_t len = ReadU64();
  if (!status_.ok()) return status_;
  if (tag != expected_tag) {
    Fail("expected chunk " + TagName(expected_tag) + ", found " +
         TagName(tag));
    return status_;
  }
  const size_t end = pos_ + static_cast<size_t>(len);
  limits_.push_back(end > Limit() ? Limit() : end);
  return Status::OK();
}

Status StateReader::ExitChunk() {
  if (limits_.empty()) {
    Fail("ExitChunk with no open chunk");
    return status_;
  }
  pos_ = limits_.back();  // skip unread remainder (forward compatibility)
  limits_.pop_back();
  return status_;
}

bool StateReader::CheckCount(uint64_t count, uint64_t min_bytes_each) {
  if (!status_.ok()) return false;
  uint64_t left = Limit() - pos_;
  if (min_bytes_each == 0) min_bytes_each = 1;
  if (count > left / min_bytes_each) {
    Fail("implausible element count " + std::to_string(count) + " with " +
         std::to_string(left) + " bytes left");
    return false;
  }
  return true;
}

}  // namespace lego::persist
