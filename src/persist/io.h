#ifndef LEGO_PERSIST_IO_H_
#define LEGO_PERSIST_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lego::persist {

/// On-disk format version. Bumped whenever the envelope or any chunk layout
/// changes incompatibly; readers reject files from other versions with a
/// clean Status instead of misparsing them.
inline constexpr uint32_t kFormatVersion = 2;

/// Four-character chunk tag packed little-endian, e.g. ChunkTag("CORP").
constexpr uint32_t ChunkTag(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<uint8_t>(s[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[3])) << 24;
}

/// Renders a tag back to "ABCD" for error messages.
std::string TagName(uint32_t tag);

/// The little-endian scalar codec under every persist format: state files,
/// pipe frames and the fleet's fixed-layout payloads.
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
uint32_t LoadU32(const char* p);
uint64_t LoadU64(const char* p);

/// Serializer for campaign state: an append-only little-endian byte buffer
/// organized into tagged, length-prefixed chunks (nestable). The buffer is
/// deterministic — identical logical state always yields identical bytes,
/// which is what lets tests assert save→load→save byte-identity.
class StateWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v);
  /// Length-prefixed byte string.
  void WriteString(std::string_view s);

  /// Opens a chunk: writes the tag and a length placeholder patched by
  /// EndChunk(). Chunks nest; End matches the innermost Begin.
  void BeginChunk(uint32_t tag);
  void EndChunk();

  /// The raw payload serialized so far (no file envelope).
  const std::string& buffer() const { return buf_; }

  /// Wraps the payload in the file envelope (magic, version, size,
  /// checksum) and writes it to `path` via write-temp-then-rename, so a
  /// crash mid-write can never leave a half-written state file behind.
  Status WriteFileAtomic(const std::string& path) const;

  /// The enveloped bytes WriteFileAtomic would write (tests / in-memory).
  std::string EnvelopedBytes() const;

 private:
  std::string buf_;
  std::vector<size_t> open_chunks_;  // offsets of length placeholders
};

/// Writes plain text (no envelope) with the same write-temp-then-rename
/// protocol as StateWriter::WriteFileAtomic, so human-readable artifacts
/// (triage manifests, .sql reproducers) are also never left half-written
/// by a crash. Shares the persist.* failpoints with state writes.
Status WriteTextFileAtomic(const std::string& path, std::string_view content);

/// Cheap envelope validation without constructing a reader: checks magic,
/// format version, declared payload size (truncation), and checksum over
/// in-memory enveloped bytes. On success *version (if non-null) receives
/// the format version. The fleet coordinator probes worker result frames
/// this way, so a torn or poisoned envelope is rejected — with a precise
/// reason — before any payload byte is parsed.
Status ProbeEnvelope(std::string_view bytes, uint32_t* version = nullptr);

/// Deserializer over a validated payload. All reads are bounds-checked
/// against the innermost open chunk; any overrun, tag mismatch, or envelope
/// corruption surfaces as a non-OK status() rather than UB. After a failed
/// read the reader stays failed — callers may finish a Load routine and
/// check status() once at the end.
class StateReader {
 public:
  /// Opens an enveloped state file: validates magic, version, declared
  /// payload size (truncation), and checksum before any chunk is touched.
  static StatusOr<StateReader> FromFile(const std::string& path);
  /// Same validation over in-memory enveloped bytes.
  static StatusOr<StateReader> FromEnvelope(std::string bytes);
  /// Salvage-mode open: accepts a file whose envelope fails the truncation
  /// or checksum checks and exposes whatever payload prefix is present,
  /// setting *degraded (callers then read entry-by-entry and keep what
  /// decodes — see LoadCorpusFileTolerant). Bad magic and unknown versions
  /// still fail: those are not damage, they are the wrong file.
  static StatusOr<StateReader> FromFileLenient(const std::string& path,
                                               bool* degraded);
  /// Wraps a raw payload with no envelope (round-trip tests).
  static StateReader FromPayload(std::string payload);

  uint8_t ReadU8();
  bool ReadBool() { return ReadU8() != 0; }
  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  double ReadDouble();
  std::string ReadString();

  /// Enters the next chunk, which must carry `expected_tag`; subsequent
  /// reads are bounded by the chunk. Returns the tag/bounds error if any.
  Status EnterChunk(uint32_t expected_tag);
  /// Like EnterChunk, but a chunk whose declared length overruns the
  /// available bytes is clamped to what is present instead of failing —
  /// the entry point for salvaging a truncated payload.
  Status EnterChunkTruncated(uint32_t expected_tag);
  /// Leaves the innermost chunk, skipping any unread remainder (so a newer
  /// writer may append fields to a chunk without breaking old readers).
  Status ExitChunk();

  /// Guards container prefaces: fails unless `count` elements of at least
  /// `min_bytes_each` bytes could still fit in the current chunk — a cheap
  /// defense against allocating from a corrupt length field.
  bool CheckCount(uint64_t count, uint64_t min_bytes_each);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// True when the current chunk (or whole payload) is fully consumed.
  bool AtEnd() const { return pos_ >= Limit(); }

 private:
  explicit StateReader(std::string payload) : payload_(std::move(payload)) {}

  size_t Limit() const {
    return limits_.empty() ? payload_.size() : limits_.back();
  }
  bool Require(size_t n);
  void Fail(std::string msg);

  std::string payload_;
  size_t pos_ = 0;
  std::vector<size_t> limits_;
  Status status_;
};

}  // namespace lego::persist

#endif  // LEGO_PERSIST_IO_H_
