#ifndef SBF_IO_WIRE_H_
#define SBF_IO_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace sbf {
namespace wire {

// The library's single serialization substrate. Every persistent or
// shippable object — filters, counter backings, Bloomjoin partitions —
// encodes into one self-describing *frame*:
//
//   [u32 magic][u32 version][u64 payload_size][u32 crc32c] [payload ...]
//
// All integers are little-endian on the wire regardless of host byte
// order. `magic` identifies the frame type (one constant per structure,
// below), `version` is the format version the frame was written at,
// `payload_size` is the byte length of the payload that follows, and
// `crc32c` is the Castagnoli CRC of the payload — so truncation, length
// tampering and bit flips are all detected before any payload field is
// trusted. Frames nest: a filter frame embeds its counter backing's frame
// as a varint-length-prefixed byte string inside its own payload (the
// outer CRC then also covers the inner frame).
//
// Versioning policy: readers accept any version in [1, current] for the
// frame's type and reject newer ones with a clean DataLoss status; writers
// always emit kFormatVersion. Bumping kFormatVersion without regenerating
// tests/golden/ fails CI by design.

// A read-only byte view. std::vector<uint8_t> converts implicitly.
using ByteSpan = std::span<const uint8_t>;

// Current wire format version, written into every frame header.
inline constexpr uint32_t kFormatVersion = 1;

// Frame header: magic + version + payload size + payload CRC32C.
inline constexpr size_t kFrameHeaderSize = 4 + 4 + 8 + 4;

constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

// Frame type magics: "SB" + a two-character type tag.
inline constexpr uint32_t kMagicBloomFilter = FourCc('S', 'B', 'b', 'f');
inline constexpr uint32_t kMagicSbf = FourCc('S', 'B', 's', 'f');
inline constexpr uint32_t kMagicShardedSbf = FourCc('S', 'B', 'c', 's');
inline constexpr uint32_t kMagicCountingBloom = FourCc('S', 'B', 'c', 'b');
inline constexpr uint32_t kMagicSbfBlocked = FourCc('S', 'B', 'b', 'k');
inline constexpr uint32_t kMagicSbfBlockedMi = FourCc('S', 'B', 'b', '2');
inline constexpr uint32_t kMagicRecurringMinimum = FourCc('S', 'B', 'r', 'm');
inline constexpr uint32_t kMagicTrappingRm = FourCc('S', 'B', 't', 'm');
inline constexpr uint32_t kMagicSlidingWindow = FourCc('S', 'B', 's', 'w');
inline constexpr uint32_t kMagicFixedCounters = FourCc('S', 'B', 'f', 'x');
inline constexpr uint32_t kMagicCompactCounters = FourCc('S', 'B', 'c', 'c');
inline constexpr uint32_t kMagicSerialScanCounters = FourCc('S', 'B', 's', 's');
inline constexpr uint32_t kMagicJoinPartition = FourCc('S', 'B', 'j', 'p');
inline constexpr uint32_t kMagicWalHeader = FourCc('S', 'B', 'w', 'h');
inline constexpr uint32_t kMagicWalRecord = FourCc('S', 'B', 'w', 'r');

// CRC32C (Castagnoli, the polynomial hardware CRC instructions implement).
uint32_t Crc32c(const uint8_t* data, size_t size);
inline uint32_t Crc32c(ByteSpan bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

// --- Writer ----------------------------------------------------------------

// Append-only little-endian payload builder. Build the payload with the
// Put* primitives, then wrap it into a checksummed frame with SealFrame.
// The buffer starts with kFrameHeaderSize reserved bytes, where SealFrame
// writes the header, so sealing never copies the payload.
class Writer {
 public:
  Writer() : buf_(kFrameHeaderSize, 0) {}

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  // LEB128: 7 value bits per byte, high bit = continuation.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void PutBytes(const uint8_t* data, size_t size) {
    if (size == 0) return;
    const size_t at = buf_.size();
    buf_.resize(at + size);
    std::memcpy(buf_.data() + at, data, size);
  }
  void PutBytes(ByteSpan bytes) { PutBytes(bytes.data(), bytes.size()); }
  // `n` 64-bit words, each little-endian.
  void PutWords(const uint64_t* words, size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n * 8);
    uint8_t* p = buf_.data() + at;
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(p, words, n * 8);
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      for (int b = 0; b < 8; ++b) {
        *p++ = static_cast<uint8_t>(words[i] >> (8 * b));
      }
    }
  }
  // Embeds a complete child frame as a varint-length-prefixed byte string.
  void PutFrame(ByteSpan frame) {
    PutVarint(frame.size());
    PutBytes(frame);
  }

  // The payload written so far (without the reserved header bytes).
  size_t size() const { return buf_.size() - kFrameHeaderSize; }
  std::vector<uint8_t> bytes() const {
    return {buf_.begin() + kFrameHeaderSize, buf_.end()};
  }
  std::vector<uint8_t> Take() {
    buf_.erase(buf_.begin(), buf_.begin() + kFrameHeaderSize);
    return std::move(buf_);
  }

 private:
  friend std::vector<uint8_t> SealFrame(uint32_t magic, uint32_t version,
                                        Writer&& payload);

  std::vector<uint8_t> buf_;
};

// Wraps `payload` into a complete frame: header + payload, CRC computed
// over the payload bytes. The header fills the payload writer's reserved
// front bytes.
std::vector<uint8_t> SealFrame(uint32_t magic, uint32_t version,
                               Writer&& payload);

// --- Reader ----------------------------------------------------------------

// Bounds-checked little-endian payload reader. Reads past the end never
// touch out-of-bounds memory: the reader latches a failure status, returns
// zero values from then on, and callers check ok()/status() at their
// validation points. Sizes read from the payload must still be sanity-
// checked against remaining() before they drive an allocation.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit Reader(ByteSpan bytes) : Reader(bytes.data(), bytes.size()) {}

  bool ok() const { return !failed_; }
  Status status() const {
    return failed_ ? Status::DataLoss(error_) : Status::Ok();
  }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t ReadU8() {
    if (!Need(1, "u8")) return 0;
    return *p_++;
  }
  uint32_t ReadU32() {
    if (!Need(4, "u32")) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(*p_++) << (8 * i);
    return v;
  }
  uint64_t ReadU64() {
    if (!Need(8, "u64")) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(*p_++) << (8 * i);
    return v;
  }
  uint64_t ReadVarint();
  // Fills `out` with n little-endian words; false (and failure) on overrun.
  bool ReadWords(uint64_t* out, size_t n) {
    if (!Need(n * 8, "word block")) return false;
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(*p_++) << (8 * b);
      out[i] = v;
    }
    return true;
  }
  // Zero-copy view of the next n bytes (empty + failure on overrun).
  ByteSpan ReadSpan(size_t n) {
    if (!Need(n, "byte block")) return {};
    ByteSpan view(p_, n);
    p_ += n;
    return view;
  }
  // Reads a varint-length-prefixed embedded frame written by PutFrame.
  ByteSpan ReadFrameSpan() {
    const uint64_t len = ReadVarint();
    if (failed_) return {};
    if (len > remaining()) {
      Fail("embedded frame length out of bounds");
      return {};
    }
    return ReadSpan(static_cast<size_t>(len));
  }

  // Marks the reader failed with a custom message (first failure wins).
  void Fail(std::string message) {
    if (!failed_) {
      failed_ = true;
      error_ = std::move(message);
    }
  }

  // OK iff the payload was consumed exactly; trailing bytes are an error.
  Status ExpectEnd(const char* what) const {
    if (failed_) return status();
    if (p_ != end_) {
      return Status::DataLoss(std::string(what) + " payload has trailing garbage");
    }
    return Status::Ok();
  }

 private:
  bool Need(size_t n, const char* what) {
    if (failed_) return false;
    if (remaining() < n) {
      Fail(std::string("payload truncated reading ") + what);
      return false;
    }
    return true;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool failed_ = false;
  std::string error_;
};

// Parsed frame header, as reported by ProbeFrame (diagnostics / tooling).
struct FrameInfo {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint32_t crc32c = 0;
};

// Validates a frame's envelope (size, declared payload length, CRC) without
// requiring a particular magic. Tooling uses this to describe unknown files.
StatusOr<FrameInfo> ProbeFrame(ByteSpan bytes);

// Validates the complete envelope of a `magic` frame — size, magic,
// version in [1, max_version], payload length, CRC — and returns a Reader
// positioned over the payload. `bytes` must outlive the Reader. `what`
// names the structure in error messages ("SBF", "Bloom filter", ...).
StatusOr<Reader> OpenFrame(ByteSpan bytes, uint32_t magic,
                           uint32_t max_version, const char* what);

// The magic of a frame (0 if `bytes` is too short to hold a header).
uint32_t PeekMagic(ByteSpan bytes);

}  // namespace wire
}  // namespace sbf

#endif  // SBF_IO_WIRE_H_
