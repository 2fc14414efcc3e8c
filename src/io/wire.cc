#include "io/wire.h"

#include <array>

#include "util/fault_injection.h"

namespace sbf {
namespace wire {
namespace {

// Slicing-by-8 CRC32C over the reflected Castagnoli polynomial: table k
// maps a byte to its CRC contribution followed by k zero bytes, so one
// step folds eight input bytes with eight lookups. The value matches
// hardware crc32c.
constexpr auto kCrc32cTables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  constexpr uint32_t kPoly = 0x82F63B78u;  // reflected 0x1EDC6F41
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}();

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t size) {
  const auto& t = kCrc32cTables;
  uint32_t crc = ~0u;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<uint64_t>(data[b]) << (8 * b);
    }
    word ^= crc;
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  }
  return ~crc;
}

uint64_t Reader::ReadVarint() {
  uint64_t value = 0;
  for (uint32_t shift = 0; shift < 64; shift += 7) {
    if (!Need(1, "varint")) return 0;
    const uint8_t byte = *p_++;
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only contribute the final value bit.
      if (shift == 63 && byte > 1) {
        Fail("varint overflows 64 bits");
        return 0;
      }
      return value;
    }
  }
  Fail("varint longer than 10 bytes");
  return 0;
}

std::vector<uint8_t> SealFrame(uint32_t magic, uint32_t version,
                               Writer&& payload) {
  std::vector<uint8_t> frame = std::move(payload.buf_);
  const uint64_t size = frame.size() - kFrameHeaderSize;
  const uint32_t crc = Crc32c(frame.data() + kFrameHeaderSize, size);
  uint8_t* header = frame.data();
  const auto put = [&header](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      *header++ = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put(magic, 4);
  put(version, 4);
  put(size, 8);
  put(crc, 4);
  // Fault-injection site (no-op in production builds): models a torn or
  // corrupted write as the serialized frame leaves the library. OpenFrame's
  // size/CRC validation must reject every mutation with a clean Status.
  fault::MutateSealedFrame(&frame);
  return frame;
}

StatusOr<FrameInfo> ProbeFrame(ByteSpan bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::DataLoss("frame truncated (shorter than a header)");
  }
  Reader header(bytes.data(), kFrameHeaderSize);
  FrameInfo info;
  info.magic = header.ReadU32();
  info.version = header.ReadU32();
  info.payload_size = header.ReadU64();
  info.crc32c = header.ReadU32();
  if (info.payload_size != bytes.size() - kFrameHeaderSize) {
    return Status::DataLoss("frame payload size mismatch");
  }
  const uint32_t actual =
      Crc32c(bytes.data() + kFrameHeaderSize, bytes.size() - kFrameHeaderSize);
  if (actual != info.crc32c) {
    return Status::DataLoss("frame payload checksum mismatch");
  }
  return info;
}

StatusOr<Reader> OpenFrame(ByteSpan bytes, uint32_t magic,
                           uint32_t max_version, const char* what) {
  const std::string name(what);
  if (bytes.size() < kFrameHeaderSize) {
    return Status::DataLoss(name + " frame truncated");
  }
  Reader header(bytes.data(), kFrameHeaderSize);
  const uint32_t actual_magic = header.ReadU32();
  const uint32_t version = header.ReadU32();
  const uint64_t payload_size = header.ReadU64();
  const uint32_t crc = header.ReadU32();
  if (actual_magic != magic) {
    return Status::DataLoss("bad " + name + " frame magic");
  }
  if (version < 1 || version > max_version) {
    return Status::DataLoss("unsupported " + name + " wire version " +
                            std::to_string(version));
  }
  if (payload_size != bytes.size() - kFrameHeaderSize) {
    return Status::DataLoss(name + " frame payload size mismatch");
  }
  const uint8_t* payload = bytes.data() + kFrameHeaderSize;
  if (Crc32c(payload, static_cast<size_t>(payload_size)) != crc) {
    return Status::DataLoss(name + " frame payload checksum mismatch");
  }
  return Reader(payload, static_cast<size_t>(payload_size));
}

uint32_t PeekMagic(ByteSpan bytes) {
  if (bytes.size() < kFrameHeaderSize) return 0;
  return Reader(bytes.data(), 4).ReadU32();
}

}  // namespace wire
}  // namespace sbf
