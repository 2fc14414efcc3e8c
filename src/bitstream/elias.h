#ifndef SBF_BITSTREAM_ELIAS_H_
#define SBF_BITSTREAM_ELIAS_H_

#include <array>
#include <bit>
#include <cstdint>

#include "bitstream/bit_writer.h"
#include "util/bits.h"
#include "util/check.h"

namespace sbf {

// Elias universal codes [Eli75], the prefix-free integer codes the paper
// uses for compact serial counter storage (Section 4.5).
//
// Gamma code of n >= 1: (L-1) zero bits, then the L-bit binary
// representation of n MSB-first, where L = floor(log2 n) + 1.
// Length: 2*floor(log2 n) + 1 bits.
//
// Delta code of n >= 1: gamma code of L, then the low L-1 bits of n
// (the leading 1 is implied). Length: floor(log2 n) +
// 2*floor(log2(floor(log2 n)+1)) + 1 bits — the paper's L2(n).
//
// Neither code represents 0; the counter layers encode c as code(c+1), as
// the paper prescribes ("when encoding n, we actually encode n+1").
//
// Codewords move a word at a time. Encoding writes at most two WriteBits
// per codeword: the unary run with its terminating 1 (the value's leading
// bit), then the binary part reversed so that it lands MSB first; a
// codeword that fits in 64 bits is one write, and the small values that
// dominate a filter come whole from a table. Decoding peeks 64 bits and
// counts trailing zeros for the unary run. The codecs are inline: the
// counter streams call them once per counter.

// Appends the gamma code of n (n >= 1).
inline void EliasGammaEncode(uint64_t n, BitWriter* writer);
// Decodes one gamma codeword at the reader's position.
inline uint64_t EliasGammaDecode(BitReader* reader);
// Code length in bits without encoding.
uint32_t EliasGammaLength(uint64_t n);

// Appends the low `prefix_bits` bits of `prefix` (at most
// kMaxDeltaPrefixBits), then the delta code of n — the steps code's escape,
// still written in at most two WriteBits.
inline constexpr uint32_t kMaxDeltaPrefixBits = 16;
inline void EliasDeltaEncodeAfter(uint64_t prefix, uint32_t prefix_bits,
                                  uint64_t n, BitWriter* writer);
// Appends the delta code of n (n >= 1).
inline void EliasDeltaEncode(uint64_t n, BitWriter* writer) {
  EliasDeltaEncodeAfter(0, 0, n, writer);
}
// The one delta decoder, bounded for untrusted streams: decodes a codeword
// whose length field L (the bit count of n) is at most `max_length`
// (1..65) and stores n - 1, so that L = 65 — gamma(65) then 64 zero bits,
// the code of 2^64 — reads as 2^64 - 1. Returns false, having advanced an
// unspecified distance, on a gamma prefix of more than 6 zeros, L above
// `max_length`, or a nonzero tail after L = 65. Reads only through
// BitReader::Peek64, so it never touches storage past the vector.
inline bool EliasDeltaDecodeBounded(BitReader* reader, uint32_t max_length,
                                    uint64_t* n_minus_1);
// Decodes one delta codeword at the reader's position.
inline uint64_t EliasDeltaDecode(BitReader* reader) {
  uint64_t n_minus_1 = 0;
  const bool ok = EliasDeltaDecodeBounded(reader, 64, &n_minus_1);
  SBF_DCHECK(ok);
  (void)ok;
  return n_minus_1 + 1;
}
// Code length in bits without encoding; this is the paper's
// L2(n) = floor(log2 n) + 2*floor(log2(floor(log2 n)+1)) + 1.
uint32_t EliasDeltaLength(uint64_t n);

// --- implementation --------------------------------------------------------

namespace elias_internal {

// A codeword as stream bits (LSB first) and its length.
struct Code {
  uint64_t bits;
  uint32_t length;
};

// Gamma codes of 1..65: the length fields of every delta code (65 is the
// counter stream's code of 2^64).
inline constexpr std::array<Code, 66> kLengthFields = [] {
  std::array<Code, 66> codes{};
  for (uint32_t n = 1; n < codes.size(); ++n) {
    const uint32_t rest = static_cast<uint32_t>(std::bit_width(n)) - 1;
    const uint64_t head = uint64_t{1} << rest;
    codes[n] = {head | ReverseLowBits(n ^ head, rest) << (rest + 1),
                2 * rest + 1};
  }
  return codes;
}();

// Whole delta codes of the values below kSmallDelta (at most 14 bits).
inline constexpr uint32_t kSmallDelta = 256;
inline constexpr std::array<Code, kSmallDelta> kSmallDeltaCodes = [] {
  std::array<Code, kSmallDelta> codes{};
  for (uint32_t n = 1; n < kSmallDelta; ++n) {
    const uint32_t rest = static_cast<uint32_t>(std::bit_width(n)) - 1;
    const Code& field = kLengthFields[rest + 1];
    codes[n] = {field.bits | ReverseLowBits(n ^ (1u << rest), rest)
                                 << field.length,
                field.length + rest};
  }
  return codes;
}();

// Decode table over the next 8 stream bits: the delta codes of 1..15 (at
// most 8 bits) resolve in one lookup, as {n - 1, length}; a zero length
// sends the codeword down the general path.
struct ShortCode {
  uint8_t n_minus_1;
  uint8_t length;
};
inline constexpr std::array<ShortCode, 256> kShortCodes = [] {
  std::array<ShortCode, 256> table{};
  for (uint32_t n = 1; n < 16; ++n) {
    const Code& code = kSmallDeltaCodes[n];
    for (uint32_t high = 0; high < (256u >> code.length); ++high) {
      table[code.bits | high << code.length] = {
          static_cast<uint8_t>(n - 1), static_cast<uint8_t>(code.length)};
    }
  }
  return table;
}();

// Emits the low `prefix_bits` bits of `prefix`, then the delta code of n,
// as put(bits, length) calls (length 1..64, no bits above it, stream
// order LSB first): one call when the whole fits in 64 bits, else two.
template <typename Put>
inline void EmitDelta(uint64_t prefix, uint32_t prefix_bits, uint64_t n,
                      Put&& put) {
  SBF_DCHECK(n >= 1);
  SBF_DCHECK(prefix_bits <= kMaxDeltaPrefixBits);
  if (n < kSmallDelta) {
    const Code& code = kSmallDeltaCodes[n];
    put(prefix | code.bits << prefix_bits, prefix_bits + code.length);
    return;
  }
  const uint32_t rest = FloorLog2(n);
  const Code& field = kLengthFields[rest + 1];
  const uint64_t head = prefix | field.bits << prefix_bits;
  const uint32_t head_bits = prefix_bits + field.length;
  const uint64_t tail = ReverseLowBits(n ^ (uint64_t{1} << rest), rest);
  if (head_bits + rest <= 64) {
    put(head | tail << head_bits, head_bits + rest);
    return;
  }
  put(head, head_bits);
  put(tail, rest);
}

}  // namespace elias_internal

inline void EliasGammaEncode(uint64_t n, BitWriter* writer) {
  SBF_DCHECK(n >= 1);
  const uint32_t rest = FloorLog2(n);
  const uint64_t head = uint64_t{1} << rest;
  const uint64_t tail = ReverseLowBits(n ^ head, rest);
  if (rest < 32) {
    writer->WriteBits(head | tail << (rest + 1), 2 * rest + 1);
    return;
  }
  writer->WriteBits(head, rest + 1);
  writer->WriteBits(tail, rest);
}

inline uint64_t EliasGammaDecode(BitReader* reader) {
  const uint64_t peek = reader->Peek64();
  SBF_DCHECK(peek != 0);
  const auto rest = static_cast<uint32_t>(std::countr_zero(peek));
  uint64_t tail;
  if (rest < 32) {
    tail = (peek >> (rest + 1)) & LowMask(rest);
    reader->Skip(2 * rest + 1);
  } else {  // the binary part comes from a second peek
    reader->Skip(rest + 1);
    tail = reader->Peek64() & LowMask(rest);
    reader->Skip(rest);
  }
  return (uint64_t{1} << rest) | ReverseLowBits(tail, rest);
}

inline void EliasDeltaEncodeAfter(uint64_t prefix, uint32_t prefix_bits,
                                  uint64_t n, BitWriter* writer) {
  elias_internal::EmitDelta(prefix, prefix_bits, n,
                            [writer](uint64_t bits, uint32_t length) {
                              writer->WriteBits(bits, length);
                            });
}

inline bool EliasDeltaDecodeBounded(BitReader* reader, uint32_t max_length,
                                    uint64_t* n_minus_1) {
  using namespace elias_internal;
  SBF_DCHECK(max_length >= 1 && max_length <= 65);
  const uint64_t peek = reader->Peek64();
  const ShortCode& hit = kShortCodes[peek & 0xFF];
  if (hit.length != 0) {
    reader->Skip(hit.length);
    *n_minus_1 = hit.n_minus_1;
    return true;
  }
  // gamma(L) for L <= 65 has at most 6 zeros; a peek of all zeros reads 64.
  const auto zeros = static_cast<uint32_t>(std::countr_zero(peek));
  if (zeros > 6) return false;
  const uint32_t field_bits = 2 * zeros + 1;
  const uint64_t length =
      (uint64_t{1} << zeros) |
      ReverseLowBits((peek >> (zeros + 1)) & LowMask(zeros), zeros);
  if (length > max_length) return false;
  const auto rest = static_cast<uint32_t>(length) - 1;
  uint64_t tail;
  if (field_bits + rest <= 64) {
    tail = (peek >> field_bits) & LowMask(rest);
    reader->Skip(field_bits + rest);
  } else {
    reader->Skip(field_bits);
    tail = reader->Peek64() & LowMask(rest);
    reader->Skip(rest);
  }
  if (rest == 64) {  // n = 2^64: only the all-zero tail is in range
    if (tail != 0) return false;
    *n_minus_1 = ~uint64_t{0};
    return true;
  }
  *n_minus_1 = ((uint64_t{1} << rest) | ReverseLowBits(tail, rest)) - 1;
  return true;
}

}  // namespace sbf

#endif  // SBF_BITSTREAM_ELIAS_H_
