#ifndef SBF_UTIL_BITS_H_
#define SBF_UTIL_BITS_H_

#include <bit>
#include <cstdint>

namespace sbf {

// Number of bits needed to store `v` in plain binary; BitWidth(0) == 1 so
// that every counter occupies at least one bit (the paper stores counter
// C_i in ceil(log C_i) bits and represents zero/one counters in one bit).
inline uint32_t BitWidth(uint64_t v) {
  return static_cast<uint32_t>(std::bit_width(v | 1));  // branch-free
}

// ceil(log2(v)) for v >= 1; CeilLog2(1) == 0.
inline uint32_t CeilLog2(uint64_t v) {
  if (v <= 1) return 0;
  return static_cast<uint32_t>(std::bit_width(v - 1));
}

// floor(log2(v)) for v >= 1.
inline uint32_t FloorLog2(uint64_t v) {
  return static_cast<uint32_t>(std::bit_width(v)) - 1;
}

// Low `n` bits set; n may be 0..64.
inline uint64_t LowMask(uint32_t n) {
  return n >= 64 ? ~0ull : ((1ull << n) - 1);
}

// The low `n` bits of `v` in reverse order (bit j moves to bit n-1-j);
// n may be 0..63 and `v` must have no bits at or above n. The Elias codes
// store binary parts MSB first in an LSB-first stream, so they write and
// read them reversed.
constexpr uint64_t ReverseLowBits(uint64_t v, uint32_t n) {
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((v & 0x0F0F0F0F0F0F0F0Full) << 4);
  // Two shifts so n = 0 needs no shift by 64.
  return (__builtin_bswap64(v) >> 1) >> (63 - n);
}

// Ceiling division for unsigned operands.
inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace sbf

#endif  // SBF_UTIL_BITS_H_
