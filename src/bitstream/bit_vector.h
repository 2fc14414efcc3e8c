#ifndef SBF_BITSTREAM_BIT_VECTOR_H_
#define SBF_BITSTREAM_BIT_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/aligned_alloc.h"
#include "util/bits.h"
#include "util/check.h"

namespace sbf {

// Growable bit array with arbitrary-width bit-field access. This is the
// base storage for every compact structure in the library: the SBF counter
// arrays, the string-array index offset vectors, and the encoded streams.
//
// Bit order is LSB-first: logical bit i lives in word i/64 at bit i%64, and
// a field read with GetBits(pos, w) has logical bit `pos` as its least
// significant bit. All positions are in bits.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t num_bits) { Resize(num_bits); }

  [[nodiscard]] size_t size_bits() const noexcept { return num_bits_; }
  [[nodiscard]] size_t size_words() const noexcept { return words_.size(); }
  // Total allocated storage in bits (whole words).
  [[nodiscard]] size_t capacity_bits() const noexcept {
    return words_.size() * 64;
  }

  // Grows or shrinks to `num_bits`; new bits are zero.
  void Resize(size_t num_bits);
  // Sets every bit to zero without changing the size.
  void Clear();

  [[nodiscard]] bool GetBit(size_t pos) const noexcept {
    SBF_DCHECK(pos < num_bits_);
    return (words_[pos >> 6] >> (pos & 63)) & 1ull;
  }

  void SetBit(size_t pos, bool value) noexcept {
    SBF_DCHECK(pos < num_bits_);
    const uint64_t mask = 1ull << (pos & 63);
    if (value) {
      words_[pos >> 6] |= mask;
    } else {
      words_[pos >> 6] &= ~mask;
    }
  }

  // Reads a `width`-bit field starting at `pos` (width 0..64). Inline: this
  // is the innermost probe of every counter backing, and the batched filter
  // kernels rely on it folding into their (devirtualized) loops.
  [[nodiscard]] uint64_t GetBits(size_t pos, uint32_t width) const noexcept {
    SBF_DCHECK(width <= 64);
    if (width == 0) return 0;
    SBF_DCHECK(pos + width <= num_bits_);
    const size_t word = pos >> 6;
    const uint32_t offset = pos & 63;
    uint64_t value = words_[word] >> offset;
    if (offset + width > 64) {
      value |= words_[word + 1] << (64 - offset);
    }
    return value & LowMask(width);
  }

  // Writes the low `width` bits of `value` at `pos` (width 0..64). Bits of
  // `value` above `width` must be zero.
  void SetBits(size_t pos, uint32_t width, uint64_t value) noexcept {
    SBF_DCHECK(width <= 64);
    if (width == 0) return;
    SBF_DCHECK(pos + width <= num_bits_);
    SBF_DCHECK((value & ~LowMask(width)) == 0);
    const size_t word = pos >> 6;
    const uint32_t offset = pos & 63;
    const uint64_t mask = LowMask(width);
    words_[word] = (words_[word] & ~(mask << offset)) | (value << offset);
    if (offset + width > 64) {
      const uint32_t spill = offset + width - 64;
      const uint64_t hi_mask = LowMask(spill);
      words_[word + 1] =
          (words_[word + 1] & ~hi_mask) | (value >> (64 - offset));
    }
  }

  // Moves the bit range [begin, end) to [begin+shift, end+shift); the
  // vacated bits keep their previous values (callers overwrite them).
  // Ranges may overlap. Used when a widening counter pushes its neighbors
  // toward a slack region (paper Section 4.4).
  void ShiftRangeRight(size_t begin, size_t end, size_t shift);

  // Moves the bit range [begin, end) to [begin-shift, end-shift).
  void ShiftRangeLeft(size_t begin, size_t end, size_t shift);

  // Copies `len` bits from `src` starting at `src_pos` into this vector at
  // `dst_pos`. The vectors must be distinct objects.
  void CopyFrom(const BitVector& src, size_t src_pos, size_t dst_pos,
                size_t len);

  // Number of set bits in the whole vector.
  [[nodiscard]] size_t PopCount() const noexcept;

  [[nodiscard]] const uint64_t* words() const noexcept {
    return words_.data();
  }
  [[nodiscard]] uint64_t* mutable_words() noexcept { return words_.data(); }

  bool operator==(const BitVector& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  size_t num_bits_ = 0;
  // Cache-line aligned: bit 0 of word 0 starts a 64-byte line, so any
  // 512-bit block at a 512-bit-aligned bit offset occupies exactly one
  // line (the blocked SBF layout and its SIMD kernels depend on this).
  // Storage of kHugePageMinBytes (8 MiB) or more is 2 MiB aligned and
  // advised MADV_HUGEPAGE (util/aligned_alloc.h): the DRAM-sized counter
  // arrays whose random probes would otherwise each pay a page walk.
  std::vector<uint64_t, AlignedAllocator<uint64_t, kCacheLineBytes>> words_;
};

}  // namespace sbf

#endif  // SBF_BITSTREAM_BIT_VECTOR_H_
