#ifndef SBF_BITSTREAM_BIT_WRITER_H_
#define SBF_BITSTREAM_BIT_WRITER_H_

#include <cstdint>

#include "bitstream/bit_vector.h"

namespace sbf {

// Cursor that writes a BitVector, used to build encoded streams (Elias /
// steps coded counter groups). The word under the cursor lives in a 64-bit
// accumulator: a write merges into the register and stores the whole word,
// so consecutive writes never wait on reloading the word the last one
// stored. Every write lands in the vector at once, and bits outside the
// written range keep their values. Grows the vector on demand; nothing
// else may modify the vector while the writer is in use.
class BitWriter {
 public:
  explicit BitWriter(BitVector* out) : BitWriter(out, out->size_bits()) {}

  // Positioned writer: starts writing (overwriting) at `pos`. Used to
  // re-encode a counter group in place inside its slack-padded region.
  BitWriter(BitVector* out, size_t pos)
      : out_(out), pos_(pos), acc_(WordAt(pos >> 6)) {
    SBF_DCHECK(pos <= out->size_bits());
  }

  size_t position() const { return pos_; }

  // Appends the low `width` bits of `value` (width 0..64), LSB first in
  // the stream.
  void WriteBits(uint64_t value, uint32_t width) {
    if (width == 0) return;
    EnsureRoom(width);
    const uint64_t mask = LowMask(width);
    value &= mask;
    // Locals, not members, across the stores: a word store may alias them.
    const size_t pos = pos_;
    const uint32_t offset = pos & 63;
    uint64_t* word = out_->mutable_words() + (pos >> 6);
    uint64_t acc = (acc_ & ~(mask << offset)) | (value << offset);
    word[0] = acc;
    if (offset + width >= 64) {
      // The cursor left the word: continue in the next one, whose bits
      // past the spill keep their values.
      acc = WordAt((pos >> 6) + 1);
      const uint32_t spill = offset + width - 64;
      if (spill > 0) {
        acc = (acc & ~LowMask(spill)) | (value >> (64 - offset));
        word[1] = acc;
      }
    }
    pos_ = pos + width;
    acc_ = acc;
  }

  // Appends `count` zero bits. Writes them explicitly so positioned
  // (overwriting) writers stay correct.
  void WriteZeros(uint32_t count) {
    while (count > 0) {
      const uint32_t chunk = count > 64 ? 64 : count;
      WriteBits(0, chunk);
      count -= chunk;
    }
  }

  // Truncates the vector to exactly the written length.
  void Finish() { out_->Resize(pos_); }

 private:
  void EnsureRoom(uint32_t bits) {
    if (pos_ + bits > out_->size_bits()) {
      out_->Resize(((pos_ + bits) * 2) + 64);
    }
  }
  // Word w of the vector, or zero past its storage (growth zero-fills).
  uint64_t WordAt(size_t w) const {
    return w < out_->size_words() ? out_->words()[w] : 0;
  }

  BitVector* out_;
  size_t pos_;
  uint64_t acc_;  // word pos_ / 64 as the vector holds it
};

// Sequential reading cursor over a BitVector.
class BitReader {
 public:
  explicit BitReader(const BitVector* in, size_t pos = 0)
      : in_(in), pos_(pos) {}

  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ >= in_->size_bits(); }

  uint64_t ReadBits(uint32_t width) {
    const uint64_t v = in_->GetBits(pos_, width);
    pos_ += width;
    return v;
  }

  // The 64 bits at the cursor, LSB first, without advancing. Bits past the
  // vector's last storage word read as zero: a peek near the end of a
  // vector without guard words never touches memory past it.
  [[nodiscard]] uint64_t Peek64() const {
    const size_t word = pos_ >> 6;
    const uint32_t offset = pos_ & 63;
    const size_t words = in_->size_words();
    if (word >= words) return 0;
    uint64_t v = in_->words()[word] >> offset;
    if (offset != 0 && word + 1 < words) {
      v |= in_->words()[word + 1] << (64 - offset);
    }
    return v;
  }

  void Skip(uint32_t bits) { pos_ += bits; }

 private:
  const BitVector* in_;
  size_t pos_;
};

}  // namespace sbf

#endif  // SBF_BITSTREAM_BIT_WRITER_H_
