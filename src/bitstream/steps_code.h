#ifndef SBF_BITSTREAM_STEPS_CODE_H_
#define SBF_BITSTREAM_STEPS_CODE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/elias.h"
#include "util/bits.h"

namespace sbf {

// The paper's "steps" method (Section 4.5): a Huffman-like prefix code that
// spends very few bits on the small counters that dominate real data sets,
// escaping to an Elias code for large values.
//
// A configuration is a list of step widths [w_1, ..., w_s]. The codeword
// for value v >= 0 is built step by step: at step j a continuation bit 0
// means "v lies in this step" and is followed by w_j payload bits encoding
// v - base_j, where base_j is the total capacity of earlier steps and step
// j holds 2^{w_j} values. A continuation bit 1 advances to the next step;
// after the last step, the Elias delta code of (v - base_end + 1) follows.
//
// The paper's example "0 -> '0', 1 -> '10', else '11' + Elias" is the
// configuration {0, 0}. The Figure 10 configurations "1,2" and "2,3" are
// {1, 2} and {2, 3}. A configuration has at most kMaxDeltaPrefixBits (16)
// steps, the bound the 'SBss' frame reader also enforces.
class StepsCode {
 public:
  explicit StepsCode(std::vector<uint32_t> step_widths);

  const std::vector<uint32_t>& step_widths() const { return step_widths_; }

  // Appends the codeword for `value` (any value >= 0).
  inline void Encode(uint64_t value, BitWriter* writer) const;

  // Decodes one codeword at the reader's position.
  inline uint64_t Decode(BitReader* reader) const;

  // Codeword length in bits without encoding.
  uint32_t Length(uint64_t value) const;

 private:
  std::vector<uint32_t> step_widths_;
  std::vector<uint64_t> bases_;  // bases_[j] = first value of step j
  uint64_t escape_base_;         // first value encoded via Elias escape
};

// A codeword is j continuation 1s and a 0, then step j's payload LSB
// first (or, past the last step, the Elias escape): one WriteBits when it
// fits in 64 bits, else two.
inline void StepsCode::Encode(uint64_t value, BitWriter* writer) const {
  for (uint32_t j = 0; j < step_widths_.size(); ++j) {
    const uint32_t width = step_widths_[j];
    if (value < bases_[j] + (1ull << width)) {
      const uint64_t payload = value - bases_[j];
      if (j + 1 + width <= 64) {
        writer->WriteBits(LowMask(j) | payload << (j + 1), j + 1 + width);
      } else {
        writer->WriteBits(LowMask(j), j + 1);
        writer->WriteBits(payload, width);
      }
      return;
    }
  }
  const auto steps = static_cast<uint32_t>(step_widths_.size());
  EliasDeltaEncodeAfter(LowMask(steps), steps, value - escape_base_ + 1,
                        writer);
}

// Peeks 64 bits: the step is their trailing-ones count.
inline uint64_t StepsCode::Decode(BitReader* reader) const {
  const uint64_t peek = reader->Peek64();
  const auto steps = static_cast<uint32_t>(step_widths_.size());
  const auto j = static_cast<uint32_t>(std::countr_one(peek));
  if (j >= steps) {
    reader->Skip(steps);
    return escape_base_ + EliasDeltaDecode(reader) - 1;
  }
  const uint32_t width = step_widths_[j];
  uint64_t payload;
  if (j + 1 + width <= 64) {
    payload = (peek >> (j + 1)) & LowMask(width);
    reader->Skip(j + 1 + width);
  } else {
    reader->Skip(j + 1);
    payload = reader->Peek64() & LowMask(width);
    reader->Skip(width);
  }
  return bases_[j] + payload;
}

}  // namespace sbf

#endif  // SBF_BITSTREAM_STEPS_CODE_H_
