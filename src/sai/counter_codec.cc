#include "sai/counter_codec.h"

#include <algorithm>
#include <string>
#include <vector>

#include "bitstream/bit_vector.h"
#include "bitstream/elias.h"
#include "util/bits.h"

namespace sbf {
namespace {

// Counter v travels as the Elias-delta code of v + 1. For v = 2^64 - 1
// that is the 65-bit code of 2^64: gamma(65), then 64 zero bits.
constexpr uint32_t kFullLength = 65;

// Packs codewords into a 64-bit accumulator and stores one word per 64
// stream bits. Words grow on demand from the m-bit floor (one bit per
// counter), never presized for the 77-bit worst case over the whole
// stream.
class StreamPacker {
 public:
  explicit StreamPacker(size_t m) : words_(m / 64 + 2) {}

  // Appends the codes of values[0..n).
  void PutCounters(const uint64_t* values, size_t n) {
    using namespace elias_internal;
    // Room for n worst-case codes first, so the stores need no bound
    // check; the state lives in locals, which no store through `out` can
    // alias.
    const size_t need = size_ + n * (kFullLength + 12) / 64 + 2;
    if (need > words_.size()) {
      words_.resize(std::max(need, words_.size() * 2));
    }
    uint64_t* out = words_.data() + size_;
    uint64_t acc = acc_;  // the next word's first `fill` bits
    uint32_t fill = fill_;
    // Appends the low `length` bits of `bits` (1..64; no bits above them).
    const auto put = [&](uint64_t bits, uint32_t length) {
      acc |= bits << fill;
      fill += length;
      if (fill >= 64) {
        fill -= 64;
        *out++ = acc;
        acc = (bits >> (length - fill - 1)) >> 1;  // length - fill <= 64
      }
    };
    // Eight counters at a time: an all-zero block is one "1" bit per
    // counter (code(1)), put at once. A test per block, not per counter,
    // keeps scattered zeros from costing a mispredicted branch each.
    constexpr size_t kBlock = 8;
    for (size_t j = 0; j < n; j += kBlock) {
      const size_t block = std::min(kBlock, n - j);
      uint64_t any = 0;
      for (size_t t = 0; t < block; ++t) any |= values[j + t];
      if (any == 0) {
        put(LowMask(static_cast<uint32_t>(block)),
            static_cast<uint32_t>(block));
        continue;
      }
      for (size_t t = 0; t < block; ++t) {
        const uint64_t v = values[j + t];
        if (v == ~uint64_t{0}) {  // 2^64: gamma(65), then 64 zero bits
          const Code& field = kLengthFields[kFullLength];
          put(field.bits, field.length);
          put(0, 64);
          continue;
        }
        EmitDelta(0, 0, v + 1, put);
      }
    }
    size_ = static_cast<size_t>(out - words_.data());
    acc_ = acc;
    fill_ = fill;
  }

  // The stream's bit count, and its words (the last one padded with
  // zeros).
  void Finish(wire::Writer* out) {
    const size_t bits = size_ * 64 + fill_;
    if (fill_ > 0) words_[size_++] = acc_;
    out->PutVarint(bits);
    out->PutWords(words_.data(), size_);
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;  // words stored
  uint64_t acc_ = 0;
  uint32_t fill_ = 0;
};

}  // namespace

void WriteCounterStream(const CounterVector& cv, wire::Writer* out) {
  const size_t m = cv.size();
  StreamPacker packer(m);
  // Sequential sweep through DecodeBlock: one group decode per group
  // instead of one positioned Get per counter.
  constexpr size_t kChunk = 256;
  uint64_t values[kChunk];
  for (size_t base = 0; base < m; base += kChunk) {
    const size_t len = std::min(kChunk, m - base);
    cv.DecodeBlock(base, len, values);
    packer.PutCounters(values, len);
  }
  packer.Finish(out);
}

Status ReadCounterStream(wire::Reader* in, std::span<uint64_t> values,
                         const char* what) {
  const std::string name(what);
  const uint64_t m = values.size();
  const uint64_t stream_bits = in->ReadVarint();
  if (!in->ok()) return in->status();
  // Every counter costs at least one bit, and the word block must fit in
  // what is left of the payload — both checks run before any allocation,
  // so a corrupted length cannot trigger a huge one.
  if (m > stream_bits) {
    return Status::DataLoss(name + " counter stream shorter than m");
  }
  const uint64_t stream_words = CeilDiv(stream_bits, 64);
  if (stream_words * 8 > in->remaining()) {
    return Status::DataLoss(name + " counter stream truncated");
  }
  // Guard words of all-ones after the stream: a corrupted codeword that
  // runs past the end meets them and stops (a 1-bit is a complete gamma
  // prefix), and the position checks below reject the overrun.
  BitVector stream(stream_words * 64 + 128);
  in->ReadWords(stream.mutable_words(), static_cast<size_t>(stream_words));
  if (!in->ok()) return in->status();
  stream.mutable_words()[stream_words] = ~0ull;
  stream.mutable_words()[stream_words + 1] = ~0ull;

  BitReader reader(&stream);
  for (uint64_t i = 0; i < m; ++i) {
    if (reader.position() >= stream_bits) {
      return Status::DataLoss(name + " counter stream ends early");
    }
    // The bounded decoder rejects what no valid encoder emits (lengths
    // above 65, a nonzero tail after length 65) instead of over-reading:
    // deserialization must be safe on corrupted network input.
    if (!EliasDeltaDecodeBounded(&reader, kFullLength, &values[i]) ||
        reader.position() > stream_bits) {
      return Status::DataLoss(name + " counter stream corrupted");
    }
  }
  if (reader.position() != stream_bits) {
    return Status::DataLoss(name + " counter stream has trailing bits");
  }
  return Status::Ok();
}

}  // namespace sbf
