#include "sai/counter_codec.h"

#include <algorithm>
#include <string>

#include "bitstream/bit_vector.h"
#include "bitstream/bit_writer.h"
#include "bitstream/elias.h"
#include "util/bits.h"

namespace sbf {
namespace {

// Counter v travels as the Elias-delta code of v + 1. For v = 2^64 - 1
// that is the 65-bit code of 2^64: gamma(65), then 64 zero bits.
constexpr uint32_t kFullLength = 65;

void EncodeCounter(uint64_t v, BitWriter* writer) {
  if (v == ~uint64_t{0}) {
    EliasGammaEncode(kFullLength, writer);
    writer->WriteZeros(kFullLength - 1);
    return;
  }
  EliasDeltaEncode(v + 1, writer);
}

}  // namespace

void WriteCounterStream(const CounterVector& cv, wire::Writer* out) {
  // Every codeword takes at least one bit: start at that floor and let
  // the writer grow from the real code lengths, rather than presizing for
  // the 77-bit worst case (page faults on megabytes never written).
  const size_t m = cv.size();
  BitVector stream(m + 64);
  BitWriter writer(&stream, 0);
  // Sequential sweep through DecodeBlock: one group decode per group
  // instead of one positioned Get per counter.
  constexpr size_t kChunk = 256;
  uint64_t values[kChunk];
  for (size_t base = 0; base < m; base += kChunk) {
    const size_t len = std::min(kChunk, m - base);
    cv.DecodeBlock(base, len, values);
    for (size_t j = 0; j < len; ++j) {
      EncodeCounter(values[j], &writer);
    }
  }
  writer.Finish();
  out->PutVarint(stream.size_bits());
  out->PutWords(stream.words(), stream.size_words());
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
