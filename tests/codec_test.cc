#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bitstream/bit_writer.h"
#include "bitstream/elias.h"
#include "bitstream/steps_code.h"
#include "io/wire.h"
#include "sai/counter_codec.h"
#include "sai/counter_vector.h"
#include "util/bits.h"
#include "util/random.h"

namespace sbf {
namespace {

// --- Elias gamma --------------------------------------------------------------

TEST(EliasGammaTest, KnownCodewords) {
  // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100".
  BitVector out;
  BitWriter writer(&out);
  EliasGammaEncode(1, &writer);
  EliasGammaEncode(2, &writer);
  EliasGammaEncode(3, &writer);
  EliasGammaEncode(4, &writer);
  writer.Finish();
  EXPECT_EQ(out.size_bits(), 1u + 3 + 3 + 5);

  BitReader reader(&out);
  EXPECT_EQ(EliasGammaDecode(&reader), 1u);
  EXPECT_EQ(EliasGammaDecode(&reader), 2u);
  EXPECT_EQ(EliasGammaDecode(&reader), 3u);
  EXPECT_EQ(EliasGammaDecode(&reader), 4u);
}

TEST(EliasGammaTest, RoundTripExhaustiveSmall) {
  BitVector out;
  BitWriter writer(&out);
  for (uint64_t n = 1; n <= 2000; ++n) EliasGammaEncode(n, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t n = 1; n <= 2000; ++n) {
    ASSERT_EQ(EliasGammaDecode(&reader), n);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(EliasGammaTest, RoundTripRandomLarge) {
  Xoshiro256 rng(1);
  std::vector<uint64_t> values;
  BitVector out;
  BitWriter writer(&out);
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = (rng.Next() >> (rng.UniformInt(63))) | 1;
    values.push_back(v);
    EliasGammaEncode(v, &writer);
  }
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t v : values) ASSERT_EQ(EliasGammaDecode(&reader), v);
}

TEST(EliasGammaTest, LengthMatchesEncoding) {
  for (uint64_t n : {1ull, 2ull, 3ull, 4ull, 100ull, 12345ull, 1ull << 40}) {
    BitVector out;
    BitWriter writer(&out);
    EliasGammaEncode(n, &writer);
    writer.Finish();
    EXPECT_EQ(out.size_bits(), EliasGammaLength(n)) << n;
  }
}

// --- Elias delta ----------------------------------------------------------------

TEST(EliasDeltaTest, KnownCodewords) {
  // delta(1) = "1" (gamma(1)), delta(2) = gamma(2) + "0" = "0100".
  EXPECT_EQ(EliasDeltaLength(1), 1u);
  EXPECT_EQ(EliasDeltaLength(2), 4u);
  EXPECT_EQ(EliasDeltaLength(3), 4u);
  EXPECT_EQ(EliasDeltaLength(4), 5u);
}

TEST(EliasDeltaTest, RoundTripExhaustiveSmall) {
  BitVector out;
  BitWriter writer(&out);
  for (uint64_t n = 1; n <= 2000; ++n) EliasDeltaEncode(n, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t n = 1; n <= 2000; ++n) {
    ASSERT_EQ(EliasDeltaDecode(&reader), n);
  }
}

TEST(EliasDeltaTest, RoundTripPowersOfTwo) {
  BitVector out;
  BitWriter writer(&out);
  for (uint32_t p = 0; p < 64; ++p) EliasDeltaEncode(1ull << p, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint32_t p = 0; p < 64; ++p) {
    ASSERT_EQ(EliasDeltaDecode(&reader), 1ull << p) << p;
  }
}

TEST(EliasDeltaTest, LengthMatchesEncodingAndPaperFormula) {
  for (uint64_t n : {1ull, 2ull, 5ull, 17ull, 100ull, 65535ull, 1ull << 50}) {
    BitVector out;
    BitWriter writer(&out);
    EliasDeltaEncode(n, &writer);
    writer.Finish();
    EXPECT_EQ(out.size_bits(), EliasDeltaLength(n)) << n;
    // L2(n) = floor(log2 n) + 2 floor(log2(floor(log2 n)+1)) + 1.
    const uint32_t log_n = FloorLog2(n);
    EXPECT_EQ(EliasDeltaLength(n), log_n + 2 * FloorLog2(log_n + 1) + 1) << n;
  }
}

TEST(EliasDeltaTest, AsymptoticallySmallerThanGamma) {
  EXPECT_LT(EliasDeltaLength(1ull << 40), EliasGammaLength(1ull << 40));
}

// --- steps code --------------------------------------------------------------

TEST(StepsCodeTest, PaperExampleConfiguration) {
  // {0, 0}: 0 -> '0' (1 bit), 1 -> '10' (2 bits), else '11' + Elias.
  StepsCode code({0, 0});
  EXPECT_EQ(code.Length(0), 1u);
  EXPECT_EQ(code.Length(1), 2u);
  EXPECT_EQ(code.Length(2), 2u + EliasDeltaLength(1));

  BitVector out;
  BitWriter writer(&out);
  code.Encode(0, &writer);
  code.Encode(1, &writer);
  writer.Finish();
  EXPECT_EQ(out.size_bits(), 3u);
  EXPECT_FALSE(out.GetBit(0));  // '0'
  EXPECT_TRUE(out.GetBit(1));   // '1'
  EXPECT_FALSE(out.GetBit(2));  // '0'
}

class StepsConfigTest
    : public ::testing::TestWithParam<std::vector<uint32_t>> {};

TEST_P(StepsConfigTest, RoundTripSmallValues) {
  StepsCode code(GetParam());
  BitVector out;
  BitWriter writer(&out);
  for (uint64_t v = 0; v <= 300; ++v) code.Encode(v, &writer);
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t v = 0; v <= 300; ++v) {
    ASSERT_EQ(code.Decode(&reader), v) << v;
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST_P(StepsConfigTest, RoundTripRandomLargeValues) {
  StepsCode code(GetParam());
  Xoshiro256 rng(99);
  std::vector<uint64_t> values;
  BitVector out;
  BitWriter writer(&out);
  for (int i = 0; i < 300; ++i) {
    const uint64_t v = rng.Next() >> rng.UniformInt(60);
    values.push_back(v);
    code.Encode(v, &writer);
  }
  writer.Finish();
  BitReader reader(&out);
  for (uint64_t v : values) ASSERT_EQ(code.Decode(&reader), v);
}

TEST_P(StepsConfigTest, LengthMatchesEncoding) {
  StepsCode code(GetParam());
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull, 100ull, 5000ull,
                     1ull << 33}) {
    BitVector out;
    BitWriter writer(&out);
    code.Encode(v, &writer);
    writer.Finish();
    EXPECT_EQ(out.size_bits(), code.Length(v)) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StepsConfigTest,
    ::testing::Values(std::vector<uint32_t>{0, 0}, std::vector<uint32_t>{1, 2},
                      std::vector<uint32_t>{2, 3}, std::vector<uint32_t>{1},
                      std::vector<uint32_t>{4, 4, 4}));

TEST(StepsCodeTest, CheaperThanEliasForCountersOfOne) {
  // The paper's motivation: in an "almost set" (most counters 1, stored as
  // code(c+1)=code(2)), steps beat Elias delta.
  StepsCode code({0, 0});
  EXPECT_LT(code.Length(1 + 1), EliasDeltaLength(1 + 1) + 0u);
}

TEST(StepsCodeTest, MixedStreamWithEliasInterleaved) {
  // Codecs must compose on one stream.
  StepsCode code({1, 2});
  BitVector out;
  BitWriter writer(&out);
  code.Encode(7, &writer);
  EliasDeltaEncode(42, &writer);
  code.Encode(0, &writer);
  EliasGammaEncode(5, &writer);
  writer.Finish();
  BitReader reader(&out);
  EXPECT_EQ(code.Decode(&reader), 7u);
  EXPECT_EQ(EliasDeltaDecode(&reader), 42u);
  EXPECT_EQ(code.Decode(&reader), 0u);
  EXPECT_EQ(EliasGammaDecode(&reader), 5u);
}

// --- differential: word-at-a-time codecs vs the bit loops ------------------
//
// The reference below is the bit-at-a-time encoder and decoder the codecs
// used before they moved a word at a time: one bit per call, binary parts
// MSB first. Every codeword must match it bit for bit, and each side must
// decode the other's stream.

namespace bitloop {

void PutBit(BitVector* out, bool bit) {
  out->Resize(out->size_bits() + 1);
  out->SetBit(out->size_bits() - 1, bit);
}

void PutMsbFirst(BitVector* out, uint64_t v, uint32_t bits) {
  for (uint32_t i = bits; i-- > 0;) PutBit(out, (v >> i) & 1);
}

void GammaEncode(BitVector* out, uint64_t n) {
  const uint32_t len = FloorLog2(n) + 1;
  for (uint32_t i = 1; i < len; ++i) PutBit(out, false);
  PutMsbFirst(out, n, len);
}

void DeltaEncode(BitVector* out, uint64_t n) {
  const uint32_t len = FloorLog2(n) + 1;
  GammaEncode(out, len);
  PutMsbFirst(out, n & LowMask(len - 1), len - 1);
}

void StepsEncode(BitVector* out, const std::vector<uint32_t>& widths,
                 uint64_t value) {
  uint64_t base = 0;
  for (const uint32_t w : widths) {
    if (value < base + (uint64_t{1} << w)) {
      PutBit(out, false);
      for (uint32_t i = 0; i < w; ++i) PutBit(out, ((value - base) >> i) & 1);
      return;
    }
    PutBit(out, true);
    base += uint64_t{1} << w;
  }
  DeltaEncode(out, value - base + 1);
}

// The counter stream's code of v: delta(v + 1), where 2^64 is gamma(65)
// and 64 zero bits.
void CounterEncode(BitVector* out, uint64_t v) {
  if (v == ~uint64_t{0}) {
    GammaEncode(out, 65);
    for (int i = 0; i < 64; ++i) PutBit(out, false);
    return;
  }
  DeltaEncode(out, v + 1);
}

struct Cursor {
  const BitVector& in;
  size_t pos = 0;
  bool Bit() { return in.GetBit(pos++); }
  uint64_t MsbFirst(uint32_t bits) {
    uint64_t v = 0;
    for (uint32_t i = 0; i < bits; ++i) v = (v << 1) | Bit();
    return v;
  }
  uint64_t Gamma() {
    uint32_t zeros = 0;
    while (!Bit()) ++zeros;
    return zeros == 0 ? 1 : (uint64_t{1} << zeros) | MsbFirst(zeros);
  }
  uint64_t Delta() {
    const auto len = static_cast<uint32_t>(Gamma());
    return len == 1 ? 1 : (uint64_t{1} << (len - 1)) | MsbFirst(len - 1);
  }
  uint64_t Steps(const std::vector<uint32_t>& widths) {
    uint64_t base = 0;
    for (const uint32_t w : widths) {
      if (!Bit()) {
        uint64_t v = 0;
        for (uint32_t i = 0; i < w; ++i) v |= uint64_t{Bit()} << i;
        return base + v;
      }
      base += uint64_t{1} << w;
    }
    return base + Delta() - 1;
  }
};

}  // namespace bitloop

// 0..4096, 2^j - 1, 2^j and 2^j + 1 for every j < 64, and seeded random
// 64-bit values of every magnitude.
std::vector<uint64_t> DifferentialValues() {
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v <= 4096; ++v) values.push_back(v);
  for (uint32_t j = 0; j < 64; ++j) {
    const uint64_t p = uint64_t{1} << j;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  Xoshiro256 rng(2003);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.Next() >> rng.UniformInt(64));
  }
  values.push_back(~uint64_t{0});
  return values;
}

std::vector<uint64_t> PositiveValues() {
  std::vector<uint64_t> values;
  for (const uint64_t v : DifferentialValues()) {
    if (v != 0) values.push_back(v);
  }
  return values;
}

// A copy whose storage is exactly its words: nothing past the last word
// is allocated, so a read past it is a sanitizer error.
BitVector ExactCopy(const BitVector& v) {
  BitVector out(v.size_bits());
  out.CopyFrom(v, 0, 0, v.size_bits());
  return out;
}

void ExpectSameBits(const BitVector& got, const BitVector& want,
                    const std::string& what) {
  ASSERT_EQ(got.size_bits(), want.size_bits()) << what;
  for (size_t pos = 0; pos < got.size_bits(); pos += 64) {
    const auto width =
        static_cast<uint32_t>(std::min<size_t>(64, got.size_bits() - pos));
    ASSERT_EQ(got.GetBits(pos, width), want.GetBits(pos, width))
        << what << " at bit " << pos;
  }
}

TEST(CodecDifferentialTest, GammaMatchesBitLoop) {
  const std::vector<uint64_t> values = PositiveValues();
  BitVector fast, slow;
  BitWriter writer(&fast);
  for (const uint64_t n : values) {
    EliasGammaEncode(n, &writer);
    bitloop::GammaEncode(&slow, n);
  }
  writer.Finish();
  ExpectSameBits(fast, slow, "gamma");
  const BitVector exact = ExactCopy(fast);
  BitReader reader(&exact);
  bitloop::Cursor cursor{slow};
  for (const uint64_t n : values) {
    ASSERT_EQ(EliasGammaDecode(&reader), n);
    ASSERT_EQ(cursor.Gamma(), n);
  }
  EXPECT_EQ(reader.position(), exact.size_bits());
}

TEST(CodecDifferentialTest, DeltaMatchesBitLoop) {
  const std::vector<uint64_t> values = PositiveValues();
  BitVector fast, slow;
  BitWriter writer(&fast);
  for (const uint64_t n : values) {
    EliasDeltaEncode(n, &writer);
    bitloop::DeltaEncode(&slow, n);
  }
  writer.Finish();
  ExpectSameBits(fast, slow, "delta");
  const BitVector exact = ExactCopy(fast);
  BitReader reader(&exact);
  bitloop::Cursor cursor{slow};
  for (const uint64_t n : values) {
    ASSERT_EQ(EliasDeltaDecode(&reader), n);
    ASSERT_EQ(cursor.Delta(), n);
  }
  EXPECT_EQ(reader.position(), exact.size_bits());
}

TEST(CodecDifferentialTest, StepsMatchBitLoop) {
  const std::vector<uint64_t> values = DifferentialValues();
  for (const std::vector<uint32_t>& widths :
       {std::vector<uint32_t>{0, 0}, std::vector<uint32_t>{1, 2},
        std::vector<uint32_t>{2, 3}}) {
    const std::string name =
        "steps {" + std::to_string(widths[0]) + "," +
        std::to_string(widths[1]) + "}";
    const StepsCode code(widths);
    BitVector fast, slow;
    BitWriter writer(&fast);
    for (const uint64_t v : values) {
      code.Encode(v, &writer);
      bitloop::StepsEncode(&slow, widths, v);
    }
    writer.Finish();
    ExpectSameBits(fast, slow, name);
    const BitVector exact = ExactCopy(fast);
    BitReader reader(&exact);
    bitloop::Cursor cursor{slow};
    for (const uint64_t v : values) {
      ASSERT_EQ(code.Decode(&reader), v) << name;
      ASSERT_EQ(cursor.Steps(widths), v) << name;
    }
    EXPECT_EQ(reader.position(), exact.size_bits()) << name;
  }
}

// The counter stream carries v as delta(v + 1), and 2^64 - 1 as the
// 65-bit code of 2^64: the {varint bit count, words} block must hold the
// bit loop's stream, and read back to the same counters.
TEST(CodecDifferentialTest, CounterStreamMatchesBitLoop) {
  const std::vector<uint64_t> values = DifferentialValues();
  auto counters = MakeCounterVector(CounterBacking::kFixed64, values.size());
  BitVector slow;
  for (size_t i = 0; i < values.size(); ++i) {
    counters->Set(i, values[i]);
    bitloop::CounterEncode(&slow, values[i]);
  }
  wire::Writer out;
  WriteCounterStream(*counters, &out);
  wire::Writer want;
  want.PutVarint(slow.size_bits());
  want.PutWords(slow.words(), slow.size_words());
  EXPECT_EQ(out.bytes(), want.bytes());

  const std::vector<uint8_t> bytes = out.Take();
  wire::Reader in(bytes.data(), bytes.size());
  std::vector<uint64_t> decoded(values.size());
  ASSERT_TRUE(ReadCounterStream(&in, decoded, "test").ok());
  EXPECT_EQ(decoded, values);
}

// Long zero runs (the stream's "1" codes, packed a block at a time) mixed
// with the values at the edges of the codeword table and of the 64-bit
// range, so codewords of 1 to 77 bits straddle every word boundary. 2^53
// has a codeword of exactly 64 bits.
std::vector<uint64_t> MixedStreamValues(size_t n, uint64_t seed) {
  static constexpr uint64_t kEdges[] = {1,
                                        254,
                                        255,
                                        256,
                                        (uint64_t{1} << 32) - 1,
                                        uint64_t{1} << 53,
                                        ~uint64_t{0} - 1,
                                        ~uint64_t{0}};
  Xoshiro256 rng(seed);
  std::vector<uint64_t> values(n, 0);
  for (size_t i = 0; i < n;) {
    if (rng.UniformInt(2) == 0) {
      i += 1 + rng.UniformInt(150);  // a zero run
      continue;
    }
    values[i++] = kEdges[rng.UniformInt(std::size(kEdges))];
  }
  return values;
}

// The counter-stream writer, fed by each backing's DecodeBlock, against
// the bit loop at every length 1..200 and at 2^16 + 3: the same
// {varint bit count, words} block, read back to the same counters.
TEST(CodecDifferentialTest, CounterStreamWriterMatchesBitLoopAcrossWordBoundaries) {
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 200; ++n) lengths.push_back(n);
  lengths.push_back((size_t{1} << 16) + 3);
  for (const CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact,
        CounterBacking::kSerialScan}) {
    for (const size_t n : lengths) {
      const std::vector<uint64_t> values = MixedStreamValues(n, n);
      auto counters = MakeCounterVector(backing, n);
      BitVector slow;
      for (size_t i = 0; i < n; ++i) {
        counters->Set(i, values[i]);
        bitloop::CounterEncode(&slow, values[i]);
      }
      const std::string what =
          counters->Name() + " n=" + std::to_string(n);
      wire::Writer out;
      WriteCounterStream(*counters, &out);
      wire::Writer want;
      want.PutVarint(slow.size_bits());
      want.PutWords(slow.words(), slow.size_words());
      ASSERT_EQ(out.bytes(), want.bytes()) << what;

      const std::vector<uint8_t> bytes = out.Take();
      wire::Reader in(bytes.data(), bytes.size());
      std::vector<uint64_t> decoded(n);
      ASSERT_TRUE(ReadCounterStream(&in, decoded, "test").ok()) << what;
      ASSERT_EQ(decoded, values) << what;
    }
  }
}

// The three codes behind one switch for the layout tests below (steps
// with the {1, 2} configuration); n >= 1.
enum class Codec { kGamma, kDelta, kSteps };

void EncodeWith(Codec codec, uint64_t n, BitWriter* writer) {
  static const StepsCode steps({1, 2});
  switch (codec) {
    case Codec::kGamma:
      EliasGammaEncode(n, writer);
      break;
    case Codec::kDelta:
      EliasDeltaEncode(n, writer);
      break;
    case Codec::kSteps:
      steps.Encode(n, writer);
      break;
  }
}

uint64_t DecodeWith(Codec codec, BitReader* reader) {
  static const StepsCode steps({1, 2});
  switch (codec) {
    case Codec::kGamma:
      return EliasGammaDecode(reader);
    case Codec::kDelta:
      return EliasDeltaDecode(reader);
    case Codec::kSteps:
      return steps.Decode(reader);
  }
  return 0;
}

// A re-encode in the middle of a stream (the serial-scan backing's
// in-place EncodeGroupAt) must leave every bit around it untouched.
TEST(CodecDifferentialTest, PositionedRewriteKeepsSurroundingBits) {
  Xoshiro256 rng(77);
  BitVector base(4096);
  for (size_t w = 0; w < base.size_words(); ++w) {
    base.mutable_words()[w] = rng.Next();
  }
  const std::vector<uint64_t> values = {1, 2, 3, 8, 301, 65538,
                                        uint64_t{1} << 40, ~uint64_t{0} >> 1};
  // Every prefix of the value list, so the rewrite ends inside a word
  // and at a word's edge as well as after a spill.
  for (const Codec codec : {Codec::kGamma, Codec::kDelta, Codec::kSteps}) {
    for (const size_t start : {0u, 1u, 63u, 64u, 65u, 127u, 1000u}) {
      for (size_t count = 1; count <= values.size(); ++count) {
        BitVector out = base;
        BitWriter writer(&out, start);
        for (size_t j = 0; j < count; ++j) {
          EncodeWith(codec, values[j], &writer);
        }
        const size_t end = writer.position();
        ASSERT_LE(end, base.size_bits());
        ASSERT_EQ(out.size_bits(), base.size_bits());
        for (size_t pos = 0; pos < base.size_bits(); ++pos) {
          if (pos >= start && pos < end) continue;
          ASSERT_EQ(out.GetBit(pos), base.GetBit(pos))
              << "codec " << static_cast<int>(codec) << " start " << start
              << " count " << count << " bit " << pos;
        }
        BitReader reader(&out, start);
        for (size_t j = 0; j < count; ++j) {
          ASSERT_EQ(DecodeWith(codec, &reader), values[j]);
        }
        EXPECT_EQ(reader.position(), end);
      }
    }
  }
}

// A codeword that ends exactly at the end of a vector with no guard words,
// on and off a word boundary: the 64-bit peeks must stay inside storage.
TEST(CodecDifferentialTest, DecodesAtExactEndWithoutGuardWords) {
  const std::vector<uint64_t> values = {1, 2, 15, 16, 255, 256,
                                        uint64_t{1} << 31, uint64_t{1} << 32,
                                        ~uint64_t{0} >> 1, ~uint64_t{0}};
  for (const Codec codec : {Codec::kGamma, Codec::kDelta, Codec::kSteps}) {
    for (const uint64_t n : values) {
      for (const uint32_t lead : {0u, 1u, 17u, 63u}) {
        BitVector stream;
        BitWriter writer(&stream);
        writer.WriteZeros(lead);
        EncodeWith(codec, n, &writer);
        writer.Finish();
        // Unpadded, then padded in front so the codeword ends on a word
        // boundary.
        for (const size_t pad :
             {size_t{0}, (64 - stream.size_bits() % 64) % 64}) {
          BitVector padded(pad + stream.size_bits());
          padded.CopyFrom(stream, 0, pad, stream.size_bits());
          const BitVector exact = ExactCopy(padded);
          BitReader reader(&exact, pad + lead);
          EXPECT_EQ(DecodeWith(codec, &reader), n);
          EXPECT_EQ(reader.position(), exact.size_bits())
              << "codec " << static_cast<int>(codec) << " n " << n
              << " pad " << pad;
        }
      }
    }
  }
  // At the very end of word-aligned storage a peek reads nothing.
  const BitVector exact = ExactCopy(BitVector(128));
  EXPECT_EQ(BitReader(&exact, 128).Peek64(), 0u);
}

// --- CRC32C ------------------------------------------------------------------

// Bit-at-a-time CRC32C over the reflected Castagnoli polynomial.
uint32_t BitwiseCrc32c(const uint8_t* data, size_t size) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 (iSCSI), appendix B.4.
  const char* digits = "123456789";
  EXPECT_EQ(wire::Crc32c(reinterpret_cast<const uint8_t*>(digits),
                         std::strlen(digits)),
            0xE3069283u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(wire::Crc32c(zeros), 0x8A9136AAu);
  const std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(wire::Crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(wire::Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Xoshiro256 rng(3720);
  std::vector<uint8_t> data(1030 + 8);
  for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1030; ++len) {
      ASSERT_EQ(wire::Crc32c(data.data() + offset, len),
                BitwiseCrc32c(data.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace sbf
