#include <gtest/gtest.h>

#include <vector>

#include "bitstream/bit_vector.h"
#include "bitstream/bit_writer.h"
#include "util/random.h"

namespace sbf {
namespace {

TEST(BitVectorTest, StartsZeroed) {
  BitVector v(200);
  EXPECT_EQ(v.size_bits(), 200u);
  for (size_t i = 0; i < 200; ++i) EXPECT_FALSE(v.GetBit(i));
  EXPECT_EQ(v.PopCount(), 0u);
}

TEST(BitVectorTest, SetAndGetSingleBits) {
  BitVector v(130);
  v.SetBit(0, true);
  v.SetBit(63, true);
  v.SetBit(64, true);
  v.SetBit(129, true);
  EXPECT_TRUE(v.GetBit(0));
  EXPECT_TRUE(v.GetBit(63));
  EXPECT_TRUE(v.GetBit(64));
  EXPECT_TRUE(v.GetBit(129));
  EXPECT_FALSE(v.GetBit(1));
  EXPECT_EQ(v.PopCount(), 4u);
  v.SetBit(63, false);
  EXPECT_FALSE(v.GetBit(63));
  EXPECT_EQ(v.PopCount(), 3u);
}

TEST(BitVectorTest, FieldRoundTripWithinWord) {
  BitVector v(256);
  v.SetBits(10, 16, 0xBEEF);
  EXPECT_EQ(v.GetBits(10, 16), 0xBEEFull);
  EXPECT_EQ(v.GetBits(0, 10), 0ull);
  EXPECT_EQ(v.GetBits(26, 16), 0ull);
}

TEST(BitVectorTest, FieldRoundTripAcrossWordBoundary) {
  BitVector v(256);
  v.SetBits(60, 20, 0xABCDE);
  EXPECT_EQ(v.GetBits(60, 20), 0xABCDEull);
  v.SetBits(120, 64, 0x0123456789ABCDEFull);
  EXPECT_EQ(v.GetBits(120, 64), 0x0123456789ABCDEFull);
}

TEST(BitVectorTest, ZeroWidthFieldIsNoop) {
  BitVector v(64);
  v.SetBits(10, 0, 0);
  EXPECT_EQ(v.GetBits(10, 0), 0ull);
  EXPECT_EQ(v.PopCount(), 0u);
}

TEST(BitVectorTest, SetBitsDoesNotDisturbNeighbors) {
  BitVector v(192);
  for (size_t i = 0; i < 192; ++i) v.SetBit(i, true);
  v.SetBits(70, 12, 0);
  for (size_t i = 0; i < 192; ++i) {
    EXPECT_EQ(v.GetBit(i), i < 70 || i >= 82) << i;
  }
}

// Property sweep: random field writes at random positions/widths match a
// reference byte-wise model.
class BitVectorFieldTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitVectorFieldTest, RandomFieldsMatchReferenceModel) {
  const uint32_t width = GetParam();
  constexpr size_t kBits = 4096;
  BitVector v(kBits);
  std::vector<bool> model(kBits, false);
  Xoshiro256 rng(width * 977 + 1);

  for (int iter = 0; iter < 500; ++iter) {
    const size_t pos = rng.UniformInt(kBits - width);
    const uint64_t value = rng.Next() & LowMask(width);
    v.SetBits(pos, width, value);
    for (uint32_t b = 0; b < width; ++b) {
      model[pos + b] = (value >> b) & 1;
    }
  }
  for (size_t i = 0; i < kBits; ++i) {
    ASSERT_EQ(v.GetBit(i), model[i]) << "bit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorFieldTest,
                         ::testing::Values(1, 2, 3, 7, 8, 13, 31, 32, 33, 48,
                                           63, 64));

TEST(BitVectorTest, ShiftRangeRightSmall) {
  BitVector v(64);
  v.SetBits(0, 8, 0b10110101);
  v.ShiftRangeRight(0, 8, 3);
  EXPECT_EQ(v.GetBits(3, 8), 0b10110101ull);
}

TEST(BitVectorTest, ShiftRangeRightOverlapping) {
  BitVector v(512);
  Xoshiro256 rng(3);
  std::vector<bool> model(512, false);
  for (size_t i = 0; i < 300; ++i) {
    const bool bit = rng.Next() & 1;
    v.SetBit(i, bit);
    model[i] = bit;
  }
  // Shift [10, 300) right by 100: overlap of 190 bits.
  v.ShiftRangeRight(10, 300, 100);
  for (size_t i = 10; i < 300; ++i) {
    ASSERT_EQ(v.GetBit(i + 100), model[i]) << i;
  }
}

TEST(BitVectorTest, ShiftRangeLeftOverlapping) {
  BitVector v(512);
  Xoshiro256 rng(5);
  std::vector<bool> model(512, false);
  for (size_t i = 100; i < 400; ++i) {
    const bool bit = rng.Next() & 1;
    v.SetBit(i, bit);
    model[i] = bit;
  }
  v.ShiftRangeLeft(100, 400, 37);
  for (size_t i = 100; i < 400; ++i) {
    ASSERT_EQ(v.GetBit(i - 37), model[i]) << i;
  }
}

TEST(BitVectorTest, ShiftByZeroOrEmptyRangeIsNoop) {
  BitVector v(64);
  v.SetBits(0, 16, 0xFFFF);
  v.ShiftRangeRight(0, 16, 0);
  v.ShiftRangeRight(8, 8, 4);  // empty range [8,8)
  EXPECT_EQ(v.GetBits(0, 16), 0xFFFFull);
}

TEST(BitVectorTest, CopyFromOtherVector) {
  BitVector src(256), dst(256);
  Xoshiro256 rng(9);
  for (size_t i = 0; i < 256; ++i) src.SetBit(i, rng.Next() & 1);
  dst.CopyFrom(src, 13, 77, 150);
  for (size_t i = 0; i < 150; ++i) {
    ASSERT_EQ(dst.GetBit(77 + i), src.GetBit(13 + i)) << i;
  }
}

TEST(BitVectorTest, ResizeGrowsWithZeros) {
  BitVector v(10);
  v.SetBit(9, true);
  v.Resize(100);
  EXPECT_TRUE(v.GetBit(9));
  for (size_t i = 10; i < 100; ++i) EXPECT_FALSE(v.GetBit(i));
}

TEST(BitVectorTest, ResizeShrinkClearsTail) {
  BitVector v(100);
  for (size_t i = 0; i < 100; ++i) v.SetBit(i, true);
  v.Resize(37);
  EXPECT_EQ(v.PopCount(), 37u);
  v.Resize(100);
  for (size_t i = 37; i < 100; ++i) EXPECT_FALSE(v.GetBit(i)) << i;
}

TEST(BitVectorTest, EqualityComparesContentAndSize) {
  BitVector a(65), b(65);
  EXPECT_EQ(a, b);
  b.SetBit(64, true);
  EXPECT_FALSE(a == b);
}

TEST(BitVectorTest, ClearZeroesEverything) {
  BitVector v(130);
  for (size_t i = 0; i < 130; i += 3) v.SetBit(i, true);
  v.Clear();
  EXPECT_EQ(v.PopCount(), 0u);
  EXPECT_EQ(v.size_bits(), 130u);
}

// --- BitWriter / BitReader ---------------------------------------------------

TEST(BitWriterTest, AppendsAndFinishes) {
  BitVector out;
  BitWriter writer(&out);
  writer.WriteBits(1, 1);
  writer.WriteBits(0b1011, 4);
  writer.WriteZeros(3);
  writer.WriteBits(1, 1);
  writer.Finish();
  EXPECT_EQ(out.size_bits(), 9u);
  BitReader reader(&out);
  EXPECT_EQ(reader.ReadBits(1), 1ull);
  EXPECT_EQ(reader.ReadBits(4), 0b1011ull);
  EXPECT_EQ(reader.ReadBits(3), 0ull);
  EXPECT_EQ(reader.ReadBits(1), 1ull);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BitWriterTest, PositionedOverwrite) {
  BitVector out(64);
  out.SetBits(0, 64, ~0ull);
  BitWriter writer(&out, 8);
  writer.WriteBits(0, 16);
  writer.WriteZeros(8);
  EXPECT_EQ(out.GetBits(0, 8), 0xFFull);
  EXPECT_EQ(out.GetBits(8, 24), 0ull);
  EXPECT_EQ(out.GetBits(32, 32), 0xFFFFFFFFull);
}

TEST(BitWriterTest, GrowsOnDemand) {
  BitVector out;
  BitWriter writer(&out);
  for (int i = 0; i < 1000; ++i) writer.WriteBits(i & 0xFF, 8);
  writer.Finish();
  EXPECT_EQ(out.size_bits(), 8000u);
  BitReader reader(&out);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(reader.ReadBits(8), static_cast<uint64_t>(i & 0xFF));
  }
}

}  // namespace
}  // namespace sbf
