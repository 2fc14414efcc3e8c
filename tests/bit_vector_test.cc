#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
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

// --- storage: the allocator's size rule (util/aligned_alloc.h) --------------

// Bits in the smallest vector whose storage takes the huge-page branch.
constexpr size_t kHugeBits = kHugePageMinBytes * 8;

uintptr_t Address(const BitVector& v) {
  return reinterpret_cast<uintptr_t>(v.words());
}

// Sets ~1000 random fields below `limit` bits, recording them in `model`.
void Scatter(BitVector* v, size_t limit, uint64_t seed,
             std::vector<std::pair<size_t, uint64_t>>* model) {
  Xoshiro256 rng(seed);
  for (int i = 0; i < 1000; ++i) {
    const size_t pos = rng.UniformInt(limit - 64);
    const uint64_t value = rng.Next() & LowMask(17);
    v->SetBits(pos, 17, value);
    model->emplace_back(pos, value);
  }
}

// True iff every recorded field reads back (later writes win).
bool Holds(const BitVector& v,
           const std::vector<std::pair<size_t, uint64_t>>& model) {
  BitVector expected(v.size_bits());
  for (const auto& [pos, value] : model) expected.SetBits(pos, 17, value);
  return v == expected;
}

TEST(BitVectorStorageTest, SmallStorageIsCacheLineAligned) {
  for (size_t bits : {size_t{1}, size_t{200}, size_t{4096}, kHugeBits - 64}) {
    BitVector v(bits);
    EXPECT_EQ(Address(v) % kCacheLineBytes, 0u) << bits;
  }
}

TEST(BitVectorStorageTest, LargeStorageIsHugePageAligned) {
  for (size_t bits : {kHugeBits, kHugeBits + 1, 2 * kHugeBits + 4096}) {
    BitVector v(bits);
    EXPECT_EQ(Address(v) % kHugePageBytes, 0u) << bits;
    EXPECT_EQ(v.PopCount(), 0u);
  }
}

TEST(BitVectorStorageTest, ResizeAcrossThresholdKeepsContents) {
  std::vector<std::pair<size_t, uint64_t>> model;
  BitVector v(100000);
  Scatter(&v, 100000, 31, &model);

  v.Resize(kHugeBits + 77);  // up: reallocated on the huge-page branch
  EXPECT_EQ(Address(v) % kHugePageBytes, 0u);
  EXPECT_TRUE(Holds(v, model));
  Scatter(&v, kHugeBits + 77, 32, &model);
  ASSERT_TRUE(Holds(v, model));

  v.Resize(100000);  // down: the bits past the new end are dropped
  BitVector expected(kHugeBits + 77);
  for (const auto& [pos, value] : model) expected.SetBits(pos, 17, value);
  expected.Resize(100000);
  EXPECT_EQ(v, expected);

  const BitVector small_copy(v);  // a copy sizes to 100000 bits: small path
  EXPECT_EQ(Address(small_copy) % kCacheLineBytes, 0u);
  EXPECT_EQ(small_copy, expected);
}

TEST(BitVectorStorageTest, CopyAndAssignKeepContents) {
  std::vector<std::pair<size_t, uint64_t>> model;
  BitVector big(kHugeBits + 4096);
  Scatter(&big, big.size_bits(), 33, &model);

  const BitVector copy(big);
  EXPECT_EQ(Address(copy) % kHugePageBytes, 0u);
  EXPECT_TRUE(Holds(copy, model));

  BitVector assigned(300);
  assigned.SetBit(7, true);
  assigned = big;  // small -> large
  EXPECT_EQ(Address(assigned) % kHugePageBytes, 0u);
  EXPECT_EQ(assigned, big);

  BitVector small(300);
  small.SetBits(100, 20, 0xABCDE);
  assigned = small;  // large -> small
  EXPECT_EQ(assigned, small);
}

// The huge-page advice reached the kernel: the mapping holding a large
// vector's storage is THP-eligible. Needs Linux's smaps THPeligible line
// and a THP mode other than `never`.
TEST(BitVectorStorageTest, LargeStorageIsThpEligible) {
  std::ifstream mode_file("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode_line;
  if (!std::getline(mode_file, mode_line)) {
    GTEST_SKIP() << "no transparent_hugepage/enabled on this host";
  }
  if (mode_line.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "THP mode is never: the advice cannot take effect";
  }
  BitVector v(2 * kHugeBits);
  const uintptr_t at = Address(v);

  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long long begin = 0, end = 0;
    // Mapping headers start "begin-end perms ..."; field lines "Name: ".
    if (std::sscanf(line.c_str(), "%llx-%llx ", &begin, &end) == 2) {
      inside = begin <= at && at < end;
      continue;
    }
    if (inside && line.rfind("THPeligible:", 0) == 0) {
      EXPECT_NE(line.find('1'), std::string::npos) << line;
      return;
    }
  }
  GTEST_SKIP() << "no THPeligible line in /proc/self/smaps for the storage";
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
