#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "sai/compact_counter_vector.h"
#include "sai/counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/random.h"

namespace sbf {
namespace {

// --- shared behaviour across all backings (property suite) ------------------

class CounterBackingTest : public ::testing::TestWithParam<CounterBacking> {
 protected:
  std::unique_ptr<CounterVector> Make(size_t m) {
    return MakeCounterVector(GetParam(), m);
  }
};

TEST_P(CounterBackingTest, StartsAtZero) {
  auto v = Make(100);
  EXPECT_EQ(v->size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(v->Get(i), 0u);
  EXPECT_EQ(v->Total(), 0u);
}

TEST_P(CounterBackingTest, SetGetRoundTrip) {
  auto v = Make(50);
  v->Set(0, 7);
  v->Set(25, 123456);
  v->Set(49, 1);
  EXPECT_EQ(v->Get(0), 7u);
  EXPECT_EQ(v->Get(25), 123456u);
  EXPECT_EQ(v->Get(49), 1u);
  EXPECT_EQ(v->Get(1), 0u);
}

TEST_P(CounterBackingTest, IncrementAndDecrement) {
  auto v = Make(10);
  v->Increment(3, 5);
  v->Increment(3, 2);
  EXPECT_EQ(v->Get(3), 7u);
  v->Decrement(3, 4);
  EXPECT_EQ(v->Get(3), 3u);
  v->Decrement(3, 3);
  EXPECT_EQ(v->Get(3), 0u);
}

TEST_P(CounterBackingTest, RandomOpsMatchReferenceModel) {
  constexpr size_t kM = 200;
  auto v = Make(kM);
  std::vector<uint64_t> model(kM, 0);
  Xoshiro256 rng(static_cast<uint64_t>(GetParam()) * 31 + 5);

  for (int iter = 0; iter < 20000; ++iter) {
    const size_t i = rng.UniformInt(kM);
    switch (rng.UniformInt(3)) {
      case 0: {
        const uint64_t d = rng.UniformInt(20) + 1;
        v->Increment(i, d);
        model[i] += d;
        break;
      }
      case 1:
        if (model[i] > 0) {
          const uint64_t d = rng.UniformInt(model[i]) + 1;
          v->Decrement(i, d);
          model[i] -= d;
        }
        break;
      default: {
        // Keep values within 31 bits so the fixed32 backing can hold them.
        const uint64_t value = rng.Next() >> (rng.UniformInt(30) + 33);
        v->Set(i, value);
        model[i] = value;
        break;
      }
    }
    if (iter % 500 == 0) {
      for (size_t j = 0; j < kM; ++j) {
        ASSERT_EQ(v->Get(j), model[j]) << "counter " << j << " iter " << iter;
      }
    }
  }
  for (size_t j = 0; j < kM; ++j) ASSERT_EQ(v->Get(j), model[j]);
}

TEST_P(CounterBackingTest, SkewedGrowthMatchesModel) {
  // A few counters grow huge while most stay tiny — the Zipfian pattern
  // that stresses width expansion and slack borrowing.
  constexpr size_t kM = 300;
  auto v = Make(kM);
  std::vector<uint64_t> model(kM, 0);
  Xoshiro256 rng(77);
  for (int iter = 0; iter < 30000; ++iter) {
    // Zipf-flavoured index: low indices picked much more often.
    const size_t i = static_cast<size_t>(
        kM * rng.UniformDouble() * rng.UniformDouble() * rng.UniformDouble());
    v->Increment(i, 1);
    model[i] += 1;
  }
  for (size_t j = 0; j < kM; ++j) ASSERT_EQ(v->Get(j), model[j]);
}

TEST_P(CounterBackingTest, LargeValues) {
  auto v = Make(8);
  // Largest value every backing can represent (fixed32 caps at 2^32 - 1).
  const uint64_t big = GetParam() == CounterBacking::kFixed32
                           ? (1ull << 31)
                           : (1ull << 50);
  v->Set(0, big);
  v->Set(7, big + 12345);
  EXPECT_EQ(v->Get(0), big);
  EXPECT_EQ(v->Get(7), big + 12345);
  EXPECT_EQ(v->Get(3), 0u);
}

TEST_P(CounterBackingTest, ResetZeroes) {
  auto v = Make(64);
  for (size_t i = 0; i < 64; ++i) v->Set(i, i * i);
  v->Reset();
  for (size_t i = 0; i < 64; ++i) EXPECT_EQ(v->Get(i), 0u);
}

TEST_P(CounterBackingTest, CloneIsDeepAndEqual) {
  auto v = Make(40);
  Xoshiro256 rng(21);
  for (size_t i = 0; i < 40; ++i) v->Set(i, rng.UniformInt(1000));
  auto copy = v->Clone();
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(copy->Get(i), v->Get(i));
  copy->Set(5, 999999);
  EXPECT_NE(copy->Get(5), v->Get(5));
}

TEST_P(CounterBackingTest, TotalSumsCounters) {
  auto v = Make(10);
  uint64_t expected = 0;
  for (size_t i = 0; i < 10; ++i) {
    v->Set(i, i * 3);
    expected += i * 3;
  }
  EXPECT_EQ(v->Total(), expected);
}

TEST_P(CounterBackingTest, MemoryUsageIsPositiveAndScales) {
  auto small = Make(64);
  auto large = Make(6400);
  EXPECT_GT(small->MemoryUsageBits(), 0u);
  EXPECT_GT(large->MemoryUsageBits(), small->MemoryUsageBits());
}

INSTANTIATE_TEST_SUITE_P(
    Backings, CounterBackingTest,
    ::testing::Values(CounterBacking::kFixed64, CounterBacking::kFixed32,
                      CounterBacking::kCompact, CounterBacking::kSerialScan),
    [](const auto& param_info) {
      std::string name = CounterBackingName(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- fixed-width specifics ----------------------------------------------------

TEST(FixedWidthTest, WidthBoundsValues) {
  FixedWidthCounterVector v(10, 4);
  EXPECT_EQ(v.max_value(), 15u);
  v.Set(0, 15);
  EXPECT_EQ(v.Get(0), 15u);
}

TEST(FixedWidthTest, SaturatingIncrementClamps) {
  FixedWidthCounterVector v(4, 4, /*sticky_saturation=*/true);
  v.Increment(0, 20);
  EXPECT_EQ(v.Get(0), 15u);
  EXPECT_EQ(v.ScanOccupancy().saturated, 1u);
}

TEST(FixedWidthTest, StickyCounterNeverDecrements) {
  FixedWidthCounterVector v(4, 4, /*sticky_saturation=*/true);
  v.Increment(0, 15);
  v.Decrement(0, 3);
  EXPECT_EQ(v.Get(0), 15u);  // stuck
  v.Increment(1, 10);
  v.Decrement(1, 3);
  EXPECT_EQ(v.Get(1), 7u);  // normal path still works
}

TEST(FixedWidthTest, NameReflectsConfig) {
  EXPECT_EQ(FixedWidthCounterVector(4, 4, true).Name(), "fixed4-saturating");
  EXPECT_EQ(FixedWidthCounterVector(4, 32).Name(), "fixed32");
}

// --- compact specifics ---------------------------------------------------------

TEST(CompactTest, WidthsStartAtOneAndGrow) {
  CompactCounterVector v(100);
  EXPECT_EQ(v.WidthOf(0), 1u);
  v.Set(0, 1);
  EXPECT_EQ(v.WidthOf(0), 1u);
  v.Set(0, 2);
  EXPECT_EQ(v.WidthOf(0), 2u);
  v.Set(0, 255);
  EXPECT_EQ(v.WidthOf(0), 8u);
}

TEST(CompactTest, DecrementKeepsWidthUntilRebuild) {
  CompactCounterVector v(100);
  v.Set(0, 255);
  v.Set(0, 1);  // value shrinks, width stays (positions don't move)
  EXPECT_EQ(v.WidthOf(0), 8u);
  EXPECT_EQ(v.Get(0), 1u);
  v.ForceRebuild();
  EXPECT_EQ(v.WidthOf(0), 1u);
  EXPECT_EQ(v.Get(0), 1u);
}

TEST(CompactTest, UsedBitsTracksWidths) {
  CompactCounterVector v(10);
  EXPECT_EQ(v.UsedBits(), 10u);  // all width-1
  v.Set(0, 7);                   // width 3
  EXPECT_EQ(v.UsedBits(), 12u);
}

TEST(CompactTest, SlackBorrowingAcrossGroups) {
  // Tight slack forces cross-group pushes.
  CompactCounterVector::Options options;
  options.group_size = 8;
  options.slack_per_counter = 0.25;
  CompactCounterVector v(64, options);
  std::vector<uint64_t> model(64, 0);
  Xoshiro256 rng(3);
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t i = rng.UniformInt(64);
    const uint64_t value = rng.Next() >> (rng.UniformInt(32) + 32);
    v.Set(i, value);
    model[i] = value;
  }
  for (size_t i = 0; i < 64; ++i) ASSERT_EQ(v.Get(i), model[i]);
  EXPECT_GT(v.pushed_bits_total(), 0u);
}

TEST(CompactTest, RebuildsWhenSlackExhausted) {
  CompactCounterVector::Options options;
  options.group_size = 8;
  options.slack_per_counter = 0.1;
  CompactCounterVector v(32, options);
  // Grow every counter to 32 bits: guaranteed to exceed the initial slack.
  for (size_t i = 0; i < 32; ++i) v.Set(i, 0xFFFFFFFFull);
  for (size_t i = 0; i < 32; ++i) ASSERT_EQ(v.Get(i), 0xFFFFFFFFull);
  EXPECT_GE(v.rebuild_count(), 1u);
}

TEST(CompactTest, CompactnessNearInformationContent) {
  // For m counters of value ~15 (4 bits each) the base array should be
  // within a small factor of the N = 4m payload, not 64m.
  constexpr size_t kM = 10000;
  CompactCounterVector v(kM);
  for (size_t i = 0; i < kM; ++i) v.Set(i, 15);
  v.ForceRebuild();
  EXPECT_LT(v.BaseArrayBits(), 7 * kM);   // payload 4m + slack
  EXPECT_GE(v.BaseArrayBits(), 4 * kM);
}

TEST(CompactTest, SingleCounterVector) {
  CompactCounterVector v(1);
  v.Set(0, 42);
  EXPECT_EQ(v.Get(0), 42u);
}

// Deserialize lays out each group in one pass where its widenings fit,
// and must leave exactly the layout one Set per nonzero value in index
// order leaves: same widths, group slack, pushed bits and rebuilds. The
// values mix zeros, small counts and wide counters, so some groups
// borrow slack and one load rebuilds.
TEST(CompactTest, DeserializeLeavesTheSetLoopLayout) {
  for (const uint32_t wide_every : {0u, 7u, 3u}) {
    constexpr size_t kM = 5000;
    Xoshiro256 rng(91 + wide_every);
    std::vector<uint64_t> values(kM);
    for (size_t i = 0; i < kM; ++i) {
      const uint64_t r = rng.Next();
      values[i] = (r & 3) == 0 ? 0 : (r >> 8) % 20;
      if (wide_every != 0 && i % wide_every == 0) values[i] = r >> 4;
    }
    CompactCounterVector reference(kM);
    for (size_t i = 0; i < kM; ++i) {
      if (values[i] != 0) reference.Set(i, values[i]);
    }
    // Premise: without wide counters some groups borrow; with them the
    // Set loop rebuilds.
    EXPECT_EQ(reference.rebuild_count() > 0, wide_every != 0);
    auto loaded = CompactCounterVector::Deserialize(reference.Serialize());
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    const auto& cv = static_cast<const CompactCounterVector&>(*loaded.value());
    EXPECT_EQ(cv.rebuild_count(), reference.rebuild_count()) << wide_every;
    EXPECT_EQ(cv.pushed_bits_total(), reference.pushed_bits_total());
    EXPECT_EQ(cv.BaseArrayBits(), reference.BaseArrayBits());
    EXPECT_EQ(cv.MemoryUsageBits(), reference.MemoryUsageBits());
    for (size_t g = 0; g < cv.group_count(); ++g) {
      ASSERT_EQ(cv.GroupSlackBits(g), reference.GroupSlackBits(g)) << g;
    }
    for (size_t i = 0; i < kM; ++i) {
      ASSERT_EQ(cv.WidthOf(i), reference.WidthOf(i)) << i;
      ASSERT_EQ(cv.Get(i), values[i]) << i;
    }
    EXPECT_TRUE(cv.CheckInvariants().ok());
  }
}

TEST(CompactTest, GroupSizeOne) {
  CompactCounterVector::Options options;
  options.group_size = 1;
  CompactCounterVector v(17, options);
  for (size_t i = 0; i < 17; ++i) v.Set(i, i * 1000);
  for (size_t i = 0; i < 17; ++i) EXPECT_EQ(v.Get(i), i * 1000);
}

// Counters find their group by a multiply-high with a precomputed
// reciprocal; at the largest group size every group boundary must still
// land in the right group, and sizes outside 1..4096 are refused.
TEST(CompactTest, LargestGroupSizeAndRangeChecks) {
  CompactCounterVector::Options options;
  options.group_size = 4096;
  const size_t m = 3 * 4096 + 5;
  CompactCounterVector v(m, options);
  for (size_t i = 0; i < m; ++i) {
    if (i % 4096 <= 1 || i % 4096 >= 4094) v.Set(i, i + 1);
  }
  for (size_t i = 0; i < m; ++i) {
    const uint64_t want = (i % 4096 <= 1 || i % 4096 >= 4094) ? i + 1 : 0;
    ASSERT_EQ(v.Get(i), want) << i;
  }
  EXPECT_TRUE(v.CheckInvariants().ok());
  options.group_size = 4097;
  EXPECT_DEATH(CompactCounterVector(10, options), "1..4096");
  options.group_size = 0;
  EXPECT_DEATH(CompactCounterVector(10, options), "1..4096");
}

// --- serial-scan specifics ------------------------------------------------------

TEST(SerialScanTest, EncodedBitsReflectValues) {
  SerialScanCounterVector v(100);
  const size_t empty_bits = v.EncodedBits();
  // Counters of zero cost 1 bit each with the {0,0} steps code.
  EXPECT_EQ(empty_bits, 100u);
  v.Set(0, 1);  // code(2) = '10' -> 2 bits
  EXPECT_EQ(v.EncodedBits(), 101u);
}

TEST(SerialScanTest, RebuildOnOverflow) {
  SerialScanCounterVector::Options options;
  options.group_size = 4;
  options.slack_per_counter = 0.1;
  SerialScanCounterVector v(16, options);
  for (size_t i = 0; i < 16; ++i) v.Set(i, 1ull << 40);
  for (size_t i = 0; i < 16; ++i) ASSERT_EQ(v.Get(i), 1ull << 40);
}

TEST(SerialScanTest, AlternativeStepConfig) {
  SerialScanCounterVector::Options options;
  options.step_widths = {2, 3};
  SerialScanCounterVector v(50, options);
  for (size_t i = 0; i < 50; ++i) v.Set(i, i);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(v.Get(i), i);
}

// --- cross-backing equivalence ---------------------------------------------------

// --- saturation governance --------------------------------------------------

TEST_P(CounterBackingTest, DecrementBelowZeroClampsAndTallies) {
  // Regression: over-deleting used to abort; it must clamp at zero, tally
  // the event, and leave the vector fully usable.
  auto v = Make(16);
  v->Decrement(3, 5);
  EXPECT_EQ(v->Get(3), 0u);
  v->Increment(3, 2);
  v->Decrement(3, 10);
  EXPECT_EQ(v->Get(3), 0u);
  EXPECT_EQ(v->saturation().underflow_clamps, 2u);
  EXPECT_EQ(v->saturation().saturation_clamps, 0u);
  v->Increment(3, 7);
  EXPECT_EQ(v->Get(3), 7u);
}

TEST_P(CounterBackingTest, IncrementPastMaxClampsAndTallies) {
  auto v = Make(8);
  const uint64_t max = v->MaxValue();
  v->Set(0, max);
  EXPECT_EQ(v->Get(0), max);
  v->Increment(0, 1);  // would wrap past the backing's range
  EXPECT_EQ(v->Get(0), max);
  EXPECT_GE(v->saturation().saturation_clamps, 1u);
  // A clamped counter still reads max — never less (one-sided).
  v->Increment(0, 12345);
  EXPECT_EQ(v->Get(0), max);
}

TEST_P(CounterBackingTest, ScanOccupancyCountsNonzeroAndSaturated) {
  auto v = Make(600);  // spans multiple DecodeBlock chunks
  v->Increment(1, 3);
  v->Increment(599, 1);
  v->Set(300, v->MaxValue());
  const OccupancyCounts counts = v->ScanOccupancy();
  EXPECT_EQ(counts.nonzero, 3u);
  EXPECT_EQ(counts.saturated, 1u);
}

TEST(FixedWidthTest, SetPastMaxClampsInsteadOfAborting) {
  // Regression: Set used to SBF_CHECK on out-of-range values, an abort
  // reachable from public inputs (narrow widths under Minimal Increase
  // lifts). It now clamps and tallies.
  FixedWidthCounterVector v(8, 4);
  v.Set(2, 100);
  EXPECT_EQ(v.Get(2), 15u);
  EXPECT_EQ(v.saturation().saturation_clamps, 1u);
}

TEST(FixedWidthTest, CloneCarriesSaturationStats) {
  FixedWidthCounterVector v(8, 4);
  v.Increment(0, 100);
  v.Decrement(1, 1);
  auto clone = v.Clone();
  EXPECT_EQ(clone->saturation().saturation_clamps, 1u);
  EXPECT_EQ(clone->saturation().underflow_clamps, 1u);
}

TEST(CrossBackingTest, AllBackingsAgreeUnderIdenticalOps) {
  constexpr size_t kM = 128;
  std::vector<std::unique_ptr<CounterVector>> vectors;
  vectors.push_back(MakeCounterVector(CounterBacking::kFixed64, kM));
  vectors.push_back(MakeCounterVector(CounterBacking::kFixed32, kM));
  vectors.push_back(MakeCounterVector(CounterBacking::kCompact, kM));
  vectors.push_back(MakeCounterVector(CounterBacking::kSerialScan, kM));

  Xoshiro256 rng(123);
  for (int iter = 0; iter < 5000; ++iter) {
    const size_t i = rng.UniformInt(kM);
    const uint64_t d = rng.UniformInt(5) + 1;
    for (auto& v : vectors) v->Increment(i, d);
  }
  for (size_t i = 0; i < kM; ++i) {
    const uint64_t expected = vectors[0]->Get(i);
    for (auto& v : vectors) {
      ASSERT_EQ(v->Get(i), expected) << v->Name() << " at " << i;
    }
  }
}

// --- huge-page storage ------------------------------------------------------

// A 16 MiB fixed64 vector (its storage takes util/aligned_alloc.h's
// huge-page branch) filled with random counters survives Clone() and an
// 'SBfx' round trip.
bool HugeFixedVectorRoundTrips() {
  constexpr size_t kM = size_t{1} << 21;  // 2^21 x 8 bytes = 16 MiB
  FixedWidthCounterVector v(kM, 64);
  Xoshiro256 rng(77);
  for (size_t i = 0; i < kM; i += 1 + rng.UniformInt(7)) v.Set(i, rng.Next());
  const auto clone = v.Clone();
  auto loaded = DeserializeCounterVector(v.Serialize());
  if (!loaded.ok() || loaded.value()->size() != kM) return false;
  const CounterVector& back = *loaded.value();
  for (size_t i = 0; i < kM; ++i) {
    if (clone->Get(i) != v.Get(i) || back.Get(i) != v.Get(i)) return false;
  }
  return true;
}

TEST(HugePageStorageTest, SixteenMiBFixedVectorRoundTrips) {
  EXPECT_TRUE(HugeFixedVectorRoundTrips());
}

// Correctness never depends on THP: with THP disabled for the (child)
// process, the same round trip gives the same contents.
TEST(HugePageStorageTest, RoundTripsWithThpDisabled) {
#if defined(PR_SET_THP_DISABLE)
  EXPECT_EXIT(
      {
        if (::prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0) std::_Exit(2);
        std::_Exit(HugeFixedVectorRoundTrips() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
#else
  GTEST_SKIP() << "PR_SET_THP_DISABLE is Linux-only";
#endif
}

}  // namespace
}  // namespace sbf
