// Differential suite for the decoded-view layer: DecodeView, DecodeBlock
// and EncodeBlock must be exactly equivalent to loops of the scalar
// Get/Set ops — for every backing, across group boundaries, after
// rebuilds and widenings, and under duplicate-heavy access streams. Each
// concrete backing's overrides are exercised here by name; the lint rule
// `decode-view-differential` (scripts/sbf_lint.py) requires that coverage.
//
// Covered overrides:
//   FixedWidthCounterVector   — DecodeBlock / EncodeBlock
//   CompactCounterVector      — DecodeBlock / EncodeBlock
//   SerialScanCounterVector   — DecodeBlock / EncodeBlock

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sai/compact_counter_vector.h"
#include "sai/counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/random.h"

namespace sbf {
namespace {

// Every backing configuration the decoded-view layer must serve, including
// group sizes that do not divide DecodeView::kSpanCounters (so cached spans
// straddle group boundaries) and ones larger than a span.
struct BackingCase {
  const char* name;
  std::unique_ptr<CounterVector> (*make)(size_t m);
};

template <size_t kGroup>
std::unique_ptr<CounterVector> MakeCompact(size_t m) {
  CompactCounterVector::Options opt;
  opt.group_size = kGroup;
  return std::make_unique<CompactCounterVector>(m, opt);
}

template <size_t kGroup>
std::unique_ptr<CounterVector> MakeSerialScan(size_t m) {
  SerialScanCounterVector::Options opt;
  opt.group_size = kGroup;
  return std::make_unique<SerialScanCounterVector>(m, opt);
}

template <uint32_t kWidth>
std::unique_ptr<CounterVector> MakeFixed(size_t m) {
  return std::make_unique<FixedWidthCounterVector>(m, kWidth);
}

const BackingCase kBackings[] = {
    {"fixed64", MakeFixed<64>},
    {"fixed32", MakeFixed<32>},
    {"fixed4", MakeFixed<4>},  // narrow: clamps are reachable
    {"compact_g1", MakeCompact<1>},
    {"compact_g4", MakeCompact<4>},
    {"compact_g8", MakeCompact<8>},
    {"compact_g16", MakeCompact<16>},
    {"compact_g32", MakeCompact<32>},
    {"compact_g64", MakeCompact<64>},
    {"serial_g1", MakeSerialScan<1>},
    {"serial_g4", MakeSerialScan<4>},
    {"serial_g16", MakeSerialScan<16>},
    {"serial_g64", MakeSerialScan<64>},
};

class DecodeViewBackingTest : public ::testing::TestWithParam<BackingCase> {};

// Clamp `value` the way the backing's Set does, for building expectations.
uint64_t ClampTo(const CounterVector& cv, uint64_t value) {
  return std::min(value, cv.MaxValue());
}

// Seeds `cv` and a parallel reference model with a value mix that forces
// widening in the grouped backings (widths 1..17 bits) while staying well
// inside even the 4-bit fixed range for small indices.
std::vector<uint64_t> SeedMixedValues(CounterVector& cv, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> model(cv.size(), 0);
  for (size_t i = 0; i < cv.size(); ++i) {
    uint64_t v = 0;
    switch (rng.UniformInt(4)) {
      case 0: v = 0; break;
      case 1: v = rng.UniformInt(3); break;
      case 2: v = rng.UniformInt(100); break;
      default: v = rng.UniformInt(100000); break;
    }
    const uint64_t clamped = ClampTo(cv, v);
    cv.Set(i, clamped);
    model[i] = clamped;
  }
  return model;
}

// --- DecodeBlock over index streams ----------------------------------------

// Decodes a short range starting at each index of `idx`, in stream order,
// and checks every decoded counter against the model: the access shape of
// a probe stream, where consecutive starts may repeat, go backwards or
// land in the middle of a group.
void CheckDecodeBlockStream(const CounterVector& cv,
                            const std::vector<uint64_t>& model,
                            const std::vector<uint64_t>& idx, Xoshiro256& rng,
                            const char* label) {
  uint64_t got[17];
  for (size_t j = 0; j < idx.size(); ++j) {
    const size_t first = static_cast<size_t>(idx[j]);
    const size_t len = std::min<size_t>(1 + rng.UniformInt(17),
                                        cv.size() - first);
    std::fill(got, got + 17, ~0ull);
    cv.DecodeBlock(first, len, got);
    for (size_t t = 0; t < len; ++t) {
      ASSERT_EQ(got[t], model[first + t])
          << label << " range [" << first << ", +" << len << ") pos " << j;
    }
  }
}

TEST_P(DecodeViewBackingTest, GetManyMatchesScalarGetSortedAndUnsorted) {
  constexpr size_t kM = 517;  // not a multiple of any group size
  auto cv = GetParam().make(kM);
  auto model = SeedMixedValues(*cv, 11);
  Xoshiro256 rng(12);

  for (int round = 0; round < 40; ++round) {
    const size_t n = 1 + rng.UniformInt(300);
    std::vector<uint64_t> idx(n);
    for (auto& i : idx) i = rng.UniformInt(kM);
    if (round % 2 == 0) std::sort(idx.begin(), idx.end());
    CheckDecodeBlockStream(*cv, model, idx, rng, GetParam().name);
  }
}

TEST_P(DecodeViewBackingTest, GetManyDuplicateHeavyStream) {
  constexpr size_t kM = 200;
  auto cv = GetParam().make(kM);
  auto model = SeedMixedValues(*cv, 21);
  Xoshiro256 rng(22);

  // A handful of hot indices repeated many times, interleaved with strays —
  // the shape a skewed key stream hands the batch kernels.
  std::vector<uint64_t> idx;
  uint64_t hot[4] = {rng.UniformInt(kM), rng.UniformInt(kM),
                     rng.UniformInt(kM), rng.UniformInt(kM)};
  for (int j = 0; j < 500; ++j) {
    idx.push_back(j % 5 == 0 ? rng.UniformInt(kM) : hot[j % 4]);
  }
  CheckDecodeBlockStream(*cv, model, idx, rng, GetParam().name);
}

// --- DecodeBlock -----------------------------------------------------------

TEST_P(DecodeViewBackingTest, DecodeBlockMatchesScalarAcrossGroupBoundaries) {
  constexpr size_t kM = 300;
  auto cv = GetParam().make(kM);
  auto model = SeedMixedValues(*cv, 31);

  // Every (start, length) around every multiple of the small group sizes,
  // plus full-vector and single-counter ranges.
  std::vector<std::pair<size_t, size_t>> ranges = {{0, kM}, {0, 1},
                                                   {kM - 1, 1}};
  for (size_t b = 0; b < kM; b += 16) {
    for (size_t off : {size_t{0}, size_t{1}, size_t{15}}) {
      const size_t first = std::min(b + off, kM - 1);
      for (size_t len : {size_t{1}, size_t{3}, size_t{17}, size_t{33}}) {
        ranges.emplace_back(first, std::min(len, kM - first));
      }
    }
  }
  std::vector<uint64_t> got(kM, ~0ull);
  for (const auto& [first, len] : ranges) {
    std::fill(got.begin(), got.end(), ~0ull);
    cv->DecodeBlock(first, len, got.data());
    for (size_t j = 0; j < len; ++j) {
      ASSERT_EQ(got[j], model[first + j])
          << GetParam().name << " range [" << first << ", +" << len << ")";
    }
  }
}

// --- EncodeBlock -----------------------------------------------------------

TEST_P(DecodeViewBackingTest, EncodeBlockMatchesScalarSetsWithWidening) {
  constexpr size_t kM = 300;
  auto cv = GetParam().make(kM);
  auto ref = GetParam().make(kM);
  SeedMixedValues(*cv, 41);
  SeedMixedValues(*ref, 41);
  Xoshiro256 rng(42);

  for (int round = 0; round < 30; ++round) {
    const size_t first = rng.UniformInt(kM);
    const size_t len = 1 + rng.UniformInt(kM - first);
    std::vector<uint64_t> values(len);
    for (auto& v : values) {
      // Escalating magnitudes force widening (and, for compact, pushes and
      // rebuilds) mid-pass.
      v = rng.UniformInt(uint64_t{1} << (1 + rng.UniformInt(20)));
    }
    cv->EncodeBlock(first, len, values.data());
    for (size_t j = 0; j < len; ++j) ref->Set(first + j, values[j]);
    for (size_t i = 0; i < kM; ++i) {
      ASSERT_EQ(cv->Get(i), ref->Get(i))
          << GetParam().name << " counter " << i << " round " << round;
    }
    ASSERT_EQ(cv->saturation().saturation_clamps,
              ref->saturation().saturation_clamps)
        << GetParam().name << " round " << round;
  }
  EXPECT_TRUE(cv->CheckInvariants().ok());
}

// --- DecodeView ------------------------------------------------------------

TEST_P(DecodeViewBackingTest, ReadOnlyViewMatchesScalarGet) {
  constexpr size_t kM = 400;
  auto cv = GetParam().make(kM);
  auto model = SeedMixedValues(*cv, 51);
  Xoshiro256 rng(52);

  const CounterVector& ccv = *cv;
  DecodeView view(ccv);
  // Random access pattern with enough spread to force span evictions
  // (> kWays * kSpanCounters distinct counters).
  for (int j = 0; j < 5000; ++j) {
    const size_t i = rng.UniformInt(kM);
    ASSERT_EQ(view.Get(i), model[i]) << GetParam().name << " counter " << i;
  }
  EXPECT_GT(view.decode_count(), 0u);
}

TEST_P(DecodeViewBackingTest, WritableViewMatchesScalarOpSequence) {
  constexpr size_t kM = 400;
  auto cv = GetParam().make(kM);
  auto ref = GetParam().make(kM);
  SeedMixedValues(*cv, 61);
  SeedMixedValues(*ref, 61);
  Xoshiro256 rng(62);

  {
    DecodeView view(*cv);
    for (int j = 0; j < 8000; ++j) {
      const size_t i = rng.UniformInt(kM);
      const uint64_t d = 1 + rng.UniformInt(1000);
      switch (rng.UniformInt(4)) {
        case 0:
          view.Increment(i, d);
          ref->Increment(i, d);
          break;
        case 1:
          view.Decrement(i, d);
          ref->Decrement(i, d);
          break;
        case 2:
          view.Set(i, d * 37);
          ref->Set(i, d * 37);
          break;
        default:
          ASSERT_EQ(view.Get(i), ref->Get(i))
              << GetParam().name << " mid-sequence counter " << i;
      }
    }
  }  // destructor flushes

  for (size_t i = 0; i < kM; ++i) {
    ASSERT_EQ(cv->Get(i), ref->Get(i)) << GetParam().name << " counter " << i;
  }
  ASSERT_EQ(cv->saturation().saturation_clamps,
            ref->saturation().saturation_clamps);
  ASSERT_EQ(cv->saturation().underflow_clamps,
            ref->saturation().underflow_clamps);
  EXPECT_TRUE(cv->CheckInvariants().ok());
}

TEST_P(DecodeViewBackingTest, ViewSurvivesInterleavedFlushes) {
  constexpr size_t kM = 256;
  auto cv = GetParam().make(kM);
  auto ref = GetParam().make(kM);
  Xoshiro256 rng(71);

  DecodeView view(*cv);
  for (int j = 0; j < 2000; ++j) {
    const size_t i = rng.UniformInt(kM);
    const uint64_t d = 1 + rng.UniformInt(50);
    view.Increment(i, d);
    ref->Increment(i, d);
  }
  view.Flush();
  // After Flush the backing is current even though the view stays open.
  for (size_t i = 0; i < kM; ++i) {
    ASSERT_EQ(cv->Get(i), ref->Get(i)) << GetParam().name << " " << i;
  }
  // The view remains usable after Flush.
  view.Increment(0, 5);
  ref->Increment(0, 5);
  view.Flush();
  EXPECT_EQ(cv->Get(0), ref->Get(0));
}

INSTANTIATE_TEST_SUITE_P(AllBackings, DecodeViewBackingTest,
                         ::testing::ValuesIn(kBackings),
                         [](const auto& param_info) {
                           return param_info.param.name;
                         });

// --- grouped-backing lifecycle: rebuild and widening -----------------------

TEST(DecodeViewCompactTest, DifferentialHoldsAfterForcedRebuild) {
  constexpr size_t kM = 333;
  CompactCounterVector::Options opt;
  opt.group_size = 16;
  CompactCounterVector cv(kM, opt);
  auto model = SeedMixedValues(cv, 81);

  cv.ForceRebuild();
  ASSERT_GE(cv.rebuild_count(), 1u);

  std::vector<uint64_t> got(kM);
  for (size_t i = kM; i-- > 0;) {  // reverse order, one counter at a time
    cv.DecodeBlock(i, 1, got.data());
    ASSERT_EQ(got[0], model[i]);
  }

  cv.DecodeBlock(0, kM, got.data());
  for (size_t i = 0; i < kM; ++i) ASSERT_EQ(got[i], model[i]);
  EXPECT_TRUE(cv.CheckInvariants().ok());
}

TEST(DecodeViewCompactTest, DifferentialHoldsAcrossWideningStream) {
  // Repeated doubling widens counters step by step, exercising the in-group
  // shift, push-to-slack and rebuild paths between differential checks.
  constexpr size_t kM = 128;
  CompactCounterVector::Options opt;
  opt.group_size = 8;
  CompactCounterVector cv(kM, opt);
  std::vector<uint64_t> model(kM, 0);
  Xoshiro256 rng(91);

  for (int round = 0; round < 24; ++round) {
    for (int j = 0; j < 64; ++j) {
      const size_t i = rng.UniformInt(kM);
      const uint64_t d =
          uint64_t{1} << rng.UniformInt(static_cast<uint64_t>(round) / 2 + 1);
      cv.Increment(i, d);
      model[i] += d;
    }
    std::vector<uint64_t> got(kM);
    cv.DecodeBlock(0, kM, got.data());
    for (size_t i = 0; i < kM; ++i) {
      ASSERT_EQ(got[i], model[i]) << "round " << round << " counter " << i;
    }
    ASSERT_TRUE(cv.CheckInvariants().ok()) << "round " << round;
  }
}

TEST(DecodeViewSerialScanTest, DifferentialHoldsAcrossWideningStream) {
  constexpr size_t kM = 96;
  SerialScanCounterVector::Options opt;
  opt.group_size = 12;
  SerialScanCounterVector cv(kM, opt);
  std::vector<uint64_t> model(kM, 0);
  Xoshiro256 rng(101);

  for (int round = 0; round < 16; ++round) {
    std::vector<uint64_t> values(kM);
    for (size_t i = 0; i < kM; ++i) {
      values[i] = model[i] + rng.UniformInt(uint64_t{1} << (round + 1));
    }
    cv.EncodeBlock(0, kM, values.data());
    model = values;
    std::vector<uint64_t> got(kM);
    cv.DecodeBlock(0, 0, got.data());  // n = 0 is a no-op
    cv.DecodeBlock(0, kM, got.data());
    for (size_t i = 0; i < kM; ++i) {
      ASSERT_EQ(got[i], model[i]) << "round " << round << " counter " << i;
    }
    ASSERT_TRUE(cv.CheckInvariants().ok()) << "round " << round;
  }
}

// --- write-gating ----------------------------------------------------------

TEST(DecodeViewGatingTest, StickyFixedVectorRejectsWritableViews) {
  FixedWidthCounterVector sticky(64, 4, /*sticky_saturation=*/true);
  EXPECT_FALSE(sticky.SupportsDecodedWrites());
  EXPECT_DEATH({ DecodeView view(sticky); }, "cannot be buffered");

  // Read-only views are fine on a sticky vector.
  const FixedWidthCounterVector& ccv = sticky;
  DecodeView view(ccv);
  EXPECT_EQ(view.Get(0), 0u);
}

TEST(DecodeViewGatingTest, NonStickyBackingsSupportDecodedWrites) {
  EXPECT_TRUE(FixedWidthCounterVector(8, 64).SupportsDecodedWrites());
  EXPECT_TRUE(CompactCounterVector(8).SupportsDecodedWrites());
  EXPECT_TRUE(SerialScanCounterVector(8).SupportsDecodedWrites());
}

// --- saturation-tally equivalence on a narrow backing ----------------------

TEST(DecodeViewSaturationTest, ViewTalliesClampsLikeScalarOps) {
  FixedWidthCounterVector cv(32, 4);  // max value 15
  FixedWidthCounterVector ref(32, 4);
  {
    DecodeView view(cv);
    for (size_t i = 0; i < 32; ++i) {
      view.Increment(i, 10);
      ref.Increment(i, 10);
      view.Increment(i, 10);  // clamps at 15
      ref.Increment(i, 10);
      view.Decrement(i, 20);  // clamps at 0
      ref.Decrement(i, 20);
      view.Set(i, 99);  // clamps at 15
      ref.Set(i, 99);
    }
  }
  EXPECT_EQ(cv.saturation().saturation_clamps,
            ref.saturation().saturation_clamps);
  EXPECT_EQ(cv.saturation().underflow_clamps,
            ref.saturation().underflow_clamps);
  for (size_t i = 0; i < 32; ++i) EXPECT_EQ(cv.Get(i), ref.Get(i));
}

}  // namespace
}  // namespace sbf
