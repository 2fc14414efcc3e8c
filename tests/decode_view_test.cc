// Differential suite for the grouped read and write paths: every
// backing's DecodeBlock, and the serial-scan bulk add
// (SerialScanCounterVector::AddMany) that SpectralBloomFilter::Apply
// applies a drained epoch through, must be exactly
// equivalent to loops of the scalar Get/Increment ops — for every backing,
// across group boundaries, after rebuilds, slack borrows and widenings,
// and under duplicate-heavy access streams. Each concrete backing is
// exercised here by name; the lint rule `decode-view-differential`
// (scripts/sbf_lint.py) requires that coverage.
//
// Covered implementations:
//   FixedWidthCounterVector   — DecodeBlock
//   CompactCounterVector      — DecodeBlock
//   SerialScanCounterVector   — DecodeBlock / AddMany

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/steps_code.h"
#include "core/spectral_bloom_filter.h"
#include "sai/compact_counter_vector.h"
#include "sai/counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/random.h"

namespace sbf {
namespace {

// Every backing configuration the grouped paths must serve, including
// group sizes that do not divide the decode ranges below (so ranges
// straddle group boundaries) and ones larger than a range.
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

// The SbfOptions backing of a case's kind, for the epoch-apply checks
// (none for fixed4, which no filter offers).
std::optional<CounterBacking> FilterBackingOf(const BackingCase& c) {
  const std::string name = c.name;
  if (name == "fixed64") return CounterBacking::kFixed64;
  if (name == "fixed32") return CounterBacking::kFixed32;
  if (name.starts_with("compact")) return CounterBacking::kCompact;
  if (name.starts_with("serial")) return CounterBacking::kSerialScan;
  return std::nullopt;
}

class DecodeViewBackingTest : public ::testing::TestWithParam<BackingCase> {};

using Adds = std::vector<std::pair<uint64_t, uint64_t>>;  // (position, count)

// Applies `adds` the way SpectralBloomFilter::Apply applies a drained
// epoch's probes: through AddMany on serial-scan, one Increment per probe
// on every other backing.
void BulkAdd(CounterVector& cv, const Adds& adds) {
  if (auto* serial = dynamic_cast<SerialScanCounterVector*>(&cv)) {
    serial->AddMany(adds);
    return;
  }
  for (const auto& [pos, count] : adds) cv.Increment(pos, count);
}

// The reference: one scalar Increment per add, in order.
void ScalarAdd(CounterVector& cv, const Adds& adds) {
  for (const auto& [pos, count] : adds) cv.Increment(pos, count);
}

// Every counter, both clamp tallies and the layout invariants agree.
void ExpectSameCounters(const CounterVector& got, const CounterVector& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.Get(i), want.Get(i)) << label << " counter " << i;
  }
  EXPECT_EQ(got.saturation().saturation_clamps,
            want.saturation().saturation_clamps)
      << label;
  EXPECT_EQ(got.saturation().underflow_clamps,
            want.saturation().underflow_clamps)
      << label;
  EXPECT_TRUE(got.CheckInvariants().ok()) << label;
}

// `n` adds over [0, m): a few hot positions repeated (so one counter sees
// several adds in one batch) among uniform strays, counts of mixed
// magnitude so the grouped backings widen mid-batch.
Adds RandomAdds(Xoshiro256& rng, size_t m, size_t n) {
  const uint64_t hot[3] = {rng.UniformInt(m), rng.UniformInt(m),
                           rng.UniformInt(m)};
  Adds adds(n);
  for (auto& [pos, count] : adds) {
    pos = rng.UniformInt(4) == 0 ? hot[rng.UniformInt(3)] : rng.UniformInt(m);
    count = 1 + rng.UniformInt(uint64_t{1} << (1 + rng.UniformInt(20)));
  }
  return adds;
}

SbfOptions FilterOptions(CounterBacking backing, SbfPolicy policy) {
  SbfOptions options;
  options.m = 600;
  options.k = 4;
  options.seed = 5;
  options.backing = backing;
  options.policy = policy;
  return options;
}

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

// --- bulk add -------------------------------------------------------------
//
// The write cases keep their decoded-view names. Each applies batches of
// (position, count) adds through BulkAdd — AddMany on the serial-scan
// params, one Increment per add on the others — against a
// twin driven by one scalar Increment per add.

TEST_P(DecodeViewBackingTest, EncodeBlockMatchesScalarSetsWithWidening) {
  constexpr size_t kM = 300;
  auto cv = GetParam().make(kM);
  auto ref = GetParam().make(kM);
  SeedMixedValues(*cv, 41);
  SeedMixedValues(*ref, 41);
  Xoshiro256 rng(42);

  for (int round = 0; round < 30; ++round) {
    // One add per counter of a random range, in shuffled order, plus
    // repeats: escalating magnitudes force widening (and, for the grouped
    // backings, borrows and rebuilds) mid-batch.
    const size_t first = rng.UniformInt(kM);
    const size_t len = 1 + rng.UniformInt(kM - first);
    Adds adds;
    for (size_t j = 0; j < len; ++j) {
      adds.emplace_back(first + j,
                        rng.UniformInt(uint64_t{1} << (1 + rng.UniformInt(20))));
    }
    for (size_t j = len; j-- > 1;) {
      std::swap(adds[j], adds[rng.UniformInt(j + 1)]);
    }
    for (size_t j = 0; j < len / 4; ++j) adds.push_back(adds[j]);
    BulkAdd(*cv, adds);
    ScalarAdd(*ref, adds);
    ASSERT_NO_FATAL_FAILURE(ExpectSameCounters(
        *cv, *ref,
        std::string(GetParam().name) + " round " + std::to_string(round)));
  }
}

// --- DecodeBlock against Get ---------------------------------------------

TEST_P(DecodeViewBackingTest, ReadOnlyViewMatchesScalarGet) {
  constexpr size_t kM = 400;
  auto cv = GetParam().make(kM);
  SeedMixedValues(*cv, 51);
  Xoshiro256 rng(52);

  // Random ranges of up to 64 counters at random starts: every decoded
  // counter must equal the backing's own scalar Get.
  uint64_t got[64];
  for (int j = 0; j < 1500; ++j) {
    const size_t first = rng.UniformInt(kM);
    const size_t len = std::min<size_t>(1 + rng.UniformInt(64), kM - first);
    cv->DecodeBlock(first, len, got);
    for (size_t t = 0; t < len; ++t) {
      ASSERT_EQ(got[t], cv->Get(first + t))
          << GetParam().name << " range [" << first << ", +" << len << ")";
    }
  }
}

TEST_P(DecodeViewBackingTest, WritableViewMatchesScalarOpSequence) {
  constexpr size_t kM = 400;
  auto cv = GetParam().make(kM);
  auto ref = GetParam().make(kM);
  SeedMixedValues(*cv, 61);
  SeedMixedValues(*ref, 61);
  Xoshiro256 rng(62);

  // Bulk batches interleaved with scalar decrements, sets and reads on
  // both vectors, so every batch lands on a layout the scalar ops (and
  // earlier batches) reshaped.
  for (int round = 0; round < 40; ++round) {
    const Adds adds = RandomAdds(rng, kM, 1 + rng.UniformInt(300));
    BulkAdd(*cv, adds);
    ScalarAdd(*ref, adds);
    for (int j = 0; j < 20; ++j) {
      const size_t i = rng.UniformInt(kM);
      const uint64_t d = 1 + rng.UniformInt(1000);
      switch (rng.UniformInt(3)) {
        case 0:
          cv->Decrement(i, d);
          ref->Decrement(i, d);
          break;
        case 1:
          cv->Set(i, d * 37);
          ref->Set(i, d * 37);
          break;
        default:
          ASSERT_EQ(cv->Get(i), ref->Get(i))
              << GetParam().name << " mid-sequence counter " << i;
      }
    }
  }
  ExpectSameCounters(*cv, *ref, GetParam().name);
}

TEST_P(DecodeViewBackingTest, ViewSurvivesInterleavedFlushes) {
  constexpr size_t kM = 256;
  auto cv = GetParam().make(kM);
  auto ref = GetParam().make(kM);
  Xoshiro256 rng(71);

  // Bulk batches between direct scalar increments: the backing is current
  // after every batch, with no flush step.
  for (int round = 0; round < 20; ++round) {
    const Adds adds = RandomAdds(rng, kM, 1 + rng.UniformInt(200));
    BulkAdd(*cv, adds);
    ScalarAdd(*ref, adds);
    const size_t i = rng.UniformInt(kM);
    cv->Increment(i, 5);
    ref->Increment(i, 5);
    ASSERT_NO_FATAL_FAILURE(ExpectSameCounters(*cv, *ref, GetParam().name));
  }

  // The filter level: Apply epochs between scalar Insert, Remove
  // and Estimate on a filter of this kind leave the state (serialized
  // bytes) and the clamp tallies of an Insert-only twin, under both
  // policies.
  const std::optional<CounterBacking> backing = FilterBackingOf(GetParam());
  if (!backing.has_value()) return;
  for (const auto policy :
       {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
    SpectralBloomFilter batch(FilterOptions(*backing, policy));
    SpectralBloomFilter scalar(FilterOptions(*backing, policy));
    for (int round = 0; round < 10; ++round) {
      const size_t n = 1 + rng.UniformInt(400);
      std::vector<uint64_t> keys(n), counts(n);
      for (size_t e = 0; e < n; ++e) {
        keys[e] = rng.UniformInt(300);  // repeats within the epoch
        counts[e] = 1 + rng.UniformInt(1000);
        scalar.Insert(keys[e], counts[e]);
      }
      batch.Apply({keys.data(), n, 0, false, counts.data()});
      const uint64_t key = rng.UniformInt(300);
      batch.Insert(key, 3);
      scalar.Insert(key, 3);
      batch.Remove(key);
      scalar.Remove(key);
      ASSERT_EQ(batch.Estimate(key), scalar.Estimate(key))
          << GetParam().name << " round " << round;
    }
    EXPECT_EQ(batch.Serialize(), scalar.Serialize()) << GetParam().name;
    EXPECT_EQ(batch.counters().saturation().saturation_clamps,
              scalar.counters().saturation().saturation_clamps);
  }
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
    ASSERT_EQ(got[0], cv.Get(i));
    ASSERT_EQ(got[0], model[i]);
  }

  cv.DecodeBlock(0, kM, got.data());
  for (size_t i = 0; i < kM; ++i) ASSERT_EQ(got[i], cv.Get(i));
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
      ASSERT_EQ(got[i], cv.Get(i)) << "round " << round << " counter " << i;
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

  // Every round raises every counter by up to 2^(round+1) in one AddMany,
  // so codewords widen round by round through borrows and rebuilds.
  for (int round = 0; round < 16; ++round) {
    Adds adds;
    for (size_t i = 0; i < kM; ++i) {
      const uint64_t d = rng.UniformInt(uint64_t{1} << (round + 1));
      adds.emplace_back(i, d);
      model[i] += d;
    }
    cv.AddMany(adds);
    std::vector<uint64_t> got(kM);
    cv.DecodeBlock(0, 0, got.data());  // n = 0 is a no-op
    cv.DecodeBlock(0, kM, got.data());
    for (size_t i = 0; i < kM; ++i) {
      ASSERT_EQ(got[i], model[i]) << "round " << round << " counter " << i;
    }
    ASSERT_TRUE(cv.CheckInvariants().ok()) << "round " << round;
  }
  cv.AddMany({});  // an empty batch is a no-op
  EXPECT_EQ(cv.Get(kM - 1), model[kM - 1]);
}

// Group 3 of eight outgrows its region in the middle of a batch that also
// touches groups before and after it: the walk must borrow slack from the
// groups to its right (no rebuild) and then find those groups at their
// shifted offsets.
TEST(DecodeViewSerialScanTest, BulkAddBorrowsSlackMidBatch) {
  constexpr size_t kGroup = 16;
  constexpr size_t kM = 8 * kGroup;
  SerialScanCounterVector cv(kM);
  SerialScanCounterVector ref(kM);
  const size_t region = cv.BaseArrayBits() / 8;  // every group alike

  const uint64_t big = uint64_t{1} << 40;
  const Adds adds = {{70, 9},         {5, 2},           {3 * kGroup + 1, big},
                     {127, 4},        {3 * kGroup + 9, big},
                     {4 * kGroup, 1}, {3 * kGroup + 1, 7},
                     {6 * kGroup + 3, 300}};
  // The premise: group 3's new payload no longer fits its own region.
  const StepsCode code({0, 0});
  size_t group3_bits = 0;
  for (size_t i = 3 * kGroup; i < 4 * kGroup; ++i) {
    uint64_t v = 0;
    for (const auto& [pos, count] : adds) v += pos == i ? count : 0;
    group3_bits += code.Length(v);
  }
  ASSERT_GT(group3_bits, region);

  cv.AddMany(adds);
  ScalarAdd(ref, adds);
  EXPECT_EQ(cv.rebuild_count(), 0u);
  EXPECT_EQ(cv.BaseArrayBits(), 8 * region);
  ExpectSameCounters(cv, ref, "borrow");
}

// Group 1 of four outgrows every bit of slack to its right while adds to
// groups 2 and 3 — a duplicate and a clamp among them — are still
// pending: one Rebuild must carry the group's new values and fold in
// every pending add.
TEST(DecodeViewSerialScanTest, BulkAddRebuildFoldsPendingAdds) {
  constexpr size_t kGroup = 16;
  constexpr size_t kM = 4 * kGroup;
  SerialScanCounterVector cv(kM);
  SerialScanCounterVector ref(kM);
  const uint64_t near_max = ~uint64_t{0} - 3;
  cv.Set(3 * kGroup + 5, near_max);
  ref.Set(3 * kGroup + 5, near_max);
  const size_t rebuilds = cv.rebuild_count();

  Adds adds = {{2, 1}, {2 * kGroup, 6}, {3 * kGroup + 5, 2}};
  for (size_t i = kGroup; i < 2 * kGroup; ++i) {
    adds.emplace_back(i, uint64_t{1} << 50);
  }
  adds.insert(adds.end(), {{2 * kGroup, 1}, {3 * kGroup + 5, 9},
                           {3 * kGroup + 5, 1}, {kM - 1, 12}});
  cv.AddMany(adds);
  ScalarAdd(ref, adds);
  EXPECT_EQ(cv.rebuild_count(), rebuilds + 1);
  EXPECT_EQ(cv.Get(3 * kGroup + 5), ~uint64_t{0});
  EXPECT_EQ(cv.saturation().saturation_clamps, 2u);
  ExpectSameCounters(cv, ref, "rebuild");
}

// Adds straddling the clamp at 2^64 - 1, in orders where the tally
// depends on the order (a small add before or after a clamping one):
// AddMany's stable clustering must reproduce the scalar loop's tallies,
// on both the sorted (sparse) and the counting-sort (dense) route.
TEST(DecodeViewSerialScanTest, BulkAddClampsNearMaxLikeScalarLoop) {
  constexpr uint64_t kMax = ~uint64_t{0};
  for (const size_t m : {size_t{4096}, size_t{40}}) {
    SerialScanCounterVector cv(m);
    SerialScanCounterVector ref(m);
    Adds adds;
    for (size_t i = 0; i < 8; ++i) {
      cv.Set(i * 5, kMax - 10);
      ref.Set(i * 5, kMax - 10);
      adds.emplace_back(i * 5, i % 2 == 0 ? 20 : 4);
      adds.emplace_back(m - 1 - i, kMax - i);
      adds.emplace_back(i * 5, i % 2 == 0 ? 4 : 20);
      adds.emplace_back(i * 5, kMax);
    }
    for (size_t i = 0; i < m; i += m / 8) adds.emplace_back(i, 1);
    // 40 adds: fewer than the 256 groups of m = 4096, more than the 3 of
    // m = 40.
    cv.AddMany(adds);
    ScalarAdd(ref, adds);
    ASSERT_GT(ref.saturation().saturation_clamps, 16u);
    ExpectSameCounters(cv, ref, "m=" + std::to_string(m));
  }
}

// --- sticky saturation -----------------------------------------------------

// A saturated sticky counter ignores decrements (the FCAB98 counting
// filter's rule), which is why a value-level write path can never stand
// in for a sticky vector's scalar ops.
TEST(DecodeViewGatingTest, StickyFixedVectorRejectsWritableViews) {
  FixedWidthCounterVector sticky(64, 4, /*sticky_saturation=*/true);
  sticky.Increment(0, 20);  // clamps at 15 and sticks
  sticky.Increment(1, 9);
  sticky.Decrement(0, 3);
  sticky.Decrement(1, 3);
  sticky.Decrement(0, 100);
  EXPECT_EQ(sticky.Get(0), 15u);
  EXPECT_EQ(sticky.Get(1), 6u);
  EXPECT_EQ(sticky.saturation().saturation_clamps, 1u);
  EXPECT_EQ(sticky.saturation().underflow_clamps, 0u);
}

// Every backing the bulk add serves decrements a saturated counter like
// any other: saturation is a clamp, not a state.
TEST(DecodeViewGatingTest, NonStickyBackingsSupportDecodedWrites) {
  std::vector<std::unique_ptr<CounterVector>> backings;
  backings.push_back(std::make_unique<FixedWidthCounterVector>(8, 4));
  backings.push_back(std::make_unique<FixedWidthCounterVector>(8, 64));
  backings.push_back(std::make_unique<CompactCounterVector>(8));
  backings.push_back(std::make_unique<SerialScanCounterVector>(8));
  for (const auto& cv : backings) {
    cv->Set(3, cv->MaxValue());
    cv->Increment(3, 2);  // clamps
    cv->Decrement(3, 1);
    EXPECT_EQ(cv->Get(3), cv->MaxValue() - 1) << cv->Name();
    EXPECT_EQ(cv->saturation().saturation_clamps, 1u) << cv->Name();
  }
}

// --- saturation-tally equivalence at the filter level ----------------------

// An Apply epoch with counts near 2^64 - 1 on every filter backing: the
// counters saturate mid-epoch, and every counter and both clamp tallies
// must be those of the Insert loop.
TEST(DecodeViewSaturationTest, ViewTalliesClampsLikeScalarOps) {
  constexpr uint64_t kMax = ~uint64_t{0};
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan,
        CounterBacking::kSticky4}) {
    SpectralBloomFilter batch(
        FilterOptions(backing, SbfPolicy::kMinimumSelection));
    SpectralBloomFilter scalar(
        FilterOptions(backing, SbfPolicy::kMinimumSelection));
    const std::vector<uint64_t> keys = {1, 2, 1, 3, 2, 1, 4, 1};
    const std::vector<uint64_t> counts = {kMax - 40, 30, 20,     kMax / 2,
                                          kMax - 1,  5,  kMax, 1};
    for (size_t e = 0; e < keys.size(); ++e) scalar.Insert(keys[e], counts[e]);
    batch.Apply({keys.data(), keys.size(), 0, false, counts.data()});
    const char* name = CounterBackingName(backing);
    ASSERT_GT(scalar.counters().saturation().saturation_clamps, 0u) << name;
    ExpectSameCounters(batch.counters(), scalar.counters(), name);
    EXPECT_EQ(batch.total_items(), scalar.total_items()) << name;
  }
}

}  // namespace
}  // namespace sbf
