#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "core/recurring_minimum.h"
#include "core/spectral_bloom_filter.h"
#include "core/trapping_rm.h"
#include "util/metrics.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

RecurringMinimumOptions MakeOptions(uint64_t primary_m, uint64_t secondary_m,
                                    uint32_t k, uint64_t seed = 1,
                                    bool marker = false) {
  RecurringMinimumOptions options;
  options.primary_m = primary_m;
  options.secondary_m = secondary_m;
  options.k = k;
  options.seed = seed;
  options.use_marker_filter = marker;
  options.backing = CounterBacking::kFixed64;
  return options;
}

class RmMarkerTest : public ::testing::TestWithParam<bool> {};

TEST_P(RmMarkerTest, EstimateIsUpperBound) {
  RecurringMinimumSbf filter(MakeOptions(2000, 1000, 5, 3, GetParam()));
  const Multiset data = MakeZipfMultiset(400, 10000, 0.5, 7);
  for (uint64_t key : data.stream) filter.Insert(key);
  // Late detection of single-minimum events can in rare cases underestimate
  // (the gap Section 3.3.1's trapping refinement targets); the paper's
  // experiments observe no false negatives, so we allow at most a sliver.
  size_t false_negatives = 0;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    if (filter.Estimate(data.keys[i]) < data.freqs[i]) ++false_negatives;
  }
  EXPECT_LE(false_negatives, data.keys.size() / 20);
}

TEST_P(RmMarkerTest, ExactUnderLightLoad) {
  RecurringMinimumSbf filter(MakeOptions(50000, 25000, 5, 5, GetParam()));
  for (uint64_t key = 1; key <= 40; ++key) filter.Insert(key, key * 2);
  for (uint64_t key = 1; key <= 40; ++key) {
    ASSERT_EQ(filter.Estimate(key), key * 2);
  }
}

TEST_P(RmMarkerTest, DeletionsSupportedWithoutFalseNegatives) {
  RecurringMinimumSbf filter(MakeOptions(1500, 750, 5, 9, GetParam()));
  const Multiset data = MakeZipfMultiset(300, 8000, 0.5, 11);
  for (uint64_t key : data.stream) filter.Insert(key);
  // Delete 40% of each key's occurrences.
  std::vector<uint64_t> remaining(data.keys.size());
  for (size_t i = 0; i < data.keys.size(); ++i) {
    const uint64_t cut = data.freqs[i] * 2 / 5;
    filter.Remove(data.keys[i], cut);
    remaining[i] = data.freqs[i] - cut;
  }
  size_t false_negatives = 0;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    if (filter.Estimate(data.keys[i]) < remaining[i]) ++false_negatives;
  }
  EXPECT_LE(false_negatives, data.keys.size() / 20);
}

INSTANTIATE_TEST_SUITE_P(MarkerOnOff, RmMarkerTest, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "WithMarker" : "NoMarker";
                         });

TEST(RecurringMinimumTest, Table1SettingBeatsMinimumSelection) {
  // The Table 1 setting: primary at gamma = 0.7 (n = 1000, k = 5,
  // m = 7143), secondary of half that size. RM's error ratio must come in
  // clearly under the primary-only Minimum Selection error. (Table 1's 18x
  // is the paper's *model* gain, which ignores late-detection inflation;
  // the measured gain in its Figure 6 — and here — is in the 2-3x range.)
  ErrorStats ms_stats, rm_stats;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Multiset data = MakeZipfMultiset(1000, 50000, 0.5, seed * 13);

    SbfOptions ms_options;
    ms_options.m = 7143;
    ms_options.k = 5;
    ms_options.seed = seed * 31;
    ms_options.backing = CounterBacking::kFixed64;
    SpectralBloomFilter ms(ms_options);

    RecurringMinimumOptions rm_options;
    rm_options.primary_m = 7143;
    rm_options.secondary_m = 3571;
    rm_options.k = 5;
    rm_options.seed = seed * 31;
    rm_options.backing = CounterBacking::kFixed64;
    RecurringMinimumSbf rm(rm_options);

    for (uint64_t key : data.stream) {
      ms.Insert(key);
      rm.Insert(key);
    }
    for (size_t i = 0; i < data.keys.size(); ++i) {
      ms_stats.Record(ms.Estimate(data.keys[i]), data.freqs[i]);
      rm_stats.Record(rm.Estimate(data.keys[i]), data.freqs[i]);
    }
  }
  EXPECT_LT(rm_stats.ErrorRatio() * 1.5, ms_stats.ErrorRatio());
  // And no false negatives under insert-only workloads.
  EXPECT_EQ(rm_stats.num_false_negatives(), 0u);
}

TEST(RecurringMinimumTest, EqualTotalBudgetStaysCompetitive) {
  // At the same overall memory (primary 4/5, secondary 1/5) the primary
  // runs at 1.25x the gamma of the equivalent MS filter; RM must claw back
  // most of that handicap — within 3x of MS, and better than its own
  // primary minimum alone. (In our implementation RM does not actually
  // overtake equal-budget MS — see EXPERIMENTS.md; its value is deletion
  // support at near-MS accuracy, unlike MI.)
  const Multiset data = MakeZipfMultiset(1000, 50000, 0.5, 13);
  SbfOptions ms_options;
  ms_options.m = 5000;
  ms_options.k = 5;
  ms_options.seed = 31;
  ms_options.backing = CounterBacking::kFixed64;
  SpectralBloomFilter ms(ms_options);
  RecurringMinimumSbf rm = RecurringMinimumSbf::WithTotalBudget(5000, 5, 31);
  for (uint64_t key : data.stream) {
    ms.Insert(key);
    rm.Insert(key);
  }
  ErrorStats ms_stats, rm_stats, primary_stats;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ms_stats.Record(ms.Estimate(data.keys[i]), data.freqs[i]);
    rm_stats.Record(rm.Estimate(data.keys[i]), data.freqs[i]);
    primary_stats.Record(rm.primary().Estimate(data.keys[i]), data.freqs[i]);
  }
  EXPECT_LT(rm_stats.ErrorRatio(), 3.0 * ms_stats.ErrorRatio());
  EXPECT_LT(rm_stats.ErrorRatio(), primary_stats.ErrorRatio());
}

TEST(RecurringMinimumTest, MovesOnlySingleMinimumItems) {
  RecurringMinimumSbf filter(MakeOptions(4000, 2000, 5, 17));
  // A lone item always has a recurring minimum -> never moved.
  filter.Insert(123, 50);
  EXPECT_EQ(filter.moved_to_secondary(), 0u);
}

TEST(RecurringMinimumTest, SecondaryTracksSuspectedErrors) {
  RecurringMinimumSbf filter(MakeOptions(300, 150, 5, 19));
  const Multiset data = MakeZipfMultiset(400, 8000, 0.5, 23);
  for (uint64_t key : data.stream) filter.Insert(key);
  // At gamma ~ 6.7 many items have single minima; some must move.
  EXPECT_GT(filter.moved_to_secondary(), 0u);
}

TEST(RecurringMinimumTest, WithTotalBudgetSplitsFourToOne) {
  auto filter = RecurringMinimumSbf::WithTotalBudget(1500, 5);
  EXPECT_EQ(filter.primary().m(), 1200u);
  EXPECT_EQ(filter.secondary().m(), 300u);
}

TEST(RecurringMinimumTest, MarkerFilterAddsMemory) {
  RecurringMinimumSbf plain(MakeOptions(1000, 500, 5, 1, false));
  RecurringMinimumSbf marked(MakeOptions(1000, 500, 5, 1, true));
  EXPECT_GT(marked.MemoryUsageBits(), plain.MemoryUsageBits());
  EXPECT_TRUE(marked.marker().has_value());
  EXPECT_FALSE(plain.marker().has_value());
}

TEST(RecurringMinimumTest, UpdateViaRemoveInsert) {
  // Updates = delete + insert (Section 2.2); estimates stay one-sided.
  RecurringMinimumSbf filter(MakeOptions(2000, 1000, 5, 29));
  filter.Insert(7, 10);
  filter.Remove(7, 10);
  filter.Insert(7, 25);
  EXPECT_GE(filter.Estimate(7), 25u);
}

TEST(RecurringMinimumTest, SlidingDeletionStress) {
  RecurringMinimumSbf filter(MakeOptions(1000, 500, 4, 37));
  const Multiset data = MakeZipfMultiset(200, 6000, 1.0, 41);
  std::vector<uint64_t> live(data.keys.size(), 0);
  size_t cursor = 0;
  std::vector<size_t> key_index(1000);
  for (size_t i = 0; i < data.keys.size(); ++i) key_index[data.keys[i]] = i;

  // Insert the stream with a lag-2000 deletion window.
  for (; cursor < data.stream.size(); ++cursor) {
    filter.Insert(data.stream[cursor]);
    ++live[key_index[data.stream[cursor]]];
    if (cursor >= 2000) {
      const uint64_t old = data.stream[cursor - 2000];
      filter.Remove(old);
      --live[key_index[old]];
    }
  }
  size_t false_negatives = 0;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    if (filter.Estimate(data.keys[i]) < live[i]) ++false_negatives;
  }
  // Heavy churn amplifies the late-detection window of the marker-less
  // algorithm; the bound is loose on purpose.
  EXPECT_LE(false_negatives, data.keys.size() / 10);
}

// --- reference digests -----------------------------------------------------
//
// Each row pins FNV-1a-64 of Serialize() and of Estimate(0..399) after a
// seeded script on a crowded filter (primary_m 256, secondary_m 64), where
// items move to the secondary, traps arm and fire, and removes hit moved
// and unmoved keys alike. k = 3 rows hash with kModuloMultiply, k = 5 rows
// with kDoubleMix. The RM rows and the insert-only TRM rows were recorded
// before RM and TRM shared one core, so they prove the merge kept every
// frame byte and every estimate.
//
// On a mismatch the suite prints the row as computed, in table syntax.

uint64_t Fnv(const uint8_t* bytes, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t NextSplitMix(uint64_t& s) {
  uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct DigestRow {
  CounterBacking backing;
  bool marker;  // RM only
  uint32_t k;
  uint64_t frame_fnv;
  uint64_t estimates_fnv;
};

// 900 ops over keys 0..199: inserts of 1-4 occurrences, and with `removes`
// one op in four a remove of 1-3 (of keys that may never have been
// inserted, or not that often).
template <typename Filter>
std::pair<uint64_t, uint64_t> RunDigestScript(const DigestRow& row,
                                              bool removes) {
  RecurringMinimumOptions options;
  options.primary_m = 256;
  options.secondary_m = 64;
  options.k = row.k;
  options.backing = row.backing;
  options.seed = 11 + row.k;
  options.hash_kind = row.k == 3 ? HashFamily::Kind::kModuloMultiply
                                 : HashFamily::Kind::kDoubleMix;
  options.use_marker_filter = row.marker;
  Filter filter(options);
  uint64_t s = static_cast<uint64_t>(row.backing) * 7919 + row.k * 31 +
               (row.marker ? 1 : 0);
  for (int i = 0; i < 900; ++i) {
    const uint64_t r = NextSplitMix(s);
    if (removes && (r >> 62) == 0) {
      filter.Remove(r % 200, 1 + (r >> 32) % 3);
    } else {
      filter.Insert(r % 160, 1 + (r >> 32) % 4);
    }
  }
  std::vector<uint64_t> estimates(400);
  for (uint64_t key = 0; key < estimates.size(); ++key) {
    estimates[key] = filter.Estimate(key);
  }
  const std::vector<uint8_t> frame = filter.Serialize();
  return {Fnv(frame.data(), frame.size()),
          Fnv(reinterpret_cast<const uint8_t*>(estimates.data()),
              estimates.size() * sizeof(uint64_t))};
}

template <typename Filter>
void CheckDigestRows(const std::vector<DigestRow>& rows, bool removes) {
  for (const DigestRow& row : rows) {
    const auto [frame, estimates] = RunDigestScript<Filter>(row, removes);
    EXPECT_EQ(frame, row.frame_fnv);
    EXPECT_EQ(estimates, row.estimates_fnv);
    if (frame != row.frame_fnv || estimates != row.estimates_fnv) {
      constexpr const char* kBackings[] = {"kF64", "kF32", "kCmp", "kSer",
                                           "kS4"};
      std::printf("      {%s, %s, %u, 0x%016llxull, 0x%016llxull},\n",
                  kBackings[static_cast<int>(row.backing)],
                  row.marker ? "true" : "false", row.k,
                  static_cast<unsigned long long>(frame),
                  static_cast<unsigned long long>(estimates));
    }
  }
}

constexpr CounterBacking kF64 = CounterBacking::kFixed64;
constexpr CounterBacking kF32 = CounterBacking::kFixed32;
constexpr CounterBacking kCmp = CounterBacking::kCompact;
constexpr CounterBacking kSer = CounterBacking::kSerialScan;
constexpr CounterBacking kS4 = CounterBacking::kSticky4;

TEST(RmDigestTest, RecurringMinimumMatchesReference) {
  CheckDigestRows<RecurringMinimumSbf>(
      {
          {kF64, false, 3, 0x6f46a5a6b95ca651ull, 0xdb5cd807a020225bull},
          {kF64, false, 5, 0x4cb45f49d0002ddfull, 0x4115f8322b04cf09ull},
          {kF64, true, 3, 0xebed48d6f7a9c2d0ull, 0xdefb7a0bd305edbaull},
          {kF64, true, 5, 0x09eb2fd753f1509bull, 0x02664585673a701aull},
          {kF32, false, 3, 0x18858e6515bab030ull, 0xa93667ee28b7f175ull},
          {kF32, false, 5, 0xf52d182523200749ull, 0x10cbd4ea3cec9155ull},
          {kF32, true, 3, 0x9175d364cecf7456ull, 0x18adaa7f85812cadull},
          {kF32, true, 5, 0x13a5deef009e0a25ull, 0x840db2558c9b1de6ull},
          {kCmp, false, 3, 0x3f5bf26b88a2493dull, 0x621f6074d3b0a47bull},
          {kCmp, false, 5, 0x5c7e9cccf16754d0ull, 0x07068f1e89325c63ull},
          {kCmp, true, 3, 0xa02894e7908d52ffull, 0x5d97d10306b3a27cull},
          {kCmp, true, 5, 0x1e198e99991e1977ull, 0x590ad3e4fd2c32b7ull},
          {kSer, false, 3, 0x9d81d6e7aaaa4edaull, 0x93702bb458a33fbdull},
          {kSer, false, 5, 0x41fb8e016c769d6aull, 0xca3c2aa6e77d72c6ull},
          {kSer, true, 3, 0x527336a1e2ae653cull, 0x7a81966fd5d6e53cull},
          {kSer, true, 5, 0xc389c54c6331ac2bull, 0x34970d24b2713841ull},
          {kS4, false, 3, 0xc33c920244fb3840ull, 0xbdee5b7d5e3e1d2full},
          {kS4, false, 5, 0xf5aa360d4e43753dull, 0x390edee826ca5a44ull},
          {kS4, true, 3, 0xc5e9b8cd1fbe5211ull, 0xe769d7ac76f7452bull},
          {kS4, true, 5, 0xeed829bc811c3eeaull, 0x0db6f9294906b6caull},
      },
      /*removes=*/true);
}

TEST(RmDigestTest, TrappingRmInsertsMatchReference) {
  CheckDigestRows<TrappingRmSbf>(
      {
          {kF64, false, 3, 0xeb67f4e830c7f664ull, 0xaf9f9a61b5715c1dull},
          {kF64, false, 5, 0x4215b3085924c2ffull, 0x2ff367ebba5a9c6aull},
          {kF32, false, 3, 0x4d4db1dff2a8a876ull, 0xe84e325231e2c601ull},
          {kF32, false, 5, 0xdae46d7621d7b29bull, 0xc08b30dd33eb9990ull},
          {kCmp, false, 3, 0x8d44d76a09c4fe98ull, 0x4bd051faee1580ccull},
          {kCmp, false, 5, 0x67a545cd4982c44cull, 0x9d78e42841026a97ull},
          {kSer, false, 3, 0x03bdac7345ec9feeull, 0x47b94c35fd1eb566ull},
          {kSer, false, 5, 0x19a4a5e38ec3176aull, 0xd97db2a677cbf368ull},
          {kS4, false, 3, 0x7b7c437085ebd45bull, 0x35685a17ca550028ull},
          {kS4, false, 5, 0x5b5dd2f105cc40f2ull, 0x2af7e6f562b0d365ull},
      },
      /*removes=*/false);
}

// Recorded after the merge, and not equal to the rows of the separate
// TRM class before it: that class's Remove also took a never-moved key
// (one with a recurring minimum in the primary) out of the secondary,
// eating other items' deposits there. TRM now follows RM's delete rule.
// Every frame differs from the old class's; the estimates differ in all
// rows but serial-scan k = 5 and the two sticky4 rows.
TEST(RmDigestTest, TrappingRmRemovesMatchReference) {
  CheckDigestRows<TrappingRmSbf>(
      {
          {kF64, false, 3, 0xa8ec21ce313034a0ull, 0x4559d52b62997ddaull},
          {kF64, false, 5, 0x183b3b7671b91938ull, 0x61f8fa5a773a1d08ull},
          {kF32, false, 3, 0xbd7453e15557d513ull, 0xe6f6ab81411b47baull},
          {kF32, false, 5, 0x44299b86cb60b2feull, 0x3b615af8d4ce2655ull},
          {kCmp, false, 3, 0x88220d57ed79a8ddull, 0x655cd95902a0a2ffull},
          {kCmp, false, 5, 0x3da6406804ba2189ull, 0x7d7ab4a8899ac925ull},
          {kSer, false, 3, 0x32f8c0e01f430c0dull, 0xc9db4033d60d9f2aull},
          {kSer, false, 5, 0xd0e496fe35a0339eull, 0x27e2a4a56e22f8e4ull},
          {kS4, false, 3, 0x80b01bc21a4d215bull, 0xbdee5b7d5e3e1d2full},
          {kS4, false, 5, 0xbf3f44db03120735ull, 0x390edee826ca5a44ull},
      },
      /*removes=*/true);
}

}  // namespace
}  // namespace sbf
