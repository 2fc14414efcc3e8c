// Differential property suite: independent implementations of the same
// function must agree on random operation sequences. This is the
// strongest guard against silent corruption in the compact storages and
// the filter algebra.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/recurring_minimum.h"
#include "core/spectral_bloom_filter.h"
#include "sai/select_index.h"
#include "sai/string_array_index.h"
#include "util/random.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

// --- SBF backings under adversarial op mixes -------------------------------

struct OpMix {
  uint64_t seed;
  int ops;
  uint64_t key_space;
  int remove_percent;
};

class SbfBackingDifferentialTest : public ::testing::TestWithParam<OpMix> {};

TEST_P(SbfBackingDifferentialTest, AllBackingsAgree) {
  const OpMix mix = GetParam();
  std::vector<SpectralBloomFilter> filters;
  for (CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact,
        CounterBacking::kSerialScan}) {
    SbfOptions options;
    options.m = 700;
    options.k = 5;
    options.seed = 77;
    options.backing = backing;
    filters.emplace_back(options);
  }

  Xoshiro256 rng(mix.seed);
  std::map<uint64_t, uint64_t> live;
  for (int op = 0; op < mix.ops; ++op) {
    const uint64_t key = rng.UniformInt(mix.key_space);
    const bool remove = static_cast<int>(rng.UniformInt(100)) <
                            mix.remove_percent &&
                        live[key] > 0;
    const uint64_t count = rng.UniformInt(remove ? live[key] : 9) + 1;
    for (auto& filter : filters) {
      if (remove) {
        filter.Remove(key, count);
      } else {
        filter.Insert(key, count);
      }
    }
    if (remove) {
      live[key] -= count;
    } else {
      live[key] += count;
    }
  }
  for (uint64_t key = 0; key < mix.key_space; ++key) {
    const uint64_t reference = filters[0].Estimate(key);
    ASSERT_GE(reference, live[key]) << key;  // one-sided vs ground truth
    for (size_t f = 1; f < filters.size(); ++f) {
      ASSERT_EQ(filters[f].Estimate(key), reference)
          << "backing " << f << " key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SbfBackingDifferentialTest,
    ::testing::Values(OpMix{1, 4000, 100, 0},    // insert-only, hot keys
                      OpMix{2, 4000, 5000, 0},   // insert-only, sparse keys
                      OpMix{3, 6000, 200, 40},   // heavy churn
                      OpMix{4, 6000, 50, 49},    // tiny key space, max churn
                      OpMix{5, 2000, 2000, 25}),  // mixed
    [](const auto& param_info) { return "Mix" + std::to_string(param_info.param.seed); });

// --- saturated estimates never under-report the clamp ----------------------

// Drive every backing x policy past the 32-bit backing's range (the 64-bit
// backings past 2^64) and check the graceful-degradation contract: a
// saturated counter reads the backing maximum — never less, never a wrap
// to a small value — so threshold queries keep their no-false-negative
// guarantee up to the clamp, and the event is tallied for Health().
TEST(SaturationDifferentialTest, SaturatedEstimateReadsClampAcrossBackings) {
  const uint64_t kHuge = ~uint64_t{0} - 3;  // two inserts overflow any width
  for (CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    for (SbfPolicy policy :
         {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
      SbfOptions options;
      options.m = 64;
      options.k = 3;
      options.seed = 31;
      options.backing = backing;
      options.policy = policy;
      SpectralBloomFilter filter(options);
      filter.Insert(9, kHuge);
      filter.Insert(9, kHuge);

      const uint64_t clamp = filter.counters().MaxValue();
      EXPECT_EQ(filter.Estimate(9), clamp)
          << CounterBackingName(backing) << " "
          << (policy == SbfPolicy::kMinimumSelection ? "MS" : "MI");
      EXPECT_GT(filter.saturation().saturation_clamps, 0u);

      // The rest of the filter still behaves: fresh keys insert and
      // estimate normally next to the pinned counters.
      filter.Insert(123, 4);
      EXPECT_GE(filter.Estimate(123), 4u);
    }
  }
}

TEST(SaturationDifferentialTest, RecurringMinimumSaturatesGracefully) {
  RecurringMinimumOptions options;
  options.primary_m = 80;
  options.secondary_m = 20;
  options.k = 3;
  options.backing = CounterBacking::kFixed32;
  RecurringMinimumSbf filter(options);
  const uint64_t kHuge = uint64_t{3} << 30;
  filter.Insert(9, kHuge);
  filter.Insert(9, kHuge);

  // Both inserts exceed the 32-bit range: the estimate reads the clamp
  // (never a wrapped small value), stays one-sided for every other key,
  // and the clamp events surface through Health().
  EXPECT_EQ(filter.Estimate(9), (uint64_t{1} << 32) - 1);
  EXPECT_GT(filter.Health().saturation_clamps, 0u);
  filter.Insert(55, 7);
  EXPECT_GE(filter.Estimate(55), 7u);
}

// --- blocked SBF with one block == flat SBF behaviour ----------------------

TEST(BlockedDifferentialTest, SingleBlockIsOneSidedAndLoadEquivalent) {
  // With block_size == m the blocked filter is an unsegmented SBF over the
  // same counters (different hash layout, same statistics). Check the
  // one-sided property and total load agreement.
  SbfOptions blocked_options;
  blocked_options.m = 2048;
  blocked_options.block_size = 2048;
  blocked_options.k = 5;
  blocked_options.seed = 5;
  blocked_options.backing = CounterBacking::kCompact;
  SpectralBloomFilter blocked(blocked_options);

  const Multiset data = MakeZipfMultiset(300, 9000, 0.6, 9);
  for (uint64_t key : data.stream) blocked.Insert(key);
  EXPECT_EQ(blocked.BlockLoad(0), data.total() * 5);
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_GE(blocked.Estimate(data.keys[i]), data.freqs[i]);
  }
}

// --- static index implementations -------------------------------------------

TEST(IndexDifferentialTest, SaiAndSelectAgreeOnAdversarialLengths) {
  // Alternating minimal/maximal lengths, then a long run of each: worst
  // cases for chunk classification thresholds.
  std::vector<uint32_t> lengths;
  for (int i = 0; i < 3000; ++i) lengths.push_back(i % 2 == 0 ? 1 : 64);
  for (int i = 0; i < 3000; ++i) lengths.push_back(1);
  for (int i = 0; i < 500; ++i) lengths.push_back(64);

  StringArrayIndex sai(lengths);
  SelectIndex select(lengths);
  for (size_t i = 0; i <= lengths.size(); ++i) {
    ASSERT_EQ(sai.Offset(i), select.Offset(i)) << i;
  }
}

TEST(IndexDifferentialTest, RandomLengthsAcrossThresholdRegimes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed * 1009);
    std::vector<uint32_t> lengths(2000);
    // Lognormal-ish lengths: many tiny, a few enormous.
    for (auto& len : lengths) {
      uint32_t bits = 1;
      while (bits < 60 && (rng.Next() & 1)) bits += bits;
      len = bits + static_cast<uint32_t>(rng.UniformInt(bits));
    }
    StringArrayIndex sai(lengths);
    SelectIndex select(lengths);
    for (size_t i = 0; i <= lengths.size(); i += 7) {
      ASSERT_EQ(sai.Offset(i), select.Offset(i))
          << "seed " << seed << " string " << i;
    }
  }
}

// --- RM against an exact oracle ---------------------------------------------

TEST(RmOracleTest, MarkerVariantNeverUndercountsUnderChurn) {
  RecurringMinimumOptions options;
  options.primary_m = 1200;
  options.secondary_m = 400;
  options.k = 5;
  options.seed = 3;
  options.backing = CounterBacking::kFixed64;
  options.use_marker_filter = true;
  RecurringMinimumSbf rm(options);

  Xoshiro256 rng(17);
  std::map<uint64_t, uint64_t> live;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = rng.UniformInt(300);
    if (rng.UniformInt(3) == 0 && live[key] > 0) {
      rm.Remove(key);
      --live[key];
    } else {
      rm.Insert(key);
      ++live[key];
    }
  }
  size_t false_negatives = 0;
  for (const auto& [key, count] : live) {
    false_negatives += rm.Estimate(key) < count;
  }
  // The marker variant's only undercut path is a marker false positive
  // before the item's first move — essentially absent at this load.
  EXPECT_LE(false_negatives, 2u);
}

}  // namespace
}  // namespace sbf
