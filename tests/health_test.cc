// Live health reporting (util/health.h): the FilterHealth snapshot must
// track observed occupancy, derive the live FPR from it (the paper's
// Section 2.1 error evaluated on actual fill), tally clamp events from the
// saturation-safe backings, and issue the kHealthy/kDegraded/kSaturated
// verdict that drives ExpandIfDegraded.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/concurrent_sbf.h"
#include "core/recurring_minimum.h"
#include "core/spectral_bloom_filter.h"
#include "core/trapping_rm.h"
#include "util/health.h"

namespace sbf {
namespace {

// --- FinalizeHealth math ---------------------------------------------------

TEST(FinalizeHealthTest, DerivesRatiosFprAndSkew) {
  FilterHealth health;
  health.counters = 1000;
  health.nonzero_counters = 250;
  health.saturated_counters = 0;
  health.shard_fill = {0.2, 0.3};
  FinalizeHealth(3, HealthThresholds{}, &health);

  EXPECT_DOUBLE_EQ(health.fill_ratio, 0.25);
  EXPECT_NEAR(health.estimated_fpr, 0.25 * 0.25 * 0.25, 1e-12);
  EXPECT_NEAR(health.shard_skew, 0.3 / 0.25, 1e-12);
  EXPECT_EQ(health.state, HealthState::kHealthy);
}

TEST(FinalizeHealthTest, VerdictLadder) {
  // Degraded: fill^k above the threshold.
  FilterHealth degraded;
  degraded.counters = 100;
  degraded.nonzero_counters = 90;
  FinalizeHealth(2, HealthThresholds{}, &degraded);
  EXPECT_EQ(degraded.state, HealthState::kDegraded);

  // Saturation dominates the FPR verdict.
  FilterHealth saturated = degraded;
  saturated.state = HealthState::kHealthy;
  saturated.saturated_counters = 1;
  FinalizeHealth(2, HealthThresholds{}, &saturated);
  EXPECT_EQ(saturated.state, HealthState::kSaturated);

  // A nonzero saturated-share threshold tolerates a few stuck counters.
  HealthThresholds lenient;
  lenient.saturated_share = 0.05;
  lenient.degraded_fpr = 2.0;  // never degraded
  FilterHealth tolerated = saturated;
  tolerated.state = HealthState::kHealthy;
  FinalizeHealth(2, lenient, &tolerated);
  EXPECT_EQ(tolerated.state, HealthState::kHealthy);
}

TEST(FinalizeHealthTest, NamesAndToString) {
  EXPECT_STREQ(HealthStateName(HealthState::kHealthy), "HEALTHY");
  EXPECT_STREQ(HealthStateName(HealthState::kDegraded), "DEGRADED");
  EXPECT_STREQ(HealthStateName(HealthState::kSaturated), "SATURATED");

  FilterHealth health;
  health.counters = 10;
  health.nonzero_counters = 3;  // fill 0.3, fpr 0.09 < 0.10 threshold
  FinalizeHealth(2, HealthThresholds{}, &health);
  const std::string line = health.ToString();
  EXPECT_NE(line.find("HEALTHY"), std::string::npos);
  EXPECT_NE(line.find("fill=0.3"), std::string::npos);
}

// --- SpectralBloomFilter ---------------------------------------------------

TEST(SbfHealthTest, EmptyFilterIsHealthy) {
  SpectralBloomFilter filter(256, 5);
  const FilterHealth health = filter.Health();
  EXPECT_EQ(health.state, HealthState::kHealthy);
  EXPECT_EQ(health.counters, 256u);
  EXPECT_EQ(health.nonzero_counters, 0u);
  EXPECT_DOUBLE_EQ(health.estimated_fpr, 0.0);
  EXPECT_TRUE(health.shard_fill.empty());
}

TEST(SbfHealthTest, OverloadReportsDegraded) {
  SbfOptions options;
  options.m = 64;
  options.k = 2;
  SpectralBloomFilter filter(options);
  for (uint64_t key = 0; key < 300; ++key) filter.Insert(key);

  const FilterHealth health = filter.Health();
  EXPECT_GT(health.fill_ratio, 0.5);
  EXPECT_GT(health.estimated_fpr, 0.10);
  EXPECT_EQ(health.state, HealthState::kDegraded);
  EXPECT_NEAR(health.estimated_fpr,
              std::pow(health.fill_ratio, options.k), 1e-12);
}

TEST(SbfHealthTest, ThresholdsComeFromOptions) {
  SbfOptions options;
  options.m = 64;
  options.k = 2;
  options.health.degraded_fpr = 1.5;  // unreachable: FPR <= 1
  SpectralBloomFilter filter(options);
  for (uint64_t key = 0; key < 300; ++key) filter.Insert(key);
  EXPECT_EQ(filter.Health().state, HealthState::kHealthy);
}

TEST(SbfHealthTest, OverflowClampsReportSaturated) {
  SbfOptions options;
  options.m = 64;
  options.k = 3;
  options.backing = CounterBacking::kFixed32;
  SpectralBloomFilter filter(options);
  const uint64_t kHuge = uint64_t{3} << 30;  // > 2^32 after two inserts
  filter.Insert(1, kHuge);
  filter.Insert(1, kHuge);

  const FilterHealth health = filter.Health();
  EXPECT_EQ(health.state, HealthState::kSaturated);
  EXPECT_GT(health.saturated_counters, 0u);
  EXPECT_GT(health.saturation_clamps, 0u);
  EXPECT_GT(filter.saturation().saturation_clamps, 0u);
}

TEST(SbfHealthTest, RemoveBelowZeroClampsAndTallies) {
  // Regression for the underflow abort: deleting never-inserted keys (or
  // over-deleting) clamps at zero, tallies the event, and keeps the filter
  // fully usable.
  for (CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    SbfOptions options;
    options.m = 128;
    options.k = 4;
    options.backing = backing;
    SpectralBloomFilter filter(options);
    filter.Insert(7, 2);
    filter.Remove(99, 5);  // never inserted
    filter.Remove(7, 50);  // over-delete

    EXPECT_GT(filter.Health().underflow_clamps, 0u)
        << CounterBackingName(backing);
    EXPECT_EQ(filter.Estimate(99), 0u);
    filter.Insert(11);
    EXPECT_GE(filter.Estimate(11), 1u);
  }
}

// A Minimal Increase remove decrements every probe like a Minimum Selection
// remove, so its clamped deletions (the Figure 8 false negatives) show up
// in the same underflow tally.
TEST(SbfHealthTest, MinimalIncreaseRemoveTalliesLikeMinimumSelection) {
  for (CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    SbfOptions options;
    options.m = 128;
    options.k = 4;
    options.backing = backing;
    SpectralBloomFilter ms(options);
    options.policy = SbfPolicy::kMinimalIncrease;
    SpectralBloomFilter mi(options);
    for (SpectralBloomFilter* filter : {&ms, &mi}) {
      filter->Insert(1, 2);
      filter->Remove(1, 5);
    }
    EXPECT_EQ(mi.Health().underflow_clamps, ms.Health().underflow_clamps)
        << CounterBackingName(backing);
    EXPECT_EQ(mi.Health().underflow_clamps, options.k)
        << CounterBackingName(backing);
    EXPECT_EQ(mi.Estimate(1), 0u) << CounterBackingName(backing);
  }
}

// --- other frontends -------------------------------------------------------

TEST(CountingBloomHealthTest, StickySaturationReportsSaturated) {
  // 4-bit sticky counters are the designed overflow policy [FCAB98]; heavy
  // reuse of one key pins its counters at 15 and Health surfaces it.
  SbfOptions options;
  options.m = 128;
  options.k = 4;
  options.backing = CounterBacking::kSticky4;
  SpectralBloomFilter filter(options);
  EXPECT_EQ(filter.Health().state, HealthState::kHealthy);
  for (int i = 0; i < 30; ++i) filter.Insert(42);
  const FilterHealth health = filter.Health();
  EXPECT_EQ(health.state, HealthState::kSaturated);
  EXPECT_GT(health.saturated_counters, 0u);
  EXPECT_GT(filter.saturation().saturation_clamps, 0u);
}

TEST(BlockedSbfHealthTest, TracksOccupancy) {
  SbfOptions options;
  options.m = 512;
  options.block_size = 64;
  options.k = 4;
  SpectralBloomFilter filter(options);
  for (uint64_t key = 0; key < 100; ++key) filter.Insert(key);
  const FilterHealth health = filter.Health();
  EXPECT_EQ(health.counters, 512u);
  EXPECT_GT(health.nonzero_counters, 0u);
  EXPECT_NEAR(health.fill_ratio,
              static_cast<double>(health.nonzero_counters) / 512.0, 1e-12);
}

TEST(RmHealthTest, EscalatesWorstComponentVerdict) {
  RecurringMinimumOptions options;
  options.primary_m = 4096;  // primary stays healthy
  options.secondary_m = 256;
  options.k = 3;
  options.backing = CounterBacking::kFixed32;
  RecurringMinimumSbf filter(options);

  EXPECT_EQ(filter.Health().state, HealthState::kHealthy);

  // Counts past the 32-bit backing's range clamp the primary's counters;
  // the combined verdict escalates to the worst component state and the
  // clamp tallies aggregate across both SBFs.
  const uint64_t kHuge = uint64_t{3} << 30;
  filter.Insert(5, kHuge);
  filter.Insert(5, kHuge);
  const FilterHealth health = filter.Health();
  EXPECT_EQ(health.state, HealthState::kSaturated);
  EXPECT_GT(health.saturation_clamps, 0u);
}

// Trapping RM reports the same combined snapshot as RM: a filter whose
// counters clamped at the 32-bit backing's maximum reads kSaturated with
// the primary's fill and the clamp tallies, not an empty healthy default.
TEST(TrmHealthTest, ClampedCountersReportSaturated) {
  RecurringMinimumOptions options;
  options.primary_m = 64;
  options.secondary_m = 32;
  options.k = 3;
  options.backing = CounterBacking::kFixed32;
  TrappingRmSbf trm(options);
  RecurringMinimumSbf rm(options);
  EXPECT_EQ(trm.Health().state, HealthState::kHealthy);

  const uint64_t kMax32 = (uint64_t{1} << 32) - 1;
  for (uint64_t key = 1; key <= 8; ++key) {
    trm.Insert(key, kMax32);
    trm.Insert(key, 5);
    rm.Insert(key, kMax32);
    rm.Insert(key, 5);
  }
  const FilterHealth health = trm.Health();
  EXPECT_EQ(health.state, HealthState::kSaturated);
  EXPECT_GT(health.saturation_clamps, 0u);
  EXPECT_EQ(health.counters, 64u);
  EXPECT_EQ(health.nonzero_counters, trm.primary().Health().nonzero_counters);
  EXPECT_GT(health.fill_ratio, 0.0);
  EXPECT_EQ(rm.Health().state, HealthState::kSaturated);
}

// --- ConcurrentSbf ---------------------------------------------------------

TEST(ConcurrentHealthTest, ReportsPerShardFillAndSkew) {
  for (CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    ConcurrentSbfOptions options;
    options.m = 4096;
    options.k = 4;
    options.num_shards = 8;
    options.backing = backing;
    ConcurrentSbf filter(options);

    FilterHealth health = filter.Health();
    EXPECT_EQ(health.state, HealthState::kHealthy);
    EXPECT_EQ(health.counters, 4096u);
    ASSERT_EQ(health.shard_fill.size(), 8u);

    for (uint64_t key = 0; key < 600; ++key) filter.Insert(key);
    health = filter.Health();
    EXPECT_GT(health.nonzero_counters, 0u);
    EXPECT_GE(health.shard_skew, 1.0);
    double sum = 0.0;
    for (double fill : health.shard_fill) sum += fill;
    EXPECT_NEAR(sum / 8.0, health.fill_ratio, 1e-9);
  }
}

TEST(ConcurrentHealthTest, ExpandIfDegradedDoublesOverloadedFilter) {
  ConcurrentSbfOptions options;
  options.m = 128;
  options.k = 2;
  options.num_shards = 4;
  ConcurrentSbf filter(options);
  for (uint64_t key = 0; key < 800; ++key) filter.Insert(key);
  ASSERT_NE(filter.Health().state, HealthState::kHealthy);

  auto expanded = filter.ExpandIfDegraded();
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded.value());
  EXPECT_EQ(filter.options().m, 256u);

  ConcurrentSbfOptions light_options;
  light_options.m = 8192;
  light_options.k = 4;
  ConcurrentSbf light(light_options);
  light.Insert(1);
  auto untouched = light.ExpandIfDegraded();
  ASSERT_TRUE(untouched.ok());
  EXPECT_FALSE(untouched.value());
}

}  // namespace
}  // namespace sbf
