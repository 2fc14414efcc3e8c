// Long-run stress and amortization properties of the dynamic compact
// counter storage (Section 4.4): correctness under millions of mixed
// operations across group-size/slack configurations, and sanity bounds on
// the amortized work counters (pushed bits, rebuilds).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sai/compact_counter_vector.h"
#include "util/bits.h"
#include "util/random.h"
#include "workload/multiset_stream.h"
#include "workload/zipf.h"

namespace sbf {
namespace {

struct StressConfig {
  size_t group_size;
  double slack;
  const char* name;
};

class CompactStressTest : public ::testing::TestWithParam<StressConfig> {};

TEST_P(CompactStressTest, MillionOpsMatchModel) {
  const StressConfig config = GetParam();
  constexpr size_t kM = 2000;
  CompactCounterVector::Options options;
  options.group_size = config.group_size;
  options.slack_per_counter = config.slack;
  CompactCounterVector counters(kM, options);
  std::vector<uint64_t> model(kM, 0);

  Xoshiro256 rng(0x57E55ull + config.group_size);
  for (int op = 0; op < 1000000; ++op) {
    const size_t i = rng.UniformInt(kM);
    switch (rng.UniformInt(4)) {
      case 0:
      case 1:
        counters.Increment(i, 1);
        model[i] += 1;
        break;
      case 2:
        if (model[i] > 0) {
          counters.Decrement(i, 1);
          model[i] -= 1;
        } else {
          counters.Increment(i, 1);
          model[i] += 1;
        }
        break;
      default: {
        const uint64_t value = rng.Next() >> (40 + rng.UniformInt(20));
        counters.Set(i, value);
        model[i] = value;
        break;
      }
    }
  }
  for (size_t i = 0; i < kM; ++i) {
    ASSERT_EQ(counters.Get(i), model[i]) << i;
  }
}

TEST_P(CompactStressTest, AmortizedPushWorkBounded) {
  // Lemma 8's practical consequence: total pushed bits stay within a
  // constant factor of the operation count (here: a generous 128 bits of
  // shifted work per insert on average, far above the expected O(1/eps)).
  const StressConfig config = GetParam();
  constexpr size_t kM = 5000;
  constexpr size_t kOps = 200000;
  CompactCounterVector::Options options;
  options.group_size = config.group_size;
  options.slack_per_counter = config.slack;
  CompactCounterVector counters(kM, options);

  Xoshiro256 rng(0xA303ull);
  for (size_t op = 0; op < kOps; ++op) {
    counters.Increment(rng.UniformInt(kM), 1);
  }
  EXPECT_LT(counters.pushed_bits_total(), 128ull * kOps) << config.name;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CompactStressTest,
    ::testing::Values(StressConfig{8, 0.1, "tiny_groups_tight_slack"},
                      StressConfig{32, 0.5, "default"},
                      StressConfig{64, 1.0, "large_groups_loose_slack"},
                      StressConfig{16, 0.0, "zero_configured_slack"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(CompactStressTest, ZipfStreamThroughSbfShapedAccess) {
  // The actual SBF access pattern: k pseudo-random counters per key, keys
  // Zipf-distributed — the skew concentrates growth on a few counters.
  constexpr size_t kM = 3000;
  CompactCounterVector counters(kM);
  std::vector<uint64_t> model(kM, 0);
  const Multiset data = MakeZipfMultiset(800, 150000, 1.2, 3);
  Xoshiro256 rng(7);
  for (uint64_t key : data.stream) {
    for (int probe = 0; probe < 5; ++probe) {
      const size_t i =
          static_cast<size_t>((key * 0x9E3779B97F4A7C15ull + probe * kM) %
                              kM);
      counters.Increment(i, 1);
      model[i] += 1;
    }
  }
  for (size_t i = 0; i < kM; ++i) ASSERT_EQ(counters.Get(i), model[i]);
}

TEST(CompactStressTest, RepeatedRebuildsStayConsistent) {
  CompactCounterVector counters(200);
  Xoshiro256 rng(11);
  std::vector<uint64_t> model(200, 0);
  for (int round = 0; round < 50; ++round) {
    for (int op = 0; op < 200; ++op) {
      const size_t i = rng.UniformInt(200);
      const uint64_t value = rng.Next() >> (8 + rng.UniformInt(50));
      counters.Set(i, value);
      model[i] = value;
    }
    counters.ForceRebuild();
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_EQ(counters.Get(i), model[i]) << "round " << round;
    }
  }
  EXPECT_GE(counters.rebuild_count(), 50u);
}

// DecodeBlock against Get over random ranges (first, n) at every group
// size of CompactDigestTest: ranges that start and end inside spans and
// groups, counters of every width up to 64 bits (2^64 - 1 among them),
// after a forced borrow (two counters of group 0 widened to 64 bits with
// the group's fresh slack at its 64-bit floor) and after a rebuild.
TEST(CompactStressTest, DecodeBlockMatchesGetOnRandomRanges) {
  constexpr size_t kM = 1000;
  constexpr uint64_t kMax = ~uint64_t{0};
  for (const size_t group_size : {1, 4, 8, 12, 16, 32, 33, 64, 100}) {
    CompactCounterVector::Options options;
    options.group_size = group_size;
    options.slack_per_counter = 0.0;
    CompactCounterVector cv(kM, options);
    Xoshiro256 rng(group_size);
    const auto check = [&](const char* stage) {
      const std::string what =
          std::string(stage) + " g=" + std::to_string(group_size);
      std::vector<uint64_t> want(kM);
      for (size_t i = 0; i < kM; ++i) want[i] = cv.Get(i);
      // One slot past the range catches a write beyond it.
      constexpr uint64_t kUnwritten = 0xA5A5A5A5A5A5A5A5u;
      std::vector<uint64_t> got(kM + 1, kUnwritten);
      cv.DecodeBlock(0, kM, got.data());
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin())) << what;
      ASSERT_EQ(got[kM], kUnwritten) << what;
      for (int trial = 0; trial < 300; ++trial) {
        const size_t first = rng.UniformInt(kM);
        const size_t n = rng.UniformInt(kM - first + 1);
        std::fill(got.begin(), got.end(), kUnwritten);
        cv.DecodeBlock(first, n, got.data());
        for (size_t t = 0; t < n; ++t) {
          ASSERT_EQ(got[t], want[first + t])
              << what << " first=" << first << " n=" << n << " t=" << t;
        }
        ASSERT_EQ(got[n], kUnwritten) << what << " first=" << first;
      }
    };
    for (size_t i = 0; i < kM; ++i) {
      const auto width = static_cast<uint32_t>(1 + rng.UniformInt(64));
      const uint64_t value =
          i % 97 == 0 ? kMax
                      : (rng.Next() | uint64_t{1} << (width - 1)) &
                            LowMask(width);
      cv.Set(i, value);
    }
    check("every width");

    for (size_t i = 0; i < kM; ++i) cv.Set(i, i % 3);
    cv.ForceRebuild();
    const size_t rebuilds = cv.rebuild_count();
    cv.Set(0, kMax);
    cv.Set(group_size - 1, kMax - 1);
    ASSERT_EQ(cv.rebuild_count(), rebuilds);
    check("forced borrow");

    for (int t = 0; t < 500; ++t) {
      cv.Increment(rng.UniformInt(kM), rng.Next() >> rng.UniformInt(64));
    }
    cv.ForceRebuild();
    check("rebuild");
    ASSERT_TRUE(cv.CheckInvariants().ok());
  }
}

TEST(CompactStressTest, MonotoneGrowthThenFullDrain) {
  CompactCounterVector counters(1000);
  for (uint64_t round = 1; round <= 20; ++round) {
    for (size_t i = 0; i < 1000; ++i) counters.Increment(i, round);
  }
  const uint64_t expected = (20 * 21) / 2;
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(counters.Get(i), expected);
  }
  for (uint64_t round = 1; round <= 20; ++round) {
    for (size_t i = 0; i < 1000; ++i) counters.Decrement(i, round);
  }
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(counters.Get(i), 0u);
  }
}

}  // namespace
}  // namespace sbf
