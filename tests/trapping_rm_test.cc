#include <gtest/gtest.h>

#include "core/trapping_rm.h"
#include "util/metrics.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

RecurringMinimumOptions MakeOptions(uint64_t primary_m, uint64_t secondary_m,
                                    uint32_t k, uint64_t seed = 1) {
  RecurringMinimumOptions options;
  options.primary_m = primary_m;
  options.secondary_m = secondary_m;
  options.k = k;
  options.seed = seed;
  options.backing = CounterBacking::kFixed64;
  return options;
}

TEST(TrappingRmTest, ExactUnderLightLoad) {
  TrappingRmSbf filter(MakeOptions(50000, 25000, 5, 3));
  for (uint64_t key = 1; key <= 40; ++key) filter.Insert(key, key);
  for (uint64_t key = 1; key <= 40; ++key) {
    ASSERT_EQ(filter.Estimate(key), key);
  }
}

TEST(TrappingRmTest, LoneItemNeverArmsTraps) {
  TrappingRmSbf filter(MakeOptions(4000, 2000, 5, 5));
  filter.Insert(9, 100);
  EXPECT_EQ(filter.traps_armed(), 0u);
  EXPECT_EQ(filter.traps_fired(), 0u);
}

TEST(TrappingRmTest, TrapsArmOnCrowdedFilter) {
  TrappingRmSbf filter(MakeOptions(200, 100, 5, 7));
  const Multiset data = MakeZipfMultiset(300, 6000, 0.5, 9);
  for (uint64_t key : data.stream) filter.Insert(key);
  // At gamma 7.5 single minima abound: traps must have been armed, and
  // with this much traffic some must have fired.
  EXPECT_GT(filter.traps_armed() + filter.traps_fired(), 0u);
}

TEST(TrappingRmTest, AccuracyComparableOnTypicalStream) {
  // The refinement must not blow up error on a normal Zipf stream.
  TrappingRmSbf filter(MakeOptions(1400, 700, 5, 11));
  const Multiset data = MakeZipfMultiset(400, 12000, 0.7, 13);
  for (uint64_t key : data.stream) filter.Insert(key);
  ErrorStats stats;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    stats.Record(filter.Estimate(data.keys[i]), data.freqs[i]);
  }
  // Loose sanity: well under half the keys in error, small RMS error.
  EXPECT_LT(stats.ErrorRatio(), 0.5);
  EXPECT_LT(stats.AdditiveError(), 50.0);
}

TEST(TrappingRmTest, PalindromeAdversary) {
  // The paper's pathological sequence: traps armed in the first half are
  // never triggered in the second, so compensation never happens — the
  // structure must stay consistent (estimates remain upper bounds).
  TrappingRmSbf filter(MakeOptions(300, 150, 3, 17));
  const auto stream = MakePalindromeStream(500);
  for (uint64_t key : stream) filter.Insert(key);
  size_t false_negatives = 0;
  for (uint64_t key = 1; key <= 500; ++key) {
    if (filter.Estimate(key) < 2) ++false_negatives;
  }
  // Every key appears exactly twice; trapping compensation can rarely
  // over-correct, but the bulk must remain >= 2.
  EXPECT_LE(false_negatives, 25u);
}

TEST(TrappingRmTest, DeletionsSupported) {
  TrappingRmSbf filter(MakeOptions(1500, 750, 5, 19));
  const Multiset data = MakeZipfMultiset(200, 5000, 0.5, 21);
  for (uint64_t key : data.stream) filter.Insert(key);
  for (size_t i = 0; i < data.keys.size(); ++i) {
    filter.Remove(data.keys[i], data.freqs[i] / 2);
  }
  size_t false_negatives = 0;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    const uint64_t remaining = data.freqs[i] - data.freqs[i] / 2;
    if (filter.Estimate(data.keys[i]) < remaining) ++false_negatives;
  }
  EXPECT_LE(false_negatives, data.keys.size() / 25);
}

TEST(TrappingRmTest, RemoveOfRecurringKeyLeavesSecondaryAlone) {
  // Key 4 has a recurring minimum in the primary, so its remove leaves the
  // secondary alone (RM's delete rule, which TRM shares): there it would
  // eat key 2's deposit.
  const RecurringMinimumOptions options = MakeOptions(16, 8, 3, 6);
  TrappingRmSbf trm(options);
  RecurringMinimumSbf rm(options);
  for (const uint64_t key : {6, 2, 3, 2, 4, 5, 2}) {
    trm.Insert(key);
    rm.Insert(key);
  }
  ASSERT_TRUE(trm.primary().RecurringMinimum(4).recurring);
  trm.Remove(4);
  rm.Remove(4);
  EXPECT_GE(trm.Estimate(2), 3u);
  EXPECT_EQ(rm.Estimate(2), 3u);
}

TEST(TrappingRmTest, MemoryAccountsForTraps) {
  TrappingRmSbf filter(MakeOptions(1000, 500, 5, 23));
  const size_t before = filter.MemoryUsageBits();
  EXPECT_GE(before, 1000u + 500u + 1000u);  // two SBFs + trap bits
}

}  // namespace
}  // namespace sbf
