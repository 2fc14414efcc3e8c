#include <gtest/gtest.h>

#include <unordered_map>

#include "core/spectral_bloom_filter.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

SbfOptions MakeOptions(uint64_t m, uint32_t k, SbfPolicy policy,
                       CounterBacking backing, uint64_t seed = 1) {
  SbfOptions options;
  options.m = m;
  options.k = k;
  options.policy = policy;
  options.backing = backing;
  options.seed = seed;
  return options;
}

struct SbfConfig {
  SbfPolicy policy;
  CounterBacking backing;
};

std::string ConfigName(const ::testing::TestParamInfo<SbfConfig>& info) {
  std::string name =
      info.param.policy == SbfPolicy::kMinimumSelection ? "MS" : "MI";
  name += "_";
  name += CounterBackingName(info.param.backing);
  // gtest names must be alphanumeric.
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class SbfPolicyBackingTest : public ::testing::TestWithParam<SbfConfig> {
 protected:
  SpectralBloomFilter Make(uint64_t m, uint32_t k, uint64_t seed = 1) {
    return SpectralBloomFilter(
        MakeOptions(m, k, GetParam().policy, GetParam().backing, seed));
  }
};

TEST_P(SbfPolicyBackingTest, EstimateIsUpperBound) {
  // Claim 1 / Claim 4: m_x >= f_x for every key, under both policies.
  auto filter = Make(2000, 4);
  const Multiset data = MakeZipfMultiset(300, 9000, 1.0, 5);
  for (uint64_t key : data.stream) filter.Insert(key);
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_GE(filter.Estimate(data.keys[i]), data.freqs[i]) << i;
  }
}

TEST_P(SbfPolicyBackingTest, ExactUnderLightLoad) {
  // With gamma tiny, collisions are almost impossible: estimates exact.
  auto filter = Make(100000, 5);
  for (uint64_t key = 1; key <= 50; ++key) filter.Insert(key, key);
  for (uint64_t key = 1; key <= 50; ++key) {
    ASSERT_EQ(filter.Estimate(key), key);
  }
}

TEST_P(SbfPolicyBackingTest, AbsentKeysMostlyZero) {
  auto filter = Make(20000, 5);
  for (uint64_t key = 0; key < 1000; ++key) filter.Insert(key);
  size_t nonzero = 0;
  for (uint64_t key = 1000000; key < 1010000; ++key) {
    nonzero += (filter.Estimate(key) > 0);
  }
  // Bloom error at gamma = 0.25 with k = 5 is ~5e-4.
  EXPECT_LT(nonzero, 100u);
}

TEST_P(SbfPolicyBackingTest, ThresholdQueriesHaveNoFalseNegatives) {
  auto filter = Make(3000, 5);
  const Multiset data = MakeZipfMultiset(500, 20000, 0.8, 9);
  for (uint64_t key : data.stream) filter.Insert(key);
  for (uint64_t threshold : {1ull, 5ull, 50ull, 500ull}) {
    for (size_t i = 0; i < data.keys.size(); ++i) {
      if (data.freqs[i] >= threshold) {
        ASSERT_TRUE(filter.Contains(data.keys[i], threshold))
            << "threshold " << threshold << " key " << i;
      }
    }
  }
}

TEST_P(SbfPolicyBackingTest, BatchInsertEqualsIterated) {
  auto batch = Make(500, 5, 3);
  auto iterated = Make(500, 5, 3);
  Xoshiro256 rng(8);
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.UniformInt(80);
    const uint64_t count = rng.UniformInt(5) + 1;
    batch.Insert(key, count);
    for (uint64_t c = 0; c < count; ++c) iterated.Insert(key);
  }
  for (uint64_t key = 0; key < 80; ++key) {
    ASSERT_EQ(batch.Estimate(key), iterated.Estimate(key)) << key;
  }
}

TEST_P(SbfPolicyBackingTest, TotalItemsTracksNetInserts) {
  auto filter = Make(1000, 3);
  filter.Insert(1, 10);
  filter.Insert(2, 5);
  EXPECT_EQ(filter.total_items(), 15u);
  filter.Remove(1, 4);
  EXPECT_EQ(filter.total_items(), 11u);
}

TEST_P(SbfPolicyBackingTest, SerializeRoundTrip) {
  auto filter = Make(700, 4, 21);
  const Multiset data = MakeZipfMultiset(100, 3000, 1.2, 2);
  for (uint64_t key : data.stream) filter.Insert(key);

  const auto bytes = filter.Serialize();
  auto restored = SpectralBloomFilter::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().m(), filter.m());
  EXPECT_EQ(restored.value().k(), filter.k());
  EXPECT_EQ(restored.value().total_items(), filter.total_items());
  for (uint64_t key = 0; key < 200; ++key) {
    ASSERT_EQ(restored.value().Estimate(key), filter.Estimate(key)) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SbfPolicyBackingTest,
    ::testing::Values(
        SbfConfig{SbfPolicy::kMinimumSelection, CounterBacking::kFixed64},
        SbfConfig{SbfPolicy::kMinimumSelection, CounterBacking::kCompact},
        SbfConfig{SbfPolicy::kMinimumSelection, CounterBacking::kSerialScan},
        SbfConfig{SbfPolicy::kMinimalIncrease, CounterBacking::kFixed64},
        SbfConfig{SbfPolicy::kMinimalIncrease, CounterBacking::kCompact}),
    ConfigName);

// --- Minimum Selection specifics ------------------------------------------------

TEST(SbfMsTest, DeletionsAreExactInverses) {
  SpectralBloomFilter filter(MakeOptions(2000, 5, SbfPolicy::kMinimumSelection,
                                         CounterBacking::kCompact));
  const Multiset data = MakeZipfMultiset(200, 5000, 0.5, 3);
  for (uint64_t key : data.stream) filter.Insert(key);
  const auto snapshot = [&] {
    std::vector<uint64_t> v;
    for (uint64_t key = 0; key < 300; ++key) v.push_back(filter.Estimate(key));
    return v;
  }();

  // Insert then fully delete an extra batch; estimates must return.
  for (uint64_t key = 1000; key < 1050; ++key) filter.Insert(key, 7);
  for (uint64_t key = 1000; key < 1050; ++key) filter.Remove(key, 7);
  for (uint64_t key = 0; key < 300; ++key) {
    ASSERT_EQ(filter.Estimate(key), snapshot[key]) << key;
  }
}

TEST(SbfMsTest, FullDeletionEmptiesFilter) {
  SpectralBloomFilter filter(MakeOptions(500, 4, SbfPolicy::kMinimumSelection,
                                         CounterBacking::kFixed64));
  const Multiset data = MakeZipfMultiset(100, 2000, 1.0, 4);
  for (uint64_t key : data.stream) filter.Insert(key);
  for (uint64_t key : data.stream) filter.Remove(key);
  EXPECT_EQ(filter.counters().Total(), 0u);
  EXPECT_EQ(filter.total_items(), 0u);
}

TEST(SbfMsTest, CounterValuesAndRecurringMinimum) {
  SpectralBloomFilter filter(MakeOptions(1000, 5, SbfPolicy::kMinimumSelection,
                                         CounterBacking::kFixed64));
  filter.Insert(77, 10);
  const auto values = filter.CounterValues(77);
  ASSERT_EQ(values.size(), 5u);
  // Alone in the filter: all counters equal 10 -> recurring minimum.
  for (uint64_t v : values) EXPECT_EQ(v, 10u);
  EXPECT_TRUE(filter.RecurringMinimum(77).recurring);
}

TEST(SbfMsTest, MembershipMatchesBloomFilterSemantics) {
  // Threshold-1 queries: one-sided, same guarantees as a Bloom filter.
  SpectralBloomFilter filter(MakeOptions(8000, 5, SbfPolicy::kMinimumSelection,
                                         CounterBacking::kCompact));
  for (uint64_t key = 0; key < 800; ++key) filter.Insert(key);
  for (uint64_t key = 0; key < 800; ++key) {
    ASSERT_TRUE(filter.Contains(key, 1));
  }
}

// --- Minimal Increase specifics ------------------------------------------------

TEST(SbfMiTest, NeverWorseThanMsPointwise) {
  // Claim 4: for every item, MI's estimate <= MS's estimate (same hashes).
  SpectralBloomFilter ms(MakeOptions(1500, 5, SbfPolicy::kMinimumSelection,
                                     CounterBacking::kFixed64, 11));
  SpectralBloomFilter mi(MakeOptions(1500, 5, SbfPolicy::kMinimalIncrease,
                                     CounterBacking::kFixed64, 11));
  const Multiset data = MakeZipfMultiset(400, 12000, 0.7, 6);
  for (uint64_t key : data.stream) {
    ms.Insert(key);
    mi.Insert(key);
  }
  for (size_t i = 0; i < data.keys.size(); ++i) {
    const uint64_t key = data.keys[i];
    ASSERT_LE(mi.Estimate(key), ms.Estimate(key)) << key;
    ASSERT_GE(mi.Estimate(key), data.freqs[i]) << key;
  }
}

TEST(SbfMiTest, StrictlyBetterErrorOnCollidingData) {
  // Statistical: over a loaded filter, MI's total error is lower than MS's.
  SpectralBloomFilter ms(MakeOptions(800, 5, SbfPolicy::kMinimumSelection,
                                     CounterBacking::kFixed64, 13));
  SpectralBloomFilter mi(MakeOptions(800, 5, SbfPolicy::kMinimalIncrease,
                                     CounterBacking::kFixed64, 13));
  const Multiset data = MakeZipfMultiset(600, 30000, 0.5, 8);
  for (uint64_t key : data.stream) {
    ms.Insert(key);
    mi.Insert(key);
  }
  ErrorStats ms_stats, mi_stats;
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ms_stats.Record(ms.Estimate(data.keys[i]), data.freqs[i]);
    mi_stats.Record(mi.Estimate(data.keys[i]), data.freqs[i]);
  }
  EXPECT_LT(mi_stats.AdditiveError(), ms_stats.AdditiveError());
  EXPECT_LE(mi_stats.ErrorRatio(), ms_stats.ErrorRatio());
}

TEST(SbfMiTest, DeletionsCreateFalseNegatives) {
  // The documented failure mode (Section 3.2): after deletions, MI can
  // underestimate. We assert the mechanism is reproducible at scale.
  SpectralBloomFilter mi(MakeOptions(600, 5, SbfPolicy::kMinimalIncrease,
                                     CounterBacking::kFixed64, 17));
  const Multiset data = MakeZipfMultiset(400, 20000, 0.5, 10);
  for (uint64_t key : data.stream) mi.Insert(key);

  // Fully delete half the keys. Under MI a shared counter holds roughly
  // the max (not the sum) of the sharing keys' frequencies, so deleting
  // one key can drag a surviving key's counter below its true count.
  for (size_t i = 0; i < data.keys.size(); i += 2) {
    mi.Remove(data.keys[i], data.freqs[i]);
  }
  size_t false_negatives = 0;
  for (size_t i = 1; i < data.keys.size(); i += 2) {
    if (mi.Estimate(data.keys[i]) < data.freqs[i]) ++false_negatives;
  }
  EXPECT_GT(false_negatives, 0u);
}

// --- misc -----------------------------------------------------------------------

TEST(SbfTest, CopySemanticsAreDeep) {
  SpectralBloomFilter a(1000, 4);
  a.Insert(5, 9);
  SpectralBloomFilter b = a;
  b.Insert(5, 1);
  EXPECT_EQ(a.Estimate(5), 9u);
  EXPECT_EQ(b.Estimate(5), 10u);
}

TEST(SbfTest, CloneEmptySharesParameters) {
  SpectralBloomFilter a(1000, 4);
  a.Insert(5, 9);
  SpectralBloomFilter b = a.CloneEmpty();
  EXPECT_EQ(b.Estimate(5), 0u);
  EXPECT_TRUE(a.hash().Compatible(b.hash()));
}

TEST(SbfTest, StringKeysRoute) {
  SpectralBloomFilter filter(10000, 4);
  filter.InsertBytes("query-term", 3);
  EXPECT_EQ(filter.EstimateBytes("query-term"), 3u);
  EXPECT_EQ(filter.EstimateBytes("other-term"), 0u);
}

TEST(SbfTest, GammaComputation) {
  SpectralBloomFilter filter(1000, 5);
  EXPECT_DOUBLE_EQ(filter.Gamma(140), 0.7);
}

TEST(SbfTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SpectralBloomFilter::Deserialize({}).ok());
  std::vector<uint8_t> junk(72, 0xAB);
  EXPECT_FALSE(SpectralBloomFilter::Deserialize(junk).ok());
}

TEST(SbfTest, ValidateSbfOptionsFlagsDegenerateParameters) {
  SbfOptions options;
  options.m = 1000;
  options.k = 4;
  EXPECT_TRUE(ValidateSbfOptions(options).ok());

  options.m = 0;
  EXPECT_EQ(ValidateSbfOptions(options).code(),
            Status::Code::kInvalidArgument);
  options.m = 1000;
  options.k = 0;
  EXPECT_EQ(ValidateSbfOptions(options).code(),
            Status::Code::kInvalidArgument);
  options.k = 65;
  EXPECT_EQ(ValidateSbfOptions(options).code(),
            Status::Code::kInvalidArgument);
}

TEST(SbfDeathTest, ConstructorRejectsDegenerateParameters) {
  // Regression: the constructor used to build the hash family and counter
  // vector from unvalidated options before checking them, so m == 0 or
  // k == 0 reached those constructors (division-free but ill-defined: a
  // zero-range hash and an empty counter vector). Validation now aborts
  // before any member is constructed.
  EXPECT_DEATH(SpectralBloomFilter(/*m=*/0, /*k=*/4), "m >= 1");
  EXPECT_DEATH(SpectralBloomFilter(/*m=*/1000, /*k=*/0), "1 <= k <= 64");
  EXPECT_DEATH(SpectralBloomFilter(/*m=*/1000, /*k=*/65), "1 <= k <= 64");
  SbfOptions options;  // defaults leave m == 0 (required field)
  EXPECT_DEATH(SpectralBloomFilter{options}, "m >= 1");
}

}  // namespace
}  // namespace sbf
