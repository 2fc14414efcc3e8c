#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/sbf_algebra.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

SbfOptions MakeOptions(uint64_t m, uint32_t k, uint64_t seed) {
  SbfOptions options;
  options.m = m;
  options.k = k;
  options.seed = seed;
  options.backing = CounterBacking::kFixed64;
  return options;
}

TEST(UnionTest, EquivalentToInsertingBothStreams) {
  // Every backing unions with itself, and a compact filter absorbs a
  // fixed64 one: the union equals one filter of dst's backing fed both
  // streams (sticky4 counters clamp at 15 either way).
  const Multiset left = MakeZipfMultiset(200, 4000, 0.7, 5);
  const Multiset right = MakeZipfMultiset(300, 6000, 0.4, 7);
  const std::pair<CounterBacking, CounterBacking> pairs[] = {
      {CounterBacking::kFixed64, CounterBacking::kFixed64},
      {CounterBacking::kFixed32, CounterBacking::kFixed32},
      {CounterBacking::kSticky4, CounterBacking::kSticky4},
      {CounterBacking::kCompact, CounterBacking::kCompact},
      {CounterBacking::kSerialScan, CounterBacking::kSerialScan},
      {CounterBacking::kCompact, CounterBacking::kFixed64}};
  for (const auto& [dst_backing, src_backing] : pairs) {
    auto dst_options = MakeOptions(3000, 5, 3);
    dst_options.backing = dst_backing;
    auto src_options = dst_options;
    src_options.backing = src_backing;
    SpectralBloomFilter a(dst_options), b(src_options),
        reference(dst_options);
    for (uint64_t key : left.stream) {
      a.Insert(key);
      reference.Insert(key);
    }
    for (uint64_t key : right.stream) {
      b.Insert(key);
      reference.Insert(key);
    }
    const std::string label = std::string(CounterBackingName(dst_backing)) +
                              " <- " + CounterBackingName(src_backing);
    const uint64_t clamps_before = a.counters().saturation().saturation_clamps;
    ASSERT_TRUE(UnionInto(&a, b).ok()) << label;
    if (dst_backing == CounterBacking::kSticky4) {
      // The union's adds clamp at 15 and tally like inserts.
      EXPECT_GT(a.counters().saturation().saturation_clamps, clamps_before)
          << label;
    }
    for (uint64_t i = 0; i < a.m(); ++i) {
      ASSERT_EQ(a.counters().Get(i), reference.counters().Get(i))
          << label << " counter " << i;
    }
    EXPECT_EQ(a.total_items(), reference.total_items()) << label;
  }
}

TEST(UnionTest, PartitionedRelationMergesExactly) {
  // The distributed scenario: a relation partitioned over 4 sites, each
  // builds an SBF; the union answers queries over the whole relation.
  const auto options = MakeOptions(5000, 4, 11);
  const Multiset data = MakeZipfMultiset(300, 8000, 1.0, 13);
  SpectralBloomFilter merged(options);
  std::vector<SpectralBloomFilter> sites(4, SpectralBloomFilter(options));
  for (size_t i = 0; i < data.stream.size(); ++i) {
    sites[i % 4].Insert(data.stream[i]);
  }
  for (const auto& site : sites) {
    ASSERT_TRUE(UnionInto(&merged, site).ok());
  }
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_GE(merged.Estimate(data.keys[i]), data.freqs[i]);
  }
}

TEST(UnionTest, RejectsIncompatibleFilters) {
  SpectralBloomFilter a(MakeOptions(1000, 5, 1));
  SpectralBloomFilter b(MakeOptions(1000, 5, 2));  // different seed
  EXPECT_FALSE(UnionInto(&a, b).ok());
  SpectralBloomFilter c(MakeOptions(1001, 5, 1));  // different m
  EXPECT_FALSE(UnionInto(&a, c).ok());
  SpectralBloomFilter d(MakeOptions(1000, 4, 1));  // different k
  EXPECT_FALSE(UnionInto(&a, d).ok());
}

// A flat filter and a blocked one of the same m. In the second pair the
// blocked filter is one block whose within-block seed equals the flat
// seed, so the two probe families are identical: only the layout tells
// them apart.
std::vector<std::pair<SbfOptions, SbfOptions>> FlatBlockedPairs() {
  SbfOptions flat = MakeOptions(4096, 5, 37);
  SbfOptions blocked = flat;
  blocked.block_size = 256;
  SbfOptions one_block = MakeOptions(4096, 5, 37 ^ 0x17735B);
  one_block.block_size = 4096;
  return {{flat, blocked}, {flat, one_block}};
}

TEST(UnionTest, RejectsFlatBlockedPair) {
  for (const auto& [flat_options, blocked_options] : FlatBlockedPairs()) {
    SpectralBloomFilter flat(flat_options), blocked(blocked_options);
    EXPECT_FALSE(UnionInto(&flat, blocked).ok());
    EXPECT_FALSE(UnionInto(&blocked, flat).ok());
  }
  const auto [flat_options, one_block_options] = FlatBlockedPairs()[1];
  EXPECT_TRUE(SpectralBloomFilter(flat_options)
                  .hash()
                  .Compatible(SpectralBloomFilter(one_block_options).hash()));
}

TEST(UnionTest, BlockedMsUnionSerializesLikeOneFilter) {
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    SbfOptions options = MakeOptions(4096, 5, 41);
    options.block_size = 64;
    options.backing = backing;
    SpectralBloomFilter a(options), b(options), reference(options);
    const Multiset left = MakeZipfMultiset(200, 4000, 0.7, 43);
    const Multiset right = MakeZipfMultiset(300, 6000, 0.4, 47);
    for (uint64_t key : left.stream) {
      a.Insert(key);
      reference.Insert(key);
    }
    for (uint64_t key : right.stream) {
      b.Insert(key);
      reference.Insert(key);
    }
    ASSERT_TRUE(UnionInto(&a, b).ok());
    EXPECT_EQ(a.Serialize(), reference.Serialize())
        << CounterBackingName(backing);
  }
}

TEST(MultiplyTest, UpperBoundsJoinProducts) {
  const auto options = MakeOptions(4000, 5, 17);
  SpectralBloomFilter a(options), b(options);
  // Keys 1..100 in both sides with different multiplicities.
  for (uint64_t key = 1; key <= 100; ++key) {
    a.Insert(key, key % 7 + 1);
    b.Insert(key, key % 5 + 1);
  }
  // Keys 200..250 only in a.
  for (uint64_t key = 200; key <= 250; ++key) a.Insert(key, 3);

  auto product = Multiply(a, b);
  ASSERT_TRUE(product.ok());
  for (uint64_t key = 1; key <= 100; ++key) {
    const uint64_t expected = (key % 7 + 1) * (key % 5 + 1);
    ASSERT_GE(product.value().Estimate(key), expected) << key;
  }
}

TEST(MultiplyTest, DisjointSetsYieldZeroAlmostEverywhere) {
  const auto options = MakeOptions(20000, 5, 19);
  SpectralBloomFilter a(options), b(options);
  for (uint64_t key = 0; key < 500; ++key) a.Insert(key);
  for (uint64_t key = 10000; key < 10500; ++key) b.Insert(key);
  auto product = Multiply(a, b);
  ASSERT_TRUE(product.ok());
  size_t nonzero = 0;
  for (uint64_t key = 0; key < 500; ++key) {
    nonzero += (product.value().Estimate(key) > 0);
  }
  EXPECT_LT(nonzero, 5u);
}

TEST(MultiplyTest, RejectsIncompatibleFilters) {
  SpectralBloomFilter a(MakeOptions(1000, 5, 1));
  SpectralBloomFilter b(MakeOptions(2000, 5, 1));
  EXPECT_FALSE(Multiply(a, b).ok());
}

TEST(MultiplyTest, RejectsFlatBlockedPair) {
  for (const auto& [flat_options, blocked_options] : FlatBlockedPairs()) {
    SpectralBloomFilter flat(flat_options), blocked(blocked_options);
    EXPECT_FALSE(Multiply(flat, blocked).ok());
    EXPECT_FALSE(Multiply(blocked, flat).ok());
  }
}

TEST(MultiplyTest, ExactOnLightLoad) {
  const auto options = MakeOptions(100000, 5, 23);
  SpectralBloomFilter a(options), b(options);
  a.Insert(7, 6);
  b.Insert(7, 9);
  a.Insert(8, 2);  // not in b
  auto product = Multiply(a, b);
  ASSERT_TRUE(product.ok());
  EXPECT_EQ(product.value().Estimate(7), 54u);
  EXPECT_EQ(product.value().Estimate(8), 0u);
}

TEST(MultiplyTest, ProductSaturatesInsteadOfWrapping) {
  // 2^32 occurrences on each side join into 2^64 tuples: the product
  // counters and the total hold at 2^64 - 1 (tallied as clamps) instead of
  // wrapping to 0.
  for (const CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    SbfOptions options = MakeOptions(1000, 5, 31);
    options.backing = backing;
    SpectralBloomFilter a(options), b(options);
    a.Insert(42, uint64_t{1} << 32);
    b.Insert(42, uint64_t{1} << 32);
    auto product = Multiply(a, b);
    ASSERT_TRUE(product.ok());
    EXPECT_EQ(product.value().Estimate(42), ~uint64_t{0})
        << CounterBackingName(backing);
    EXPECT_EQ(product.value().total_items(), ~uint64_t{0} / 5)
        << CounterBackingName(backing);
    EXPECT_GT(product.value().saturation().saturation_clamps, 0u)
        << CounterBackingName(backing);
  }
}

TEST(FilterByThresholdTest, OneSidedSelection) {
  const auto options = MakeOptions(3000, 5, 29);
  SpectralBloomFilter filter(options);
  const Multiset data = MakeZipfMultiset(400, 10000, 1.0, 31);
  for (uint64_t key : data.stream) filter.Insert(key);

  const uint64_t threshold = 50;
  const auto passing = FilterByThreshold(filter, data.keys, threshold);

  // Every truly heavy key must appear.
  std::set<uint64_t> passing_set(passing.begin(), passing.end());
  for (size_t i = 0; i < data.keys.size(); ++i) {
    if (data.freqs[i] >= threshold) {
      ASSERT_TRUE(passing_set.contains(data.keys[i])) << data.keys[i];
    }
  }
  // And the set should not be wildly larger than the true heavy set.
  size_t truly_heavy = 0;
  for (uint64_t f : data.freqs) truly_heavy += (f >= threshold);
  EXPECT_LE(passing.size(), truly_heavy + data.keys.size() / 10);
}

}  // namespace
}  // namespace sbf
