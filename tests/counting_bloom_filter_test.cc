// The counting Bloom filter of Fan, Cao, Almeida & Broder [FCAB98] (paper
// Section 1.1.3) is a SpectralBloomFilter under Minimum Selection over the
// kSticky4 backing: 4-bit counters that clamp at 15 and are never
// decremented once saturated. It supports set membership with deletions
// but cannot represent multiplicities above 15.

#include <gtest/gtest.h>

#include <vector>

#include "core/spectral_bloom_filter.h"
#include "hashing/hash_family.h"
#include "util/random.h"

namespace sbf {
namespace {

SpectralBloomFilter MakeCbf(
    uint64_t m, uint32_t k, uint64_t seed = 0,
    HashFamily::Kind kind = HashFamily::Kind::kModuloMultiply) {
  SbfOptions options;
  options.m = m;
  options.k = k;
  options.seed = seed;
  options.hash_kind = kind;
  options.backing = CounterBacking::kSticky4;
  return SpectralBloomFilter(options);
}

TEST(CountingBloomFilterTest, MembershipAfterInsert) {
  SpectralBloomFilter filter = MakeCbf(10000, 5);
  for (uint64_t key = 0; key < 500; ++key) filter.Insert(key);
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_TRUE(filter.Contains(key)) << key;
  }
}

TEST(CountingBloomFilterTest, DeletionRemovesMembership) {
  SpectralBloomFilter filter = MakeCbf(10000, 5, 3);
  filter.Insert(42);
  EXPECT_TRUE(filter.Contains(42));
  filter.Remove(42);
  EXPECT_FALSE(filter.Contains(42));
}

TEST(CountingBloomFilterTest, DeletionKeepsOtherKeys) {
  SpectralBloomFilter filter = MakeCbf(10000, 4, 1);
  for (uint64_t key = 0; key < 300; ++key) filter.Insert(key);
  for (uint64_t key = 0; key < 300; key += 2) filter.Remove(key);
  for (uint64_t key = 1; key < 300; key += 2) {
    ASSERT_TRUE(filter.Contains(key)) << key;
  }
}

TEST(CountingBloomFilterTest, FourBitCountersSaturate) {
  SpectralBloomFilter filter = MakeCbf(100, 2);
  EXPECT_EQ(filter.counters().MaxValue(), 15u);
  filter.Insert(7, 100);  // way past 15
  EXPECT_EQ(filter.Estimate(7), 15u);
  EXPECT_GT(filter.counters().ScanOccupancy().saturated, 0u);
}

TEST(CountingBloomFilterTest, SaturatedCountersSurviveDeletes) {
  // The sticky policy: a saturated counter is never decremented, so
  // deleting cannot create false negatives for other keys.
  SpectralBloomFilter filter = MakeCbf(64, 1, 9);
  filter.Insert(1, 15);
  filter.Insert(2, 15);  // may share the counter; both saturate
  filter.Remove(1, 15);
  // Key 2 must still be present (upper-bound property preserved).
  EXPECT_TRUE(filter.Contains(2));
}

TEST(CountingBloomFilterTest, CannotRepresentLargeMultiplicities) {
  // The paper's core criticism: multiplicities clamp at 15, useless for
  // multi-sets where items appear thousands of times.
  SpectralBloomFilter filter = MakeCbf(10000, 5);
  filter.Insert(99, 5000);
  EXPECT_EQ(filter.Estimate(99), 15u);
}

TEST(CountingBloomFilterTest, MemoryIsFourBitsPerCounter) {
  SpectralBloomFilter filter = MakeCbf(1000, 5);
  EXPECT_LE(filter.MemoryUsageBits(), 4 * 1000 + 64u);
}

TEST(CountingBloomFilterTest, MultisetInsertRemoveStress) {
  SpectralBloomFilter filter = MakeCbf(5000, 3, 17);
  Xoshiro256 rng(2);
  std::vector<uint64_t> counts(100, 0);
  for (int iter = 0; iter < 3000; ++iter) {
    const uint64_t key = rng.UniformInt(100);
    if ((rng.Next() & 1) || counts[key] == 0) {
      filter.Insert(key);
      ++counts[key];
    } else {
      filter.Remove(key);
      --counts[key];
    }
  }
  // No false negatives: every key with a positive count must be present.
  for (uint64_t key = 0; key < 100; ++key) {
    if (counts[key] > 0) {
      ASSERT_TRUE(filter.Contains(key)) << key;
    }
  }
}

TEST(CountingBloomFilterTest, NamedCbfForExperimentTables) {
  EXPECT_EQ(MakeCbf(64, 3).Name(), "CBF");
}

TEST(CountingBloomFilterTest, ValidateRejectsBlockedOrMinimalIncrease) {
  SbfOptions options;
  options.m = 1024;
  options.k = 4;
  options.backing = CounterBacking::kSticky4;
  EXPECT_TRUE(ValidateSbfOptions(options).ok());
  SbfOptions blocked = options;
  blocked.block_size = 64;
  EXPECT_EQ(ValidateSbfOptions(blocked).code(),
            Status::Code::kInvalidArgument);
  SbfOptions mi = options;
  mi.policy = SbfPolicy::kMinimalIncrease;
  EXPECT_EQ(ValidateSbfOptions(mi).code(), Status::Code::kInvalidArgument);
}

// --- reference digest table ------------------------------------------------

uint64_t Fnv(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvWords(const std::vector<uint64_t>& words) {
  uint64_t h = 1469598103934665603ull;
  for (const uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
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
  uint64_t m;
  uint32_t k;
  uint64_t seed;
  int kind;  // 0 = kModuloMultiply, 1 = kDoubleMix
  uint64_t frame_fnv;       // FNV-1a of the 'SBcb' frame bytes
  uint64_t estimates_fnv;   // FNV-1a of the estimates of keys 0..95
  uint64_t saturation_clamps;
  uint64_t underflow_clamps;
};

// Recorded from the standalone counting Bloom filter class this backing
// replaced, on the same streams: the fold keeps every frame byte, every
// estimate and both clamp tallies.
constexpr DigestRow kReference[] = {
    {64, 1, 3, 0, 0xde038cd0ca3bbd87ull, 0xce090a8f88086544ull, 89, 40},
    {64, 1, 3, 1, 0x885f3b76d8092b69ull, 0xde5fcab17562ce6aull, 79, 21},
    {64, 1, 29, 0, 0x72367185b9ff5dd2ull, 0xbd255747b0dffa49ull, 84, 32},
    {64, 1, 29, 1, 0x6df8bb97bdde5b20ull, 0x3da5986a18efc928ull, 82, 32},
    {64, 4, 3, 0, 0x17b26b89d7c6a2e6ull, 0xa9eb46c013d1bc89ull, 666, 16},
    {64, 4, 3, 1, 0xef4bed7378cb41b2ull, 0x799a93615660aa65ull, 667, 36},
    {64, 4, 29, 0, 0x542fda5d2bed7698ull, 0x324008f9754972cfull, 690, 36},
    {64, 4, 29, 1, 0x2a6248a1cb48b5b6ull, 0x4f4c2b092c0c5302ull, 706, 18},
    {64, 5, 3, 0, 0xe2d24eceb45952dbull, 0xae3180c81407b44eull, 972, 23},
    {64, 5, 3, 1, 0x268d772e58f43ce1ull, 0xb916f305dbc82406ull, 987, 27},
    {64, 5, 29, 0, 0xe73b97e57ca0b83cull, 0xbc06adac60e07225ull, 976, 15},
    {64, 5, 29, 1, 0x55faee1fce7b4fbdull, 0x19af7c98e7e2cbc3ull, 955, 4},
    {1000, 1, 3, 0, 0x45b67356403309ffull, 0xee2cefc63e67d7ebull, 39, 46},
    {1000, 1, 3, 1, 0xf5261af9cfc49847ull, 0x7ba06f040c279884ull, 34, 34},
    {1000, 1, 29, 0, 0x2096b3fa8b8904b6ull, 0x8b263e0656cc21c1ull, 36, 45},
    {1000, 1, 29, 1, 0xd082615f46b9852cull, 0x111860eedef65228ull, 44, 48},
    {1000, 4, 3, 0, 0x966b4b658f3f1ca6ull, 0x387514f97d421e46ull, 192, 195},
    {1000, 4, 3, 1, 0x1833ac94f537c91eull, 0x8b124d978c88ba80ull, 200, 146},
    {1000, 4, 29, 0, 0xc2708bf7c6c4f804ull, 0x3aedb697d8a30509ull, 152, 179},
    {1000, 4, 29, 1, 0xc048f6331ba61dcdull, 0x9140588c39f85002ull, 202, 154},
    {1000, 5, 3, 0, 0x9e15ad5b14d98817ull, 0xb1bf301b1fe4ac29ull, 266, 237},
    {1000, 5, 3, 1, 0x92ecf214ab5fab87ull, 0x4e2a996218c19ae2ull, 254, 216},
    {1000, 5, 29, 0, 0x2d46b67ec1e907b9ull, 0xb5b6ffd19427fb44ull, 215, 196},
    {1000, 5, 29, 1, 0xdd31fb117c64bfbaull, 0xd39e6c6b457ba14eull, 260, 185},
    {4096, 1, 3, 0, 0x7c799cea2bdfcd71ull, 0x6def19904b2f4b81ull, 35, 49},
    {4096, 1, 3, 1, 0x73e20d1eb2ba2d1eull, 0x2d2137fa3e38cbafull, 33, 44},
    {4096, 1, 29, 0, 0xfe71bc95b3d3da61ull, 0xabfa13617a2a18c1ull, 27, 51},
    {4096, 1, 29, 1, 0x33085cf575b75c11ull, 0x881e3f7ba1767ee6ull, 35, 44},
    {4096, 4, 3, 0, 0x615d51b77f8aa50full, 0x95c69458bf504144ull, 141, 185},
    {4096, 4, 3, 1, 0xe3094e779c235ddeull, 0x7e363fdc260f8a6aull, 172, 199},
    {4096, 4, 29, 0, 0xde89622ee497f457ull, 0xb6e5142623a76b04ull, 128, 169},
    {4096, 4, 29, 1, 0x845e994d655447b1ull, 0xb544ab993a1864e6ull, 100, 195},
    {4096, 5, 3, 0, 0x8a955d13a169fd93ull, 0x186755145e719d63ull, 221, 194},
    {4096, 5, 3, 1, 0xf44a7ff59f7e9e9bull, 0xd44eb293c96565a1ull, 197, 216},
    {4096, 5, 29, 0, 0x0712337b96f4eab1ull, 0x0304e2df888bb24cull, 200, 278},
    {4096, 5, 29, 1, 0xdd15b7bcec6cc361ull, 0xf4a6608252d1a265ull, 185, 222},
};

TEST(CountingBloomFilterTest, MatchesReferenceDigestTable) {
  for (const DigestRow& row : kReference) {
    SCOPED_TRACE(testing::Message() << "m=" << row.m << " k=" << row.k
                                    << " seed=" << row.seed
                                    << " kind=" << row.kind);
    SpectralBloomFilter filter =
        MakeCbf(row.m, row.k, row.seed,
                row.kind == 0 ? HashFamily::Kind::kModuloMultiply
                              : HashFamily::Kind::kDoubleMix);
    // Duplicate-heavy stream over 48 keys: a batch of single inserts,
    // scalar inserts of up to 6 occurrences (saturating the counters),
    // then removes over 64 keys (sticky counters stay, the rest clamp).
    uint64_t s = row.m * 1000003u + row.k * 101u + row.seed * 7u + row.kind;
    std::vector<uint64_t> batch(240);
    for (auto& key : batch) key = NextSplitMix(s) % 48;
    filter.InsertBatch(batch.data(), batch.size());
    for (int i = 0; i < 120; ++i) {
      const uint64_t r = NextSplitMix(s);
      filter.Insert(r % 48, 1 + (r >> 32) % 6);
    }
    for (int i = 0; i < 150; ++i) {
      const uint64_t r = NextSplitMix(s);
      filter.Remove(r % 64, 1 + (r >> 32) % 4);
    }
    std::vector<uint64_t> probes(96);
    for (uint64_t i = 0; i < probes.size(); ++i) probes[i] = i;
    std::vector<uint64_t> scalar(probes.size());
    std::vector<uint64_t> batched(probes.size());
    for (size_t i = 0; i < probes.size(); ++i) {
      scalar[i] = filter.Estimate(probes[i]);
    }
    filter.EstimateBatch(probes.data(), probes.size(), batched.data());

    EXPECT_EQ(Fnv(filter.Serialize()), row.frame_fnv);
    EXPECT_EQ(FnvWords(scalar), row.estimates_fnv);
    EXPECT_EQ(FnvWords(batched), row.estimates_fnv);
    EXPECT_EQ(filter.saturation().saturation_clamps, row.saturation_clamps);
    EXPECT_EQ(filter.saturation().underflow_clamps, row.underflow_clamps);
  }
}

}  // namespace
}  // namespace sbf
