#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/spectral_bloom_filter.h"
#include "io/wire.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

SbfOptions MakeOptions(uint64_t m, uint64_t block_size, uint32_t k,
                       uint64_t seed = 1) {
  SbfOptions options;
  options.m = m;
  options.block_size = block_size;
  options.k = k;
  options.seed = seed;
  options.backing = CounterBacking::kFixed64;
  return options;
}

TEST(BlockedSbfTest, EstimateIsUpperBound) {
  SpectralBloomFilter filter(MakeOptions(4096, 256, 5, 3));
  const Multiset data = MakeZipfMultiset(400, 10000, 0.8, 5);
  for (uint64_t key : data.stream) filter.Insert(key);
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_GE(filter.Estimate(data.keys[i]), data.freqs[i]) << i;
  }
}

TEST(BlockedSbfTest, ExactUnderLightLoad) {
  SpectralBloomFilter filter(MakeOptions(1 << 17, 1 << 10, 5, 7));
  for (uint64_t key = 1; key <= 50; ++key) filter.Insert(key, key);
  for (uint64_t key = 1; key <= 50; ++key) {
    ASSERT_EQ(filter.Estimate(key), key);
  }
}

TEST(BlockedSbfTest, DeletionsAreExactInverses) {
  SpectralBloomFilter filter(MakeOptions(4096, 512, 4, 9));
  const Multiset data = MakeZipfMultiset(200, 4000, 0.5, 11);
  for (uint64_t key : data.stream) filter.Insert(key);
  for (uint64_t key : data.stream) filter.Remove(key);
  for (uint64_t key : data.keys) {
    EXPECT_EQ(filter.Estimate(key), 0u) << key;
  }
}

TEST(BlockedSbfTest, AllProbesStayWithinOneBlock) {
  // The locality property the structure exists for: inserting a key
  // changes counters in exactly one block.
  constexpr uint64_t kBlock = 128;
  SpectralBloomFilter filter(MakeOptions(4096, kBlock, 5, 13));
  for (uint64_t key = 0; key < 500; ++key) {
    SpectralBloomFilter probe(MakeOptions(4096, kBlock, 5, 13));
    probe.Insert(key, 3);
    const uint64_t expected_block = probe.BlockOf(key);
    for (uint64_t b = 0; b < probe.num_blocks(); ++b) {
      if (b == expected_block) {
        ASSERT_GT(probe.BlockLoad(b), 0u) << key;
      } else {
        ASSERT_EQ(probe.BlockLoad(b), 0u) << key << " block " << b;
      }
    }
    if (key >= 20) break;  // 20 keys suffice; the loop body is O(m)
  }
}

TEST(BlockedSbfTest, BlockLoadsRoughlyBalanced) {
  SpectralBloomFilter filter(MakeOptions(8192, 512, 5, 17));
  const Multiset data = MakeUniformMultiset(1000, 20000, 19);
  for (uint64_t key : data.stream) filter.Insert(key);
  const uint64_t total = 20000 * 5;
  const double expected = static_cast<double>(total) / filter.num_blocks();
  for (uint64_t b = 0; b < filter.num_blocks(); ++b) {
    EXPECT_NEAR(filter.BlockLoad(b), expected, expected * 0.5) << b;
  }
}

TEST(BlockedSbfTest, RejectsIndivisibleBlockSize) {
  // Validation runs before any member is built, so each bad geometry dies
  // with the options message rather than inside the hash family or with
  // a zero-size backing.
  EXPECT_DEATH(SpectralBloomFilter(MakeOptions(1000, 300, 5)), "multiple");
  EXPECT_DEATH(SpectralBloomFilter(MakeOptions(0, 256, 5)),
               "SBF needs m >= 1");
  EXPECT_DEATH(SpectralBloomFilter(MakeOptions(4096, 256, 0)),
               "SBF needs 1 <= k <= 64");
  EXPECT_DEATH(SpectralBloomFilter(MakeOptions(4096, 256, 65)),
               "SBF needs 1 <= k <= 64");
  EXPECT_DEATH(SpectralBloomFilter(MakeOptions(4096, 8192, 5)),
               "block size must be 0");
  EXPECT_EQ(ValidateSbfOptions(MakeOptions(4096, 8192, 5)).code(),
            Status::Code::kInvalidArgument);
}

TEST(BlockedSbfTest, FramesDoNotRecordTotalItems) {
  // The blocked frames ('SBbk', 'SBb2') carry the counters but not N, so a
  // loaded blocked filter keeps every estimate and reports total_items()
  // == 0; the flat frame ('SBsf') records N. A frame version that starts
  // recording N for blocked filters must change this test on purpose.
  for (const uint64_t block_size : {uint64_t{0}, uint64_t{256}}) {
    for (const SbfPolicy policy :
         {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
      SbfOptions options = MakeOptions(4096, block_size, 5, 11);
      options.policy = policy;
      SpectralBloomFilter filter(options);
      for (uint64_t key = 1; key <= 40; ++key) filter.Insert(key, key);
      ASSERT_EQ(filter.total_items(), 820u);
      const std::vector<uint8_t> bytes = filter.Serialize();
      auto loaded = SpectralBloomFilter::Deserialize(bytes);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      const SpectralBloomFilter& copy = loaded.value();
      EXPECT_EQ(copy.total_items(), block_size == 0 ? 820u : 0u)
          << copy.Name();
      for (uint64_t key = 1; key <= 40; ++key) {
        ASSERT_EQ(copy.Estimate(key), filter.Estimate(key)) << copy.Name();
      }
      EXPECT_EQ(copy.Serialize(), bytes) << copy.Name();
    }
  }
}

// --- reference digests -----------------------------------------------------
//
// Byte-identity reference over the whole configuration grid: every backing
// x policy x hash kind, flat and blocked (block sizes 8 and 16 are the
// fixed64 / fixed32 SIMD geometries). Each row pins wire::Crc32c of
// Serialize() and of the EstimateBatch output after a seeded Insert /
// InsertBatch / Remove / ExpandTo(2m) workload. The rows were recorded
// with the standalone blocked filter class that the block_size geometry
// of SpectralBloomFilter replaced, so they prove the merge kept every blob
// and estimate. They must hold under every SBF_FORCE_ISA value.
//
// To print a row's digests as computed (e.g. after an intentional format
// change), run the suite: each mismatching row is printed in table syntax.

constexpr uint64_t kDigestM = 4096;
constexpr uint32_t kDigestK = 5;

struct DigestRow {
  uint64_t block_size;  // 0 = flat layout
  CounterBacking backing;
  SbfPolicy policy;
  HashFamily::Kind hash_kind;
  uint32_t serialized_crc;
  uint32_t estimate_crc;
};

std::pair<uint32_t, uint32_t> RunDigestWorkload(SpectralBloomFilter& filter) {
  Xoshiro256 rng(0xD16E57);
  std::vector<uint64_t> singles(600);
  for (uint64_t& key : singles) key = rng.UniformInt(2000);
  for (uint64_t key : singles) filter.Insert(key, 1 + key % 3);
  std::vector<uint64_t> batch(1500);
  for (uint64_t& key : batch) key = rng.UniformInt(2000);
  filter.InsertBatch(batch.data(), batch.size(), 2);
  // A count past the 32-bit add kernel's safe bound: in the fixed32 SIMD
  // geometry these keys take the exact scalar fallback.
  const uint64_t heavy[4] = {7, 11, 13, 17};
  filter.InsertBatch(heavy, 4, uint64_t{3} << 30);
  for (size_t i = 0; i < 200; ++i) {
    filter.Remove(singles[i], 1 + singles[i] % 3);
  }
  EXPECT_TRUE(filter.ExpandTo(2 * kDigestM).ok());
  batch.resize(400);
  for (uint64_t& key : batch) key = rng.UniformInt(4000);
  filter.InsertBatch(batch.data(), batch.size(), 1);
  std::vector<uint64_t> queries(1024);
  for (uint64_t& key : queries) key = rng.UniformInt(4000);
  std::vector<uint64_t> out(queries.size());
  filter.EstimateBatch(queries.data(), queries.size(), out.data());
  return {wire::Crc32c(filter.Serialize()),
          wire::Crc32c(reinterpret_cast<const uint8_t*>(out.data()),
                       out.size() * sizeof(uint64_t))};
}

std::pair<uint32_t, uint32_t> DigestOf(const DigestRow& row) {
  SbfOptions options;
  options.m = kDigestM;
  options.block_size = row.block_size;
  options.k = kDigestK;
  options.backing = row.backing;
  options.policy = row.policy;
  options.hash_kind = row.hash_kind;
  options.seed = 29;
  SpectralBloomFilter filter(options);
  return RunDigestWorkload(filter);
}

constexpr CounterBacking kF64 = CounterBacking::kFixed64;
constexpr CounterBacking kF32 = CounterBacking::kFixed32;
constexpr CounterBacking kCmp = CounterBacking::kCompact;
constexpr CounterBacking kSer = CounterBacking::kSerialScan;
constexpr SbfPolicy kMS = SbfPolicy::kMinimumSelection;
constexpr SbfPolicy kMI = SbfPolicy::kMinimalIncrease;
constexpr HashFamily::Kind kMM = HashFamily::Kind::kModuloMultiply;
constexpr HashFamily::Kind kDM = HashFamily::Kind::kDoubleMix;

// Checks every row; on a mismatch prints the row as computed, in table
// syntax.
void CheckDigestRows(const std::vector<DigestRow>& rows) {
  for (const DigestRow& row : rows) {
    const auto [serialized, estimates] = DigestOf(row);
    EXPECT_EQ(serialized, row.serialized_crc);
    EXPECT_EQ(estimates, row.estimate_crc);
    if (serialized != row.serialized_crc || estimates != row.estimate_crc) {
      constexpr const char* kBackings[] = {"kF64", "kF32", "kCmp", "kSer"};
      std::printf("      {%llu, %s, %s, %s, 0x%08xu, 0x%08xu},\n",
                  static_cast<unsigned long long>(row.block_size),
                  kBackings[static_cast<int>(row.backing)],
                  row.policy == kMS ? "kMS" : "kMI",
                  row.hash_kind == kMM ? "kMM" : "kDM", serialized,
                  estimates);
    }
  }
}

TEST(SpectralDigestTest, FlatGridMatchesReference) {
  CheckDigestRows({
      {0, kF64, kMS, kMM, 0xc028b2c8u, 0xfb3fc963u},
      {0, kF64, kMS, kDM, 0x59f9b4e3u, 0xae0acd89u},
      {0, kF64, kMI, kMM, 0xb485fbf2u, 0xb72c4931u},
      {0, kF64, kMI, kDM, 0xdb1ae822u, 0xbd969fceu},
      {0, kF32, kMS, kMM, 0x880b0791u, 0xfb3fc963u},
      {0, kF32, kMS, kDM, 0xe69332ceu, 0xae0acd89u},
      {0, kF32, kMI, kMM, 0x61092c73u, 0xb72c4931u},
      {0, kF32, kMI, kDM, 0x804a1b2cu, 0xbd969fceu},
      {0, kCmp, kMS, kMM, 0xdd150aa4u, 0xfb3fc963u},
      {0, kCmp, kMS, kDM, 0xb590319du, 0xae0acd89u},
      {0, kCmp, kMI, kMM, 0xffad8779u, 0xb72c4931u},
      {0, kCmp, kMI, kDM, 0x2d88a73du, 0xbd969fceu},
      {0, kSer, kMS, kMM, 0x882fbd52u, 0xfb3fc963u},
      {0, kSer, kMS, kDM, 0x331f8abdu, 0xae0acd89u},
      {0, kSer, kMI, kMM, 0xcc95e37au, 0xb72c4931u},
      {0, kSer, kMI, kDM, 0x0c0b822du, 0xbd969fceu},
  });
}

TEST(SpectralDigestTest, BlockedGridMatchesReference) {
  CheckDigestRows({
      {8, kF64, kMS, kMM, 0xa77e4de4u, 0x4df8382cu},
      {8, kF64, kMS, kDM, 0x41aa01cau, 0x5854cbafu},
      {8, kF64, kMI, kMM, 0xa07c0055u, 0xe3703361u},
      {8, kF64, kMI, kDM, 0xa6aef3b8u, 0x15c176cfu},
      {8, kF32, kMS, kMM, 0x6fc4b4fcu, 0x4df8382cu},
      {8, kF32, kMS, kDM, 0xb258ecb5u, 0x5854cbafu},
      {8, kF32, kMI, kMM, 0x596e2221u, 0xe3703361u},
      {8, kF32, kMI, kDM, 0xe3fddcebu, 0x15c176cfu},
      {8, kCmp, kMS, kMM, 0xfb29d096u, 0x4df8382cu},
      {8, kCmp, kMS, kDM, 0x2f9b1c64u, 0x5854cbafu},
      {8, kCmp, kMI, kMM, 0x4e6159e2u, 0xe3703361u},
      {8, kCmp, kMI, kDM, 0xfb510c4eu, 0x15c176cfu},
      {8, kSer, kMS, kMM, 0xd8a6047au, 0x4df8382cu},
      {8, kSer, kMS, kDM, 0x0c95d119u, 0x5854cbafu},
      {8, kSer, kMI, kMM, 0x23cc9e5bu, 0xe3703361u},
      {8, kSer, kMI, kDM, 0x0a6546cdu, 0x15c176cfu},
      {16, kF64, kMS, kMM, 0x31b3a11bu, 0x37f5e70bu},
      {16, kF64, kMS, kDM, 0x0552f449u, 0xe0666280u},
      {16, kF64, kMI, kMM, 0x2dd731f9u, 0xed34d7fau},
      {16, kF64, kMI, kDM, 0xbd554de6u, 0xf349ca4bu},
      {16, kF32, kMS, kMM, 0xf766b772u, 0x37f5e70bu},
      {16, kF32, kMS, kDM, 0x546e44f8u, 0xe0666280u},
      {16, kF32, kMI, kMM, 0x4d7ed53fu, 0xed34d7fau},
      {16, kF32, kMI, kDM, 0xcf1bb3beu, 0xf349ca4bu},
      {16, kCmp, kMS, kMM, 0xd45835dbu, 0x37f5e70bu},
      {16, kCmp, kMS, kDM, 0x847bcd0fu, 0xe0666280u},
      {16, kCmp, kMI, kMM, 0xde8803c1u, 0xed34d7fau},
      {16, kCmp, kMI, kDM, 0xe22fed28u, 0xf349ca4bu},
      {16, kSer, kMS, kMM, 0x8bbec9ebu, 0x37f5e70bu},
      {16, kSer, kMS, kDM, 0xcb65eae8u, 0xe0666280u},
      {16, kSer, kMI, kMM, 0x4af4f35du, 0xed34d7fau},
      {16, kSer, kMI, kDM, 0xffd6b9d6u, 0xf349ca4bu},
      {256, kF64, kMS, kMM, 0x7dca582bu, 0xbd9e0272u},
      {256, kF64, kMS, kDM, 0x9996bf4bu, 0xfeaada02u},
      {256, kF64, kMI, kMM, 0xf7fe08dau, 0x3c892216u},
      {256, kF64, kMI, kDM, 0xde487dc5u, 0x413d90c6u},
      {256, kF32, kMS, kMM, 0x90e4c53bu, 0xbd9e0272u},
      {256, kF32, kMS, kDM, 0x4d55a0b6u, 0xfeaada02u},
      {256, kF32, kMI, kMM, 0x0ab01366u, 0x3c892216u},
      {256, kF32, kMI, kDM, 0x73c79a78u, 0x413d90c6u},
      {256, kCmp, kMS, kMM, 0x0b313ed8u, 0xbd9e0272u},
      {256, kCmp, kMS, kDM, 0x2f631e22u, 0xfeaada02u},
      {256, kCmp, kMI, kMM, 0x01e9ab8bu, 0x3c892216u},
      {256, kCmp, kMI, kDM, 0x4f3c5767u, 0x413d90c6u},
      {256, kSer, kMS, kMM, 0x1761a298u, 0xbd9e0272u},
      {256, kSer, kMS, kDM, 0xffb98c9bu, 0xfeaada02u},
      {256, kSer, kMI, kMM, 0xa8f5651eu, 0x3c892216u},
      {256, kSer, kMI, kDM, 0xebda5a84u, 0x413d90c6u},
  });
}

class BlockSizeAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BlockSizeAccuracyTest, AccuracyDegradesGracefully) {
  // [MW94]'s claim, inherited by Section 2.2: for large enough blocks the
  // segmentation penalty is negligible. We assert the blocked filter's
  // error ratio stays within a modest factor of the unsegmented SBF.
  const uint64_t block_size = GetParam();
  constexpr uint64_t kM = 8192;
  constexpr uint32_t kK = 5;

  ErrorStats blocked_stats, flat_stats;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Multiset data = MakeZipfMultiset(1000, 30000, 0.5, seed * 101);
    SpectralBloomFilter blocked(MakeOptions(kM, block_size, kK, seed));
    SbfOptions flat_options;
    flat_options.m = kM;
    flat_options.k = kK;
    flat_options.seed = seed;
    flat_options.backing = CounterBacking::kFixed64;
    SpectralBloomFilter flat(flat_options);
    for (uint64_t key : data.stream) {
      blocked.Insert(key);
      flat.Insert(key);
    }
    for (size_t i = 0; i < data.keys.size(); ++i) {
      blocked_stats.Record(blocked.Estimate(data.keys[i]), data.freqs[i]);
      flat_stats.Record(flat.Estimate(data.keys[i]), data.freqs[i]);
    }
  }
  EXPECT_EQ(blocked_stats.num_false_negatives(), 0u);
  EXPECT_LE(blocked_stats.ErrorRatio(),
            std::max(0.02, 4.0 * flat_stats.ErrorRatio()))
      << "block size " << block_size;
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeAccuracyTest,
                         ::testing::Values(256, 512, 1024, 2048, 4096));

}  // namespace
}  // namespace sbf
