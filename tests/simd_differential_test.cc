// SIMD kernel differential suite: every entry point of every supported
// ISA variant must be bit-identical to the generic scalar reference —
// including the accept/reject decision of the mutating kernels, which is
// part of the saturation contract (core/simd_kernels.h). On top of the
// kernel-level checks, whole-filter differentials pin the batched SIMD
// pipelines of SpectralBloomFilter, blocked and flat, to their scalar paths
// via the SBF_FORCE_ISA test hook (ForceIsa), covering unaligned tails,
// duplicate-heavy streams and counters at/near saturation.
//
// scripts/sbf_lint.py's simd-differential rule checks that every kernel
// field of simd::BlockKernels is exercised by name in this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/simd_kernels.h"
#include "core/spectral_bloom_filter.h"
#include "util/random.h"

namespace sbf {
namespace {

using simd::BlockKernels;
using simd::Isa;

// Restores the dispatch table after each test (ForceIsa is process-global).
class SimdDifferentialTest : public ::testing::Test {
 protected:
  ~SimdDifferentialTest() override { simd::ForceIsa(simd::BestSupportedIsa()); }
};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (Isa isa : {Isa::kGeneric, Isa::kAvx2}) {
    if (simd::IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

const BlockKernels& Table(Isa isa) {
  return isa == Isa::kAvx2 ? *simd::internal::Avx2KernelTable()
                           : *simd::internal::GenericKernelTable();
}

// The estimate over one block written out in the test: the min of the k
// lanes one multiply-shift round selects (simd_kernels.h), 32-bit lanes
// packed two per word, low half first.
uint64_t ScalarBlockMin64(const uint64_t* block, const uint64_t* alphas,
                          uint32_t k, uint64_t mixed) {
  uint64_t min_value = ~uint64_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    min_value = std::min(min_value,
                         block[(alphas[j] * mixed) >> simd::kLaneShift64]);
  }
  return min_value;
}

uint64_t ScalarBlockMin32(const uint64_t* block, const uint64_t* alphas,
                          uint32_t k, uint64_t mixed) {
  uint64_t min_value = 0xFFFFFFFFull;
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t lane = (alphas[j] * mixed) >> simd::kLaneShift32;
    min_value = std::min(min_value,
                         (block[lane >> 1] >> ((lane & 1) * 32)) & 0xFFFFFFFF);
  }
  return min_value;
}

// One random kernel scenario: a 64-byte block, k odd alphas, a mixed key.
struct Scenario {
  uint64_t block[8];
  uint64_t alphas[HashFamily::kMaxK];
  uint64_t mixed;
  uint32_t k;
};

Scenario RandomScenario(Xoshiro256& rng, bool near_saturation_64,
                        bool near_saturation_32) {
  Scenario s;
  for (uint64_t& w : s.block) {
    w = rng.Next();
    if (near_saturation_64 && rng.UniformInt(2) == 0) {
      w = ~uint64_t{0} - rng.UniformInt(4);
    }
    if (near_saturation_32) {
      // Drive individual 32-bit lanes to/near their max.
      for (int half = 0; half < 2; ++half) {
        if (rng.UniformInt(3) == 0) {
          const uint64_t lane = 0xFFFFFFFFull - rng.UniformInt(4);
          w = (w & ~(0xFFFFFFFFull << (32 * half))) | (lane << (32 * half));
        }
      }
    }
  }
  // k beyond the lane count forces duplicate in-block offsets, the case
  // whose multiplicity accounting the add kernels must get right.
  s.k = 1 + static_cast<uint32_t>(rng.UniformInt(HashFamily::kMaxK));
  for (uint32_t j = 0; j < s.k; ++j) s.alphas[j] = rng.Next() | 1;
  s.mixed = rng.Next();
  return s;
}

uint64_t RandomCount(Xoshiro256& rng) {
  switch (rng.UniformInt(6)) {
    case 0:
      return 1;
    case 1:
      return 1 + rng.UniformInt(1000);
    case 2:  // straddles the add32 safe-count bound
      return simd::kSimdSafeCount32 - 2 + rng.UniformInt(5);
    case 3:  // straddles the add64 safe-count bound
      return simd::kSimdSafeCount64 - 2 + rng.UniformInt(5);
    case 4:  // large enough to wrap most 64-bit lift targets
      return ~uint64_t{0} - rng.UniformInt(1000);
    default:
      return rng.Next();
  }
}

// batch_min over a batch of one: each ISA's single-key estimate must equal
// the scalar min, on blocks at and near both lane widths' saturation.
TEST_F(SimdDifferentialTest, BlockedMinMatchesGeneric) {
  Xoshiro256 rng(101);
  const uint64_t base = 0;
  for (Isa isa : SupportedIsas()) {
    const BlockKernels& kn = Table(isa);
    for (int trial = 0; trial < 4000; ++trial) {
      const Scenario s =
          RandomScenario(rng, trial % 3 == 0, trial % 5 == 0);
      uint64_t got = 0;
      kn.batch_min64(s.block, &base, &s.mixed, 1, s.alphas, s.k, &got);
      ASSERT_EQ(got, ScalarBlockMin64(s.block, s.alphas, s.k, s.mixed))
          << simd::IsaName(isa) << " trial " << trial;
      kn.batch_min32(s.block, &base, &s.mixed, 1, s.alphas, s.k, &got);
      ASSERT_EQ(got, ScalarBlockMin32(s.block, s.alphas, s.k, s.mixed))
          << simd::IsaName(isa) << " trial " << trial;
    }
  }
}

// Runs one mutating kernel against the generic reference on the same
// scenario: return codes must agree, accepted blocks must be identical,
// and a rejecting kernel must leave its block untouched.
template <typename Field>
void CheckMutatingKernel(const BlockKernels& kn, const BlockKernels& ref,
                         Field field, const Scenario& s, uint64_t count,
                         const char* what) {
  uint64_t mine[8];
  uint64_t theirs[8];
  std::memcpy(mine, s.block, sizeof(mine));
  std::memcpy(theirs, s.block, sizeof(theirs));
  const int got = (kn.*field)(mine, s.alphas, s.k, s.mixed, count);
  const int want = (ref.*field)(theirs, s.alphas, s.k, s.mixed, count);
  ASSERT_EQ(got, want) << what << ": accept/reject diverged (count=" << count
                       << ")";
  if (want == 0) {
    // Rejected: the contract says nothing may have been written.
    ASSERT_EQ(std::memcmp(mine, s.block, sizeof(mine)), 0)
        << what << ": rejecting kernel wrote to the block";
  }
  ASSERT_EQ(std::memcmp(mine, theirs, sizeof(mine)), 0)
      << what << ": block contents diverged (count=" << count << ")";
}

TEST_F(SimdDifferentialTest, BlockedAddMatchesGeneric) {
  const BlockKernels& ref = *simd::internal::GenericKernelTable();
  Xoshiro256 rng(202);
  for (Isa isa : SupportedIsas()) {
    const BlockKernels& kn = Table(isa);
    for (int trial = 0; trial < 4000; ++trial) {
      const Scenario s =
          RandomScenario(rng, trial % 3 == 0, trial % 5 == 0);
      const uint64_t count = RandomCount(rng);
      CheckMutatingKernel(kn, ref, &BlockKernels::blocked_add64, s, count,
                          simd::IsaName(isa));
      CheckMutatingKernel(kn, ref, &BlockKernels::blocked_add32, s, count,
                          simd::IsaName(isa));
    }
  }
}

TEST_F(SimdDifferentialTest, BlockedLiftMatchesGeneric) {
  const BlockKernels& ref = *simd::internal::GenericKernelTable();
  Xoshiro256 rng(303);
  for (Isa isa : SupportedIsas()) {
    const BlockKernels& kn = Table(isa);
    for (int trial = 0; trial < 4000; ++trial) {
      const Scenario s =
          RandomScenario(rng, trial % 3 == 0, trial % 5 == 0);
      const uint64_t count = RandomCount(rng);
      CheckMutatingKernel(kn, ref, &BlockKernels::blocked_lift64, s, count,
                          simd::IsaName(isa));
      CheckMutatingKernel(kn, ref, &BlockKernels::blocked_lift32, s, count,
                          simd::IsaName(isa));
    }
  }
}

// batch_min64/batch_min32 over whole chunks must equal the scalar min per
// key and the generic table: every k from 1 to 8 (the AVX2 table
// specializes 3..7) plus random k up to kMaxK, unaligned chunk lengths,
// and duplicate-heavy lanes — a few blocks and key digests repeated
// across the batch, so many keys land on the same lanes.
TEST_F(SimdDifferentialTest, BatchMinMatchesPerBlockKernels) {
  const BlockKernels& ref = *simd::internal::GenericKernelTable();
  Xoshiro256 rng(505);
  constexpr size_t kBlocks = 64;
  std::vector<uint64_t> words(kBlocks * 8);
  for (uint64_t& w : words) w = rng.Next();
  for (Isa isa : SupportedIsas()) {
    const BlockKernels& kn = Table(isa);
    for (int trial = 0; trial < 240; ++trial) {
      const uint32_t k =
          trial % 2 == 0
              ? 1 + static_cast<uint32_t>(trial / 2 % 8)
              : 1 + static_cast<uint32_t>(rng.UniformInt(HashFamily::kMaxK));
      uint64_t alphas[HashFamily::kMaxK];
      for (uint32_t j = 0; j < k; ++j) alphas[j] = rng.Next() | 1;
      const size_t n = 1 + rng.UniformInt(97);  // odd tails included
      const bool duplicate_heavy = trial % 3 == 0;
      const uint64_t hot_mixes[3] = {rng.Next(), rng.Next(), rng.Next()};
      std::vector<uint64_t> bases(n);
      std::vector<uint64_t> mixes(n);
      for (size_t i = 0; i < n; ++i) {
        bases[i] = rng.UniformInt(duplicate_heavy ? 2 : kBlocks) * 8;
        mixes[i] = duplicate_heavy ? hot_mixes[rng.UniformInt(3)] : rng.Next();
      }
      std::vector<uint64_t> got(n);
      std::vector<uint64_t> want(n);
      kn.batch_min64(words.data(), bases.data(), mixes.data(), n, alphas, k,
                     got.data());
      ref.batch_min64(words.data(), bases.data(), mixes.data(), n, alphas, k,
                      want.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], ScalarBlockMin64(words.data() + bases[i], alphas, k,
                                           mixes[i]))
            << simd::IsaName(isa) << " batch_min64 k=" << k << " i=" << i;
        ASSERT_EQ(got[i], want[i]) << simd::IsaName(isa) << " batch_min64 i="
                                   << i;
      }
      kn.batch_min32(words.data(), bases.data(), mixes.data(), n, alphas, k,
                     got.data());
      ref.batch_min32(words.data(), bases.data(), mixes.data(), n, alphas, k,
                      want.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], ScalarBlockMin32(words.data() + bases[i], alphas, k,
                                           mixes[i]))
            << simd::IsaName(isa) << " batch_min32 k=" << k << " i=" << i;
        ASSERT_EQ(got[i], want[i]) << simd::IsaName(isa) << " batch_min32 i="
                                   << i;
      }
    }
  }
}

TEST_F(SimdDifferentialTest, GatherMinMatchesGeneric) {
  const BlockKernels& ref = *simd::internal::GenericKernelTable();
  Xoshiro256 rng(404);
  std::vector<uint64_t> words(1024);
  for (uint64_t& w : words) w = rng.Next();
  for (Isa isa : SupportedIsas()) {
    const BlockKernels& kn = Table(isa);
    for (int trial = 0; trial < 4000; ++trial) {
      const uint32_t k =
          1 + static_cast<uint32_t>(rng.UniformInt(HashFamily::kMaxK));
      uint64_t pos64[HashFamily::kMaxK];
      uint64_t pos32[HashFamily::kMaxK];
      for (uint32_t j = 0; j < k; ++j) {
        pos64[j] = rng.UniformInt(words.size());
        pos32[j] = rng.UniformInt(words.size() * 2);
      }
      ASSERT_EQ(kn.gather_min64(words.data(), pos64, k),
                ref.gather_min64(words.data(), pos64, k))
          << simd::IsaName(isa) << " trial " << trial;
      ASSERT_EQ(kn.gather_min32(words.data(), pos32, k),
                ref.gather_min32(words.data(), pos32, k))
          << simd::IsaName(isa) << " trial " << trial;
    }
  }
}

// --- whole-filter differentials --------------------------------------------

struct FilterCase {
  CounterBacking backing;
  uint64_t block_size;
  SbfPolicy policy;
};

std::vector<FilterCase> SimdFilterCases() {
  return {{CounterBacking::kFixed64, 8, SbfPolicy::kMinimumSelection},
          {CounterBacking::kFixed64, 8, SbfPolicy::kMinimalIncrease},
          {CounterBacking::kFixed32, 16, SbfPolicy::kMinimumSelection},
          {CounterBacking::kFixed32, 16, SbfPolicy::kMinimalIncrease}};
}

SpectralBloomFilter MakeBlocked(const FilterCase& fc) {
  SbfOptions options;
  options.m = 1 << 12;
  options.block_size = fc.block_size;
  options.k = 5;
  options.seed = 99;
  options.backing = fc.backing;
  options.policy = fc.policy;
  return SpectralBloomFilter(options);
}

// A duplicate-heavy stream whose length is NOT a multiple of any SIMD lane
// width: the pipeline's ring head and tail handling must stay exact.
std::vector<uint64_t> DuplicateHeavyKeys(size_t n, uint64_t key_space,
                                         uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> keys(n);
  for (uint64_t& key : keys) key = rng.UniformInt(key_space);
  return keys;
}

TEST_F(SimdDifferentialTest, BlockedBatchMatchesScalarAcrossIsas) {
  const std::vector<uint64_t> keys = DuplicateHeavyKeys(1003, 120, 7);
  for (const FilterCase& fc : SimdFilterCases()) {
    // Scalar ground truth: kernels off, scalar ops.
    simd::ForceIsa(Isa::kDisabled);
    SpectralBloomFilter reference = MakeBlocked(fc);
    for (uint64_t key : keys) reference.Insert(key, 3);
    std::vector<uint64_t> want(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      want[i] = reference.Estimate(keys[i]);
    }
    const std::vector<uint8_t> want_bytes = reference.Serialize();

    for (Isa isa : SupportedIsas()) {
      simd::ForceIsa(isa);
      SpectralBloomFilter filter = MakeBlocked(fc);
      filter.InsertBatch(keys.data(), keys.size(), 3);
      std::vector<uint64_t> got(keys.size());
      filter.EstimateBatch(keys.data(), keys.size(), got.data());
      ASSERT_EQ(got, want) << simd::IsaName(isa);
      // Byte-exact state: same counters, same saturation tallies.
      ASSERT_EQ(filter.Serialize(), want_bytes) << simd::IsaName(isa);
      ASSERT_EQ(filter.saturation().saturation_clamps,
                reference.saturation().saturation_clamps)
          << simd::IsaName(isa);
    }
  }
}

TEST_F(SimdDifferentialTest, BlockedBatchSaturationMatchesScalar) {
  // Counts sized to drive fixed32 counters onto MaxValue() and the 64-bit
  // MI lift target onto its 2^64-1 clamp — every key takes the kernels'
  // reject path, which must be bit- and tally-identical to scalar.
  const std::vector<uint64_t> keys = DuplicateHeavyKeys(517, 40, 11);
  const uint64_t huge = ~uint64_t{0} / 2 + 3;
  for (const FilterCase& fc : SimdFilterCases()) {
    simd::ForceIsa(Isa::kDisabled);
    SpectralBloomFilter reference = MakeBlocked(fc);
    for (int round = 0; round < 3; ++round) {
      for (uint64_t key : keys) reference.Insert(key, huge);
    }
    const std::vector<uint8_t> want_bytes = reference.Serialize();

    for (Isa isa : SupportedIsas()) {
      simd::ForceIsa(isa);
      SpectralBloomFilter filter = MakeBlocked(fc);
      for (int round = 0; round < 3; ++round) {
        filter.InsertBatch(keys.data(), keys.size(), huge);
      }
      ASSERT_EQ(filter.Serialize(), want_bytes) << simd::IsaName(isa);
      ASSERT_EQ(filter.saturation().saturation_clamps,
                reference.saturation().saturation_clamps)
          << simd::IsaName(isa);
      ASSERT_EQ(filter.saturation().underflow_clamps,
                reference.saturation().underflow_clamps)
          << simd::IsaName(isa);
    }
  }
}

TEST_F(SimdDifferentialTest, BlockedUnalignedTailLengths) {
  // Every n in [1, 40) exercises a different tail against the 8- and
  // 16-lane geometries and the W=8 pipeline ring.
  const std::vector<uint64_t> all_keys = DuplicateHeavyKeys(40, 25, 13);
  for (const FilterCase& fc : SimdFilterCases()) {
    for (size_t n = 1; n < all_keys.size(); ++n) {
      simd::ForceIsa(Isa::kDisabled);
      SpectralBloomFilter reference = MakeBlocked(fc);
      for (size_t i = 0; i < n; ++i) reference.Insert(all_keys[i], 2);
      std::vector<uint64_t> want(n);
      for (size_t i = 0; i < n; ++i) {
        want[i] = reference.Estimate(all_keys[i]);
      }
      for (Isa isa : SupportedIsas()) {
        simd::ForceIsa(isa);
        SpectralBloomFilter filter = MakeBlocked(fc);
        filter.InsertBatch(all_keys.data(), n, 2);
        std::vector<uint64_t> got(n);
        filter.EstimateBatch(all_keys.data(), n, got.data());
        ASSERT_EQ(got, want) << simd::IsaName(isa) << " n=" << n;
      }
    }
  }
}

TEST_F(SimdDifferentialTest, SbfGatherEstimateMatchesScalarAcrossIsas) {
  const std::vector<uint64_t> keys = DuplicateHeavyKeys(1003, 200, 17);
  for (CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32}) {
    SbfOptions options;
    options.m = 4096;
    options.k = 5;
    options.seed = 5;
    options.backing = backing;

    simd::ForceIsa(Isa::kDisabled);
    SpectralBloomFilter reference(options);
    reference.InsertBatch(keys.data(), keys.size(), 7);
    std::vector<uint64_t> want(keys.size());
    reference.EstimateBatch(keys.data(), keys.size(), want.data());

    for (Isa isa : SupportedIsas()) {
      simd::ForceIsa(isa);
      SpectralBloomFilter filter(options);
      filter.InsertBatch(keys.data(), keys.size(), 7);
      std::vector<uint64_t> got(keys.size());
      filter.EstimateBatch(keys.data(), keys.size(), got.data());
      ASSERT_EQ(got, want) << simd::IsaName(isa);
    }
  }
}

TEST_F(SimdDifferentialTest, NonSimdGeometriesUnaffectedByForceIsa) {
  // A geometry the kernels cannot serve (block_size 4) must produce the
  // same results whatever ISA is forced — it always takes the legacy path.
  SbfOptions options;
  options.m = 1 << 10;
  options.block_size = 4;
  options.k = 3;
  options.seed = 21;
  options.backing = CounterBacking::kFixed64;
  const std::vector<uint64_t> keys = DuplicateHeavyKeys(333, 50, 19);

  simd::ForceIsa(Isa::kDisabled);
  SpectralBloomFilter reference(options);
  reference.InsertBatch(keys.data(), keys.size(), 1);
  const std::vector<uint8_t> want_bytes = reference.Serialize();

  for (Isa isa : SupportedIsas()) {
    simd::ForceIsa(isa);
    SpectralBloomFilter filter(options);
    filter.InsertBatch(keys.data(), keys.size(), 1);
    ASSERT_EQ(filter.Serialize(), want_bytes) << simd::IsaName(isa);
  }
}

TEST_F(SimdDifferentialTest, DispatchReportsSupportedTable) {
  const BlockKernels& active = simd::Active();
  ASSERT_TRUE(simd::IsaSupported(active.isa));
  ASSERT_TRUE(simd::IsaSupported(Isa::kDisabled));
  ASSERT_TRUE(simd::IsaSupported(Isa::kGeneric));
  ASSERT_EQ(simd::BestSupportedIsa(),
            simd::IsaSupported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kGeneric);
  // Forcing each of the three tiers must round-trip through Active(); an
  // unsupported one falls back to the best supported table.
  for (Isa isa : {Isa::kDisabled, Isa::kGeneric, Isa::kAvx2}) {
    simd::ForceIsa(isa);
    const Isa want = simd::IsaSupported(isa) ? isa : simd::BestSupportedIsa();
    ASSERT_EQ(simd::Active().isa, want) << simd::IsaName(isa);
    ASSERT_EQ(simd::Active().enabled, want != Isa::kDisabled)
        << simd::IsaName(isa);
  }
  EXPECT_STREQ(simd::IsaName(Isa::kDisabled), "disabled");
  EXPECT_STREQ(simd::IsaName(Isa::kGeneric), "generic");
  EXPECT_STREQ(simd::IsaName(Isa::kAvx2), "avx2");
}

}  // namespace
}  // namespace sbf
