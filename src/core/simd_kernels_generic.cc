#include "core/simd_kernels.h"

#include "hashing/hash_family.h"

// Portable scalar reference kernels — the semantic ground truth every
// vector variant is differentially tested against. Each function here IS
// the contract: identical lane selection (one multiply-shift round per
// probe), identical min/add/lift results, and identical accept/reject
// predicates (simd_kernels.h, saturation contract).

namespace sbf::simd {
namespace {

inline uint32_t Lane64(uint64_t alpha, uint64_t mixed) {
  // (alpha * mixed) * 8 >> 64 == high 3 bits of the 64-bit fraction.
  return static_cast<uint32_t>((alpha * mixed) >> kLaneShift64);
}

inline uint32_t Lane32(uint64_t alpha, uint64_t mixed) {
  return static_cast<uint32_t>((alpha * mixed) >> kLaneShift32);
}

// 32-bit counter lanes packed two per backing word, low half first
// (matches FixedWidthCounterVector's LSB-first bit layout).
inline uint32_t GetLane32(const uint64_t* block, uint32_t lane) {
  return static_cast<uint32_t>(block[lane >> 1] >> ((lane & 1u) * 32));
}

inline void SetLane32(uint64_t* block, uint32_t lane, uint32_t value) {
  const uint32_t shift = (lane & 1u) * 32;
  block[lane >> 1] =
      (block[lane >> 1] & ~(uint64_t{0xFFFFFFFF} << shift)) |
      (uint64_t{value} << shift);
}

// Min of the k selected lanes of one block, inlined into the batch loops.
[[gnu::always_inline]] inline uint64_t Min64Body(const uint64_t* block,
                                                 const uint64_t* alphas,
                                                 uint32_t k, uint64_t mixed) {
  uint64_t min_value = ~uint64_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t v = block[Lane64(alphas[j], mixed)];
    min_value = v < min_value ? v : min_value;
  }
  return min_value;
}

[[gnu::always_inline]] inline uint64_t Min32Body(const uint64_t* block,
                                                 const uint64_t* alphas,
                                                 uint32_t k, uint64_t mixed) {
  uint32_t min_value = ~uint32_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    const uint32_t v = GetLane32(block, Lane32(alphas[j], mixed));
    min_value = v < min_value ? v : min_value;
  }
  return min_value;
}

int GenericBlockedAdd64(uint64_t* block, const uint64_t* alphas, uint32_t k,
                        uint64_t mixed, uint64_t count) {
  if (count > kSimdSafeCount64) return 0;
  uint8_t mult[kBlockLanes64] = {};
  for (uint32_t j = 0; j < k; ++j) ++mult[Lane64(alphas[j], mixed)];
  uint64_t sum[kBlockLanes64];
  for (uint32_t lane = 0; lane < kBlockLanes64; ++lane) {
    // mult <= 64 and count <= 2^57, so the product itself cannot wrap;
    // only the final add can, and that is exactly the clamp case.
    sum[lane] = block[lane] + mult[lane] * count;
    if (sum[lane] < block[lane]) return 0;
  }
  for (uint32_t lane = 0; lane < kBlockLanes64; ++lane) block[lane] = sum[lane];
  return 1;
}

int GenericBlockedAdd32(uint64_t* block, const uint64_t* alphas, uint32_t k,
                        uint64_t mixed, uint64_t count) {
  if (count > kSimdSafeCount32) return 0;
  uint8_t mult[kBlockLanes32] = {};
  for (uint32_t j = 0; j < k; ++j) ++mult[Lane32(alphas[j], mixed)];
  uint32_t sum[kBlockLanes32];
  for (uint32_t lane = 0; lane < kBlockLanes32; ++lane) {
    const uint64_t wide =
        uint64_t{GetLane32(block, lane)} + mult[lane] * count;
    if (wide > 0xFFFFFFFFull) return 0;
    sum[lane] = static_cast<uint32_t>(wide);
  }
  for (uint32_t lane = 0; lane < kBlockLanes32; ++lane) {
    SetLane32(block, lane, sum[lane]);
  }
  return 1;
}

int GenericBlockedLift64(uint64_t* block, const uint64_t* alphas, uint32_t k,
                         uint64_t mixed, uint64_t count) {
  uint32_t lanes[HashFamily::kMaxK];
  uint64_t min_value = ~uint64_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    lanes[j] = Lane64(alphas[j], mixed);
    const uint64_t v = block[lanes[j]];
    min_value = v < min_value ? v : min_value;
  }
  // A wrapping lift target saturates (and tallies) in the scalar path.
  if (count > ~uint64_t{0} - min_value) return 0;
  const uint64_t target = min_value + count;
  for (uint32_t j = 0; j < k; ++j) {
    if (block[lanes[j]] < target) block[lanes[j]] = target;
  }
  return 1;
}

int GenericBlockedLift32(uint64_t* block, const uint64_t* alphas, uint32_t k,
                         uint64_t mixed, uint64_t count) {
  uint32_t lanes[HashFamily::kMaxK];
  uint64_t min_value = ~uint64_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    lanes[j] = Lane32(alphas[j], mixed);
    const uint64_t v = GetLane32(block, lanes[j]);
    min_value = v < min_value ? v : min_value;
  }
  if (count > ~uint64_t{0} - min_value) return 0;
  const uint64_t target = min_value + count;
  // A target past the 32-bit max would clamp (and tally) per lifted lane.
  if (target > 0xFFFFFFFFull) return 0;
  const uint32_t target32 = static_cast<uint32_t>(target);
  for (uint32_t j = 0; j < k; ++j) {
    if (GetLane32(block, lanes[j]) < target32) {
      SetLane32(block, lanes[j], target32);
    }
  }
  return 1;
}

void GenericBatchMin64(const uint64_t* words, const uint64_t* bases,
                       const uint64_t* mixes, size_t n,
                       const uint64_t* alphas, uint32_t k, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Min64Body(words + bases[i], alphas, k, mixes[i]);
  }
}

void GenericBatchMin32(const uint64_t* words, const uint64_t* bases,
                       const uint64_t* mixes, size_t n,
                       const uint64_t* alphas, uint32_t k, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = Min32Body(words + bases[i], alphas, k, mixes[i]);
  }
}

uint64_t GenericGatherMin64(const uint64_t* words, const uint64_t* pos,
                            uint32_t k) {
  uint64_t min_value = ~uint64_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t v = words[pos[j]];
    min_value = v < min_value ? v : min_value;
  }
  return min_value;
}

uint64_t GenericGatherMin32(const uint64_t* words, const uint64_t* pos,
                            uint32_t k) {
  uint32_t min_value = ~uint32_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t p = pos[j];
    const uint32_t v =
        static_cast<uint32_t>(words[p >> 1] >> ((p & 1u) * 32));
    min_value = v < min_value ? v : min_value;
  }
  return min_value;
}

constexpr BlockKernels kGenericTable = {
    GenericBlockedAdd64, GenericBlockedAdd32,
    GenericBlockedLift64, GenericBlockedLift32,
    GenericGatherMin64, GenericGatherMin32,
    GenericBatchMin64, GenericBatchMin32,
    Isa::kGeneric, /*enabled=*/true,
};

constexpr BlockKernels kDisabledTable = {
    GenericBlockedAdd64, GenericBlockedAdd32,
    GenericBlockedLift64, GenericBlockedLift32,
    GenericGatherMin64, GenericGatherMin32,
    GenericBatchMin64, GenericBatchMin32,
    Isa::kDisabled, /*enabled=*/false,
};

}  // namespace

namespace internal {

const BlockKernels* GenericKernelTable() noexcept { return &kGenericTable; }
const BlockKernels* DisabledKernelTable() noexcept { return &kDisabledTable; }

}  // namespace internal
}  // namespace sbf::simd
