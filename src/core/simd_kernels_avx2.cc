#include "core/simd_kernels.h"

// AVX2 block kernels. This translation unit is compiled with -mavx2 (see
// src/CMakeLists.txt); its functions are only ever reached through the
// dispatch table after a runtime __builtin_cpu_supports("avx2") check, so
// executing them on a non-AVX2 CPU is impossible by construction.
//
// Techniques (DESIGN.md "SIMD block kernels"):
//   * the whole 64-byte block is loaded as two 256-bit vectors and lanes
//     are SELECTED, never gathered: the k in-block offsets collapse into a
//     lane bitmask (k scalar multiply-shifts, ~3 uops each), the bitmask
//     broadcasts against per-lane bit constants, and a compare + blend
//     keeps the selected lanes. On a single cache line this beats
//     vpgatherqq soundly — the gather's per-element latency buys nothing
//     when every element is already in one L1 line;
//   * unsigned 64-bit min/compare built from signed compares with the
//     sign bit flipped (AVX2 has no unsigned 64-bit compare);
//   * Minimum Selection multiplicities accumulated as one byte per lane
//     packed in a uint64 (lane's byte += 1), then widened back to vector
//     lanes (cvtepu8) for the multiply-add — duplicates among the k
//     probes get their exact multiple in one pass.

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace sbf::simd {
namespace {

constexpr int64_t kSignBit = static_cast<int64_t>(0x8000000000000000ull);

inline __m256i Mul64Lo(__m256i a, __m256i b) {
  // Low 64 bits of a*b per lane: lo(a)*lo(b) + ((lo(a)*hi(b) +
  // hi(a)*lo(b)) << 32). mul_epu32 multiplies the even 32-bit lanes.
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// a >u b per 64-bit lane (all-ones / all-zeros).
inline __m256i CmpGtU64(__m256i a, __m256i b) {
  const __m256i bias = _mm256_set1_epi64x(kSignBit);
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                            _mm256_xor_si256(b, bias));
}

inline __m256i MinU64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, CmpGtU64(a, b));
}

inline __m256i MaxU64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, CmpGtU64(b, a));
}

inline __m128i MinU64x2(__m128i a, __m128i b) {
  const __m128i bias = _mm_set1_epi64x(kSignBit);
  const __m128i gt =
      _mm_cmpgt_epi64(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias));
  return _mm_blendv_epi8(a, b, gt);
}

inline uint64_t HorizontalMinU64(__m256i v) {
  __m128i m = MinU64x2(_mm256_castsi256_si128(v),
                       _mm256_extracti128_si256(v, 1));
  m = MinU64x2(m, _mm_unpackhi_epi64(m, m));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(m));
}

inline uint32_t HorizontalMinU32(__m128i v) {
  __m128i m = _mm_min_epu32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  m = _mm_min_epu32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(m));
}

inline uint32_t ScalarLane64(uint64_t alpha, uint64_t mixed) {
  return static_cast<uint32_t>((alpha * mixed) >> kLaneShift64);
}

inline uint32_t ScalarLane32(uint64_t alpha, uint64_t mixed) {
  return static_cast<uint32_t>((alpha * mixed) >> kLaneShift32);
}

inline uint32_t GetLane32(const uint64_t* block, uint32_t lane) {
  return static_cast<uint32_t>(block[lane >> 1] >> ((lane & 1u) * 32));
}

// Lane-selection bitmasks: bit `lane` of the scalar-accumulated mask,
// broadcast against per-lane bit constants. A selected lane compares
// all-ones.
inline uint32_t SelectionMask64(const uint64_t* alphas, uint32_t k,
                                uint64_t mixed) {
  uint32_t sel = 0;
  for (uint32_t j = 0; j < k; ++j) {
    sel |= 1u << ScalarLane64(alphas[j], mixed);
  }
  return sel;
}

inline uint32_t SelectionMask32(const uint64_t* alphas, uint32_t k,
                                uint64_t mixed) {
  uint32_t sel = 0;
  for (uint32_t j = 0; j < k; ++j) {
    sel |= 1u << ScalarLane32(alphas[j], mixed);
  }
  return sel;
}

struct Selected64 {
  __m256i lo;  // lanes 0..3, all-ones where selected
  __m256i hi;  // lanes 4..7
};

inline Selected64 ExpandSelection64(uint32_t sel) {
  const __m256i vsel = _mm256_set1_epi64x(static_cast<int64_t>(sel));
  const __m256i bits_lo = _mm256_set_epi64x(8, 4, 2, 1);
  const __m256i bits_hi = _mm256_set_epi64x(128, 64, 32, 16);
  return {_mm256_cmpeq_epi64(_mm256_and_si256(vsel, bits_lo), bits_lo),
          _mm256_cmpeq_epi64(_mm256_and_si256(vsel, bits_hi), bits_hi)};
}

struct Selected32 {
  __m256i lo;  // lanes 0..7
  __m256i hi;  // lanes 8..15
};

inline Selected32 ExpandSelection32(uint32_t sel) {
  const __m256i vsel = _mm256_set1_epi32(static_cast<int32_t>(sel));
  const __m256i bits_lo = _mm256_set_epi32(128, 64, 32, 16, 8, 4, 2, 1);
  const __m256i bits_hi = _mm256_slli_epi32(bits_lo, 8);
  return {_mm256_cmpeq_epi32(_mm256_and_si256(vsel, bits_lo), bits_lo),
          _mm256_cmpeq_epi32(_mm256_and_si256(vsel, bits_hi), bits_hi)};
}

// Vector min of the k selected lanes of one block: the batch mins' body
// for the k they do not specialize (see there). always_inline keeps it,
// and its vector constants, inside the batch loop.
[[gnu::always_inline]] inline uint64_t Min64Body(const uint64_t* block,
                                                 const uint64_t* alphas,
                                                 uint32_t k, uint64_t mixed) {
  const Selected64 s = ExpandSelection64(SelectionMask64(alphas, k, mixed));
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i b_lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i b_hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  // Unselected lanes become all-ones, neutral for the min reduction.
  const __m256i c_lo = _mm256_blendv_epi8(ones, b_lo, s.lo);
  const __m256i c_hi = _mm256_blendv_epi8(ones, b_hi, s.hi);
  return HorizontalMinU64(MinU64(c_lo, c_hi));
}

[[gnu::always_inline]] inline uint64_t Min32Body(const uint64_t* block,
                                                 const uint64_t* alphas,
                                                 uint32_t k, uint64_t mixed) {
  const Selected32 s = ExpandSelection32(SelectionMask32(alphas, k, mixed));
  const __m256i ones = _mm256_set1_epi32(-1);
  const __m256i b0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i b1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i c0 = _mm256_blendv_epi8(ones, b0, s.lo);
  const __m256i c1 = _mm256_blendv_epi8(ones, b1, s.hi);
  const __m256i mn = _mm256_min_epu32(c0, c1);
  const __m128i mn128 = _mm_min_epu32(_mm256_castsi256_si128(mn),
                                      _mm256_extracti128_si256(mn, 1));
  return HorizontalMinU32(mn128);
}

// Per-lane multiplicities for the 8-lane geometry, packed one byte per
// lane into a uint64 (k <= 64 keeps every byte below 65 — no carries).
inline uint64_t Multiplicities64(const uint64_t* alphas, uint32_t k,
                                 uint64_t mixed) {
  uint64_t packed = 0;
  for (uint32_t j = 0; j < k; ++j) {
    packed += uint64_t{1} << (ScalarLane64(alphas[j], mixed) * 8);
  }
  return packed;
}

int Avx2BlockedAdd64(uint64_t* block, const uint64_t* alphas, uint32_t k,
                     uint64_t mixed, uint64_t count) {
  if (count > kSimdSafeCount64) return 0;
  const uint64_t packed = Multiplicities64(alphas, k, mixed);
  const __m128i mbytes = _mm_cvtsi64_si128(static_cast<int64_t>(packed));
  const __m256i vcount = _mm256_set1_epi64x(static_cast<int64_t>(count));
  const __m256i d_lo = Mul64Lo(_mm256_cvtepu8_epi64(mbytes), vcount);
  const __m256i d_hi =
      Mul64Lo(_mm256_cvtepu8_epi64(_mm_srli_si128(mbytes, 4)), vcount);
  const __m256i b_lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i b_hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i s_lo = _mm256_add_epi64(b_lo, d_lo);
  const __m256i s_hi = _mm256_add_epi64(b_hi, d_hi);
  // A wrapped lane means the scalar path would clamp: reject untouched.
  const __m256i wrapped =
      _mm256_or_si256(CmpGtU64(b_lo, s_lo), CmpGtU64(b_hi, s_hi));
  if (!_mm256_testz_si256(wrapped, wrapped)) return 0;
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block), s_lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + 4), s_hi);
  return 1;
}

int Avx2BlockedLift64(uint64_t* block, const uint64_t* alphas, uint32_t k,
                      uint64_t mixed, uint64_t count) {
  // One selection mask drives both halves of Minimal Increase: the min
  // reduction and the masked lift to max(value, min + count).
  const Selected64 s = ExpandSelection64(SelectionMask64(alphas, k, mixed));
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i b_lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i b_hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i c_lo = _mm256_blendv_epi8(ones, b_lo, s.lo);
  const __m256i c_hi = _mm256_blendv_epi8(ones, b_hi, s.hi);
  const uint64_t min_value = HorizontalMinU64(MinU64(c_lo, c_hi));
  if (count > ~uint64_t{0} - min_value) return 0;
  const __m256i target =
      _mm256_set1_epi64x(static_cast<int64_t>(min_value + count));
  // Selected lanes rise to max(value, target); unselected keep value.
  const __m256i n_lo = _mm256_blendv_epi8(b_lo, MaxU64(b_lo, target), s.lo);
  const __m256i n_hi = _mm256_blendv_epi8(b_hi, MaxU64(b_hi, target), s.hi);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block), n_lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + 4), n_hi);
  return 1;
}

// Per-lane multiplicities for the 16-lane geometry: two packed uint64s
// (lanes 0..7 and 8..15), one byte per lane.
struct Mult32 {
  uint64_t lo;
  uint64_t hi;
};

inline Mult32 Multiplicities32(const uint64_t* alphas, uint32_t k,
                               uint64_t mixed) {
  Mult32 m{0, 0};
  for (uint32_t j = 0; j < k; ++j) {
    const uint32_t lane = ScalarLane32(alphas[j], mixed);
    // Branchless split: lanes land 50/50 in either half, so an if here
    // mispredicts nearly every probe.
    const uint64_t inc = uint64_t{1} << ((lane & 7u) * 8);
    const uint64_t in_hi = 0 - static_cast<uint64_t>(lane >> 3);
    m.lo += inc & ~in_hi;
    m.hi += inc & in_hi;
  }
  return m;
}

int Avx2BlockedAdd32(uint64_t* block, const uint64_t* alphas, uint32_t k,
                     uint64_t mixed, uint64_t count) {
  if (count > kSimdSafeCount32) return 0;
  const Mult32 m = Multiplicities32(alphas, k, mixed);
  const __m128i mbytes = _mm_set_epi64x(static_cast<int64_t>(m.hi),
                                        static_cast<int64_t>(m.lo));
  const __m256i vcount = _mm256_set1_epi32(static_cast<int32_t>(count));
  // mult <= 64 and count < 2^26, so the 32-bit product cannot wrap.
  const __m256i d0 = _mm256_mullo_epi32(_mm256_cvtepu8_epi32(mbytes), vcount);
  const __m256i d1 = _mm256_mullo_epi32(
      _mm256_cvtepu8_epi32(_mm_srli_si128(mbytes, 8)), vcount);
  const __m256i b0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i b1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i s0 = _mm256_add_epi32(b0, d0);
  const __m256i s1 = _mm256_add_epi32(b1, d1);
  // No-wrap per lane: unsigned sum >= addend. (Lanes load in index order:
  // the backing packs counter 2i in the low half of word i, which
  // little-endian memory presents as ascending 32-bit lanes.)
  const __m256i ok0 = _mm256_cmpeq_epi32(_mm256_max_epu32(s0, b0), s0);
  const __m256i ok1 = _mm256_cmpeq_epi32(_mm256_max_epu32(s1, b1), s1);
  if (_mm256_movemask_epi8(_mm256_and_si256(ok0, ok1)) != -1) return 0;
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block), s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + 4), s1);
  return 1;
}

int Avx2BlockedLift32(uint64_t* block, const uint64_t* alphas, uint32_t k,
                      uint64_t mixed, uint64_t count) {
  const Selected32 s = ExpandSelection32(SelectionMask32(alphas, k, mixed));
  const __m256i ones = _mm256_set1_epi32(-1);
  const __m256i b0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block));
  const __m256i b1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4));
  const __m256i c0 = _mm256_blendv_epi8(ones, b0, s.lo);
  const __m256i c1 = _mm256_blendv_epi8(ones, b1, s.hi);
  const __m256i mn = _mm256_min_epu32(c0, c1);
  const __m128i mn128 = _mm_min_epu32(_mm256_castsi256_si128(mn),
                                      _mm256_extracti128_si256(mn, 1));
  const uint64_t min_value = HorizontalMinU32(mn128);
  if (count > ~uint64_t{0} - min_value) return 0;
  const uint64_t target = min_value + count;
  if (target > 0xFFFFFFFFull) return 0;
  const __m256i vtarget = _mm256_set1_epi32(static_cast<int32_t>(target));
  const __m256i n0 = _mm256_blendv_epi8(b0, _mm256_max_epu32(b0, vtarget), s.lo);
  const __m256i n1 = _mm256_blendv_epi8(b1, _mm256_max_epu32(b1, vtarget), s.hi);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block), n0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + 4), n1);
  return 1;
}

// Batch mins: the whole chunk loops inside this TU, so the selection-bit
// constants and the all-ones vector stay in registers across keys and
// there is no per-key indirect call.
// Batch mins. Measured on AVX2 hardware, the vector min bodies above LOSE
// to k direct lane loads + cmov here: with k ~ 5 probes against one
// L1-resident cache line, mask expansion + blend + a horizontal reduce
// (or a 4-key transposed reduce — also tried) costs more than the loads
// it saves, while the lane-index multiply-shift chain is identical either
// way. So the throughput path is the scalar-load body, specialized per k
// so the probe loop fully unrolls; the vector bodies serve the other k.
template <uint32_t K>
void BatchMin64K(const uint64_t* words, const uint64_t* bases,
                 const uint64_t* mixes, size_t n, const uint64_t* alphas,
                 uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* block = words + bases[i];
    const uint64_t mixed = mixes[i];
    uint64_t min_value = block[ScalarLane64(alphas[0], mixed)];
    for (uint32_t j = 1; j < K; ++j) {
      const uint64_t v = block[ScalarLane64(alphas[j], mixed)];
      min_value = v < min_value ? v : min_value;
    }
    out[i] = min_value;
  }
}

// x86 is little-endian, so 32-bit lane i of the packed block is simply
// the 4-byte load at byte offset 4*i — no word extract needed. memcpy
// keeps it aliasing-clean; GCC emits one mov.
[[gnu::always_inline]] inline uint32_t Load32(const uint64_t* block,
                                              uint32_t lane) {
  uint32_t v;
  std::memcpy(&v, reinterpret_cast<const char*>(block) + 4 * lane, 4);
  return v;
}

template <uint32_t K>
void BatchMin32K(const uint64_t* words, const uint64_t* bases,
                 const uint64_t* mixes, size_t n, const uint64_t* alphas,
                 uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* block = words + bases[i];
    const uint64_t mixed = mixes[i];
    uint32_t min_value = Load32(block, ScalarLane32(alphas[0], mixed));
    for (uint32_t j = 1; j < K; ++j) {
      const uint32_t v = Load32(block, ScalarLane32(alphas[j], mixed));
      min_value = v < min_value ? v : min_value;
    }
    out[i] = min_value;
  }
}

void Avx2BatchMin64(const uint64_t* words, const uint64_t* bases,
                    const uint64_t* mixes, size_t n,
                    const uint64_t* alphas, uint32_t k, uint64_t* out) {
  switch (k) {
    case 3: return BatchMin64K<3>(words, bases, mixes, n, alphas, out);
    case 4: return BatchMin64K<4>(words, bases, mixes, n, alphas, out);
    case 5: return BatchMin64K<5>(words, bases, mixes, n, alphas, out);
    case 6: return BatchMin64K<6>(words, bases, mixes, n, alphas, out);
    case 7: return BatchMin64K<7>(words, bases, mixes, n, alphas, out);
    default:
      for (size_t i = 0; i < n; ++i) {
        out[i] = Min64Body(words + bases[i], alphas, k, mixes[i]);
      }
  }
}

void Avx2BatchMin32(const uint64_t* words, const uint64_t* bases,
                    const uint64_t* mixes, size_t n,
                    const uint64_t* alphas, uint32_t k, uint64_t* out) {
  switch (k) {
    case 3: return BatchMin32K<3>(words, bases, mixes, n, alphas, out);
    case 4: return BatchMin32K<4>(words, bases, mixes, n, alphas, out);
    case 5: return BatchMin32K<5>(words, bases, mixes, n, alphas, out);
    case 6: return BatchMin32K<6>(words, bases, mixes, n, alphas, out);
    case 7: return BatchMin32K<7>(words, bases, mixes, n, alphas, out);
    default:
      for (size_t i = 0; i < n; ++i) {
        out[i] = Min32Body(words + bases[i], alphas, k, mixes[i]);
      }
  }
}

uint64_t Avx2GatherMin64(const uint64_t* words, const uint64_t* pos,
                         uint32_t k) {
  __m256i best = _mm256_set1_epi64x(-1);
  uint32_t j = 0;
  for (; j + 4 <= k; j += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + j));
    best = MinU64(best, _mm256_i64gather_epi64(
                            reinterpret_cast<const long long*>(words), idx, 8));
  }
  uint64_t min_value = HorizontalMinU64(best);
  for (; j < k; ++j) {
    const uint64_t v = words[pos[j]];
    min_value = v < min_value ? v : min_value;
  }
  return min_value;
}

uint64_t Avx2GatherMin32(const uint64_t* words, const uint64_t* pos,
                         uint32_t k) {
  __m128i best = _mm_set1_epi32(-1);
  uint32_t j = 0;
  for (; j + 4 <= k; j += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + j));
    best = _mm_min_epu32(best, _mm256_i64gather_epi32(
                                   reinterpret_cast<const int*>(words), idx, 4));
  }
  uint32_t min_value = HorizontalMinU32(best);
  for (; j < k; ++j) {
    const uint64_t p = pos[j];
    const uint32_t v =
        static_cast<uint32_t>(words[p >> 1] >> ((p & 1u) * 32));
    min_value = v < min_value ? v : min_value;
  }
  return min_value;
}

constexpr BlockKernels kAvx2Table = {
    Avx2BlockedAdd64, Avx2BlockedAdd32,
    Avx2BlockedLift64, Avx2BlockedLift32,
    Avx2GatherMin64, Avx2GatherMin32,
    Avx2BatchMin64, Avx2BatchMin32,
    Isa::kAvx2, /*enabled=*/true,
};

}  // namespace

namespace internal {
const BlockKernels* Avx2KernelTable() noexcept { return &kAvx2Table; }
}  // namespace internal

}  // namespace sbf::simd

#else  // !defined(__AVX2__)

namespace sbf::simd::internal {
const BlockKernels* Avx2KernelTable() noexcept { return nullptr; }
}  // namespace sbf::simd::internal

#endif
