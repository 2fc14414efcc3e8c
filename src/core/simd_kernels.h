#ifndef SBF_CORE_SIMD_KERNELS_H_
#define SBF_CORE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

// SIMD block kernels for the cache-line blocked SBF layouts (DESIGN.md
// "SIMD block kernels").
//
// A blocked filter with a fixed-width backing and a 64-byte block —
// 8 x 64-bit counters or 16 x 32-bit counters — can run a whole Estimate
// or Insert against one cache line of counter words. These kernels do
// that vectorially:
//
//   * the k in-block lanes are derived from ONE multiply-shift round:
//     the within-block hash family (hashing/hash_family.h, kModuloMultiply)
//     computes lane_j = (alpha_j * mixed) * B >> 64, which for the
//     power-of-two block sizes here is exactly (alpha_j * mixed) >> 61
//     (B = 8) or >> 60 (B = 16) — bit-identical to HashFamily::Positions;
//   * Estimate takes the min of the selected lanes, a whole chunk of
//     keys per call (batch_min);
//   * Minimum Selection Insert adds count * multiplicity per lane (lanes
//     selected more than once — duplicates are legal — get their exact
//     multiple) with a vector multiply + add;
//   * Minimal Increase Insert lifts every selected lane below
//     min + count up to it with a vector compare + blend.
//
// Saturation contract (PR 4 semantics). The scalar paths clamp at the
// backing's MaxValue() and tally SaturationStats per clamp event. The
// vector kernels do NOT reproduce the tallies; instead each mutating
// kernel returns 1 only when it can prove no clamp event would occur and
// its result is bit-identical to the scalar op. It returns 0 — having
// written NOTHING — whenever a clamp could fire, and the caller must rerun
// that key through the exact scalar path (which clamps and tallies). The
// accept/reject predicate is part of the contract and must be identical
// across ISA variants, or saturation tallies would differ by ISA:
//
//   add64:  reject iff count > kSimdSafeCount64, or any selected lane's
//           value + multiplicity*count wraps 2^64.
//   add32:  reject iff count > kSimdSafeCount32, or any selected lane's
//           value + multiplicity*count exceeds 2^32 - 1.
//   lift64: reject iff count > 2^64 - 1 - min (the scalar path saturates
//           the lift target at 2^64 - 1 and tallies one clamp).
//   lift32: reject as lift64, or if min + count > 2^32 - 1 (the scalar
//           Set would clamp and tally per lifted lane).
//
// Dispatch. The active kernel table is resolved once, lazily, from CPU
// detection (off < generic < AVX2: AVX2 when the host has it, else the
// portable generic table); the SBF_FORCE_ISA environment variable
// ("off", "generic", "avx2") overrides detection, and ForceIsa()
// overrides both (the test hook for differential suites).
// Under ThreadSanitizer the generic table is pinned: TSan does not
// instrument vector loads/stores, so an intrinsic path would hide the
// races the tsan CI legs exist to catch. All variants are bit-identical;
// every entry point below is pinned to the scalar reference by
// tests/simd_differential_test.cc (enforced by scripts/sbf_lint.py's
// simd-differential rule).

namespace sbf::simd {

enum class Isa : uint8_t {
  kDisabled = 0,  // kernels off: callers take the legacy scalar pipelines
  kGeneric = 1,   // portable scalar reference (the semantic ground truth)
  kAvx2 = 2,      // 256-bit vectors + gathers
};

// Largest per-op count the Minimum Selection add kernels accept. With
// k <= 64 probes a lane's multiplicity is at most 64 = 2^6, so bounding
// count keeps multiplicity*count itself from wrapping before the add's
// own overflow check runs.
inline constexpr uint64_t kSimdSafeCount64 = uint64_t{1} << 57;
inline constexpr uint64_t kSimdSafeCount32 = 0xFFFFFFFFull >> 6;

// One cache line of counters: lane counts and the multiply-shift amounts
// for the two SIMD-eligible geometries.
inline constexpr uint32_t kBlockLanes64 = 8;    // 8 x u64 = 64 bytes
inline constexpr uint32_t kBlockLanes32 = 16;   // 16 x u32 = 64 bytes
inline constexpr uint32_t kLaneShift64 = 61;    // lane = alpha*mixed >> 61
inline constexpr uint32_t kLaneShift32 = 60;    // lane = alpha*mixed >> 60

// A resolved table of kernel entry points. `block` always points at the
// block's first backing word (8 contiguous uint64_t; 32-bit counters are
// packed two per word, counter lane i in bits [32*(i&1), 32*(i&1)+32) of
// word i/2). `alphas[0..k)` are the within-block family's fixed-point
// multipliers (HashFamily::FillModuloMultiplyAlphas) and `mixed` is
// HashFamily::MixedKey(key). No alignment is required of `block`; the
// blocked layouts happen to hand in cache-line-aligned bases
// (util/aligned_alloc.h) but tests may pass stack arrays.
struct BlockKernels {
  // Minimum Selection insert: lane += multiplicity * count. Returns 1 on
  // success, 0 (nothing written) if the caller must take the scalar
  // clamping path — see the saturation contract above.
  int (*blocked_add64)(uint64_t* block, const uint64_t* alphas, uint32_t k,
                       uint64_t mixed, uint64_t count);
  int (*blocked_add32)(uint64_t* block, const uint64_t* alphas, uint32_t k,
                       uint64_t mixed, uint64_t count);
  // Minimal Increase insert: selected lanes below min + count are raised
  // to it. Same 1/0 contract as the add kernels.
  int (*blocked_lift64)(uint64_t* block, const uint64_t* alphas, uint32_t k,
                        uint64_t mixed, uint64_t count);
  int (*blocked_lift32)(uint64_t* block, const uint64_t* alphas, uint32_t k,
                        uint64_t mixed, uint64_t count);
  // Non-blocked gathered min over absolute counter indices pos[0..k) —
  // the SpectralBloomFilter EstimateBatch probe on fixed backings.
  // `words` is the backing word array; for gather_min32 counter i is the
  // 32-bit lane i of that array (two per word).
  uint64_t (*gather_min64)(const uint64_t* words, const uint64_t* pos,
                           uint32_t k);
  uint64_t (*gather_min32)(const uint64_t* words, const uint64_t* pos,
                           uint32_t k);
  // Whole-batch blocked Estimate: out[i] is the min of the k selected
  // lanes of the block at words + bases[i] for key digest mixes[i], for i
  // in [0, n). One call per chunk keeps the per-key dispatch (indirect
  // call, vector-constant setup) out of the hot loop.
  void (*batch_min64)(const uint64_t* words, const uint64_t* bases,
                      const uint64_t* mixes, size_t n,
                      const uint64_t* alphas, uint32_t k, uint64_t* out);
  void (*batch_min32)(const uint64_t* words, const uint64_t* bases,
                      const uint64_t* mixes, size_t n,
                      const uint64_t* alphas, uint32_t k, uint64_t* out);

  Isa isa = Isa::kDisabled;
  // False only for the kDisabled table: callers must then use their legacy
  // scalar pipelines (the entry points above still work — they point at
  // the generic reference — so kernel-level tests can always call them).
  bool enabled = false;
};

// The resolved table. First call performs detection + env override and
// caches; later calls are one atomic load.
[[nodiscard]] const BlockKernels& Active() noexcept;

// Pins the active table to `isa` for the rest of the process (or until the
// next call). Testing hook for the differential suites; requesting an
// unsupported ISA falls back to the best supported one.
void ForceIsa(Isa isa) noexcept;

// Best ISA this build + host supports (kGeneric when vectors are compiled
// out or the CPU lacks them; never kDisabled).
[[nodiscard]] Isa BestSupportedIsa() noexcept;

// True if `isa` can execute on this build + host (kDisabled and kGeneric
// always can).
[[nodiscard]] bool IsaSupported(Isa isa) noexcept;

[[nodiscard]] const char* IsaName(Isa isa) noexcept;

namespace internal {
// Per-TU tables; nullptr when the ISA is compiled out of this build.
const BlockKernels* GenericKernelTable() noexcept;
const BlockKernels* Avx2KernelTable() noexcept;
const BlockKernels* DisabledKernelTable() noexcept;
}  // namespace internal

}  // namespace sbf::simd

#endif  // SBF_CORE_SIMD_KERNELS_H_
