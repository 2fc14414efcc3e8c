#ifndef SBF_CORE_SPECTRAL_BLOOM_FILTER_H_
#define SBF_CORE_SPECTRAL_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/frequency_filter.h"
#include "core/sbf_policy.h"
#include "hashing/hash_family.h"
#include "sai/counter_vector.h"
#include "util/health.h"
#include "util/status.h"

namespace sbf {

// Configuration of a SpectralBloomFilter.
struct SbfOptions {
  uint64_t m = 0;  // number of counters (required)
  uint32_t k = 5;  // number of hash functions
  SbfPolicy policy = SbfPolicy::kMinimumSelection;
  // Counter storage. kCompact is the paper's N + o(N) + O(m) structure;
  // kFixed64 trades memory for raw speed; kSticky4 makes the filter the
  // counting Bloom filter of [FCAB98] (flat, Minimum Selection only).
  CounterBacking backing = CounterBacking::kCompact;
  uint64_t seed = 0;
  HashFamily::Kind hash_kind = HashFamily::Kind::kModuloMultiply;
  // Counter layout. 0 (the default) is the flat SBF: the k probes spread
  // over all m counters. b >= 1 is the external-memory SBF of Section 2.2,
  // after the multi-level hashing of Manber & Wu [MW94]: a first hash
  // routes each key to one of m / b blocks of b counters and the k probes
  // stay inside that block, so every operation touches one block (one
  // disk page or cache line) instead of up to k random locations. The
  // price is a mild accuracy loss from segmenting the hash domain, which
  // bench_ablation_blocked shows to be negligible for reasonably large
  // blocks. b must divide m.
  uint64_t block_size = 0;
  // Verdict thresholds for Health() / ExpandIfDegraded(). Process-local
  // tuning — not serialized; deserialized filters use the defaults.
  HealthThresholds health;
};

// A write of keys[0..n) (SpectralBloomFilter::Apply): each key gains, or
// with `remove` loses, `count` occurrences, or counts[i] when `counts` is
// set (a drained delta-buffer epoch). ConcurrentSbf's shard write kernel
// takes it too; its lock-free arm adds counts[i] as two's-complement nets.
struct SbfWrite {
  const uint64_t* keys;
  size_t n;
  uint64_t count = 0;
  bool remove = false;
  const uint64_t* counts = nullptr;
};

// The minimal value m_x among a key's k counters, and whether it occurs
// in two or more of them: the Recurring Minimum predicate R_x (Section
// 3.3).
struct KeyMinimum {
  uint64_t min = 0;
  bool recurring = false;
};

// Validates an SbfOptions: m >= 1, 1 <= k <= 64, block_size either 0 or
// in [1, m] dividing m, and kSticky4 only flat under Minimum Selection. Returns OK or an InvalidArgument describing the
// violation. The SpectralBloomFilter constructor enforces this with a
// fatal check *before* any member is built; recoverable callers
// (deserializers, config loaders) can call it themselves first.
Status ValidateSbfOptions(const SbfOptions& options);

// True iff a and b agree on every serialized field (all but the
// process-local health thresholds): the check frontends run on the SBF
// frames embedded in their own.
bool SameSbfOptions(const SbfOptions& a, const SbfOptions& b);

// The fold rule of a c-fold expansion (SpectralBloomFilter::ExpandTo and
// ConcurrentSbf's shard migration): old unit u of `unit` counters owns new
// units [u*c, (u+1)*c), and a counter keeps its offset within its unit.
// ExpansionUnit names the unit of a layout:
//  * blocked: the block (the router is multiply-shift over the block
//    count and in-block offsets keep their range);
//  * flat kModuloMultiply: 1 (probes are floor(frac * m), so new
//    position p maps back to old position p / c);
//  * flat kDoubleMix: the old m (probes are (g1 + i*g2) mod m, and old m
//    divides new m, so new positions reduce to old ones mod old m).
[[nodiscard]] uint64_t ExpansionUnit(const SbfOptions& options);
// New position of old counter i's rep'th copy, rep in [0, c).
[[nodiscard]] inline uint64_t FoldedPosition(uint64_t i, uint64_t unit,
                                             uint64_t c, uint64_t rep) {
  return (i / unit * c + rep) * unit + i % unit;
}

// The Spectral Bloom Filter (paper Section 2.2): a Bloom filter whose bit
// vector is replaced by a vector of m counters C, supporting multiplicity
// estimates over dynamic multi-sets.
//
// For every key x, Estimate(x) >= f_x, and Estimate(x) != f_x happens with
// probability at most E_b ~ (1 - e^{-kn/m})^k (Claim 1) — one-sided errors
// only, so threshold queries f_x >= T produce false positives but never
// false negatives (under Minimum Selection, or Minimal Increase without
// deletions). The blocked layout (SbfOptions::block_size) keeps the
// one-sided guarantee; its error follows the same formula per block, with
// the block's key count and size in place of n and m.
class SpectralBloomFilter final : public FrequencyFilter {
 public:
  explicit SpectralBloomFilter(SbfOptions options);
  // Convenience: m counters, k hashes, default policy/backing.
  SpectralBloomFilter(uint64_t m, uint32_t k);

  SpectralBloomFilter(const SpectralBloomFilter& other);
  SpectralBloomFilter& operator=(const SpectralBloomFilter& other);
  SpectralBloomFilter(SpectralBloomFilter&&) = default;
  SpectralBloomFilter& operator=(SpectralBloomFilter&&) = default;

  // --- FrequencyFilter ---------------------------------------------------

  void Insert(uint64_t key, uint64_t count = 1) override;
  // Deletes `count` previously inserted occurrences by decrementing the
  // key's counters. Under Minimal Increase this may create false negatives
  // (counters clamp at zero) — the paper's Section 3.2 caveat, reproduced
  // deliberately so the Figure 8/9 experiments can demonstrate it.
  void Remove(uint64_t key, uint64_t count = 1) override;
  // The Minimum Selection estimate m_x (minimal counter).
  [[nodiscard]] uint64_t Estimate(uint64_t key) const override;
  [[nodiscard]] size_t MemoryUsageBits() const override;
  // "MS"/"MI", prefixed "blocked-" when blocked; "CBF" for sticky4.
  [[nodiscard]] std::string Name() const override;

  // Batched ops: hash-ahead + software-prefetch pipeline over the
  // concrete backing (see core/batch_kernels.h), running the same per-key
  // bodies as the point ops, so a batch equals a loop of them for every
  // backing, policy and layout. The blocked layout prefetches each key's
  // block once instead of every position; in the single-cache-line
  // geometries (fixed64 with block_size 8, fixed32 with block_size 16,
  // kModuloMultiply hashing) inserts and estimates run the SIMD block
  // kernels of core/simd_kernels.h, and an insert falls back to the
  // per-key body whenever a saturation clamp could fire.
  void InsertBatch(const uint64_t* keys, size_t n,
                   uint64_t count = 1) override {
    Apply({keys, n, count});
  }
  void EstimateBatch(const uint64_t* keys, size_t n,
                     uint64_t* out) const override;
  using FrequencyFilter::EstimateBatch;
  using FrequencyFilter::InsertBatch;

  // The batched write entry: applies `write` exactly as an in-order loop
  // of Insert(keys[i], c), or with write.remove Remove(keys[i], c), c being
  // counts[i] or count. ConcurrentSbf's locked arm hands it every shard
  // slice: point ops, batches and drained epochs. A drained epoch (counts,
  // no remove) on serial-scan under Minimum Selection goes to
  // SerialScanCounterVector::AddMany, which rewrites each touched group
  // once instead of once per probe (and may allocate). Counters, estimates
  // and clamp tallies equal the loop's; unlike point Insert, no batch runs
  // the fault-injection counter flip.
  void Apply(const SbfWrite& write);

  // Convenience wrappers for string keys.
  void InsertBytes(std::string_view key, uint64_t count = 1) {
    Insert(Fingerprint64(key), count);
  }
  [[nodiscard]] uint64_t EstimateBytes(std::string_view key) const {
    return Estimate(Fingerprint64(key));
  }

  // --- addressing ---------------------------------------------------------

  // Fills out[0..k) with the key's k counter positions: the only map from
  // a key to its counters. Flat: the hash family over [0, m). Blocked: the
  // within-block family, offset by the base of the key's block.
  void Positions(uint64_t key, uint64_t* out) const noexcept {
    hash_.Positions(key, out);
    if (options_.block_size == 0) return;
    const uint64_t base = BlockOf(key) * options_.block_size;
    for (uint32_t i = 0; i < options_.k; ++i) out[i] += base;
  }

  // The block a key's probes land in. A flat filter is one block of m
  // counters, so this is 0 for every key there.
  [[nodiscard]] uint64_t BlockOf(uint64_t key) const noexcept {
    return block_hash_(Mix64(key));
  }
  [[nodiscard]] uint64_t num_blocks() const noexcept {
    return block_hash_.range();
  }
  // Sum of the counters in block b (load-skew diagnostics).
  [[nodiscard]] uint64_t BlockLoad(uint64_t b) const;

  // --- introspection -----------------------------------------------------

  [[nodiscard]] uint64_t m() const noexcept { return options_.m; }
  [[nodiscard]] uint32_t k() const noexcept { return options_.k; }
  [[nodiscard]] uint64_t block_size() const noexcept {
    return options_.block_size;
  }
  [[nodiscard]] const SbfOptions& options() const noexcept {
    return options_;
  }
  // The probe family: over [0, m) when flat, over one block when blocked.
  // Positions() is what maps keys to counters; this is for introspection.
  [[nodiscard]] const HashFamily& hash() const noexcept { return hash_; }
  [[nodiscard]] const CounterVector& counters() const noexcept {
    return *counters_;
  }
  [[nodiscard]] CounterVector& mutable_counters() noexcept {
    return *counters_;
  }

  // Net number of item occurrences currently represented (inserts minus
  // removes); the N of the unbiased estimator (Section 3.1). Limit: the
  // blocked frames ('SBbk', 'SBb2') and the sticky4 frame ('SBcb') do not
  // record N, so such a filter counts N from 0 after a load; check
  // block_size() and options().backing before trusting N.
  [[nodiscard]] uint64_t total_items() const noexcept {
    return total_items_;
  }
  // Overrides the accounting directly. Frontends that lift counters out of
  // band (Trapping RM's MoveToSecondary, the algebra kernels, sharded
  // snapshots) use this — after which the Minimum Selection sum identity
  // sum(C) >= k * total_items no longer holds, so the call also retires
  // that audit rule for this filter (see CheckInvariants()).
  void set_total_items(uint64_t n) {
    total_items_ = n;
    sum_identity_intact_ = false;
  }

  // Values of the key's k counters, in hash order (the paper's v_x).
  [[nodiscard]] std::vector<uint64_t> CounterValues(uint64_t key) const;
  // The key's minimum and R_x, from one probe of its k counters.
  [[nodiscard]] KeyMinimum RecurringMinimum(uint64_t key) const;

  // A fresh, empty filter with identical parameters (same hash functions).
  [[nodiscard]] SpectralBloomFilter CloneEmpty() const;

  // --- lifecycle: health & online expansion ------------------------------

  // Live health snapshot computed from observed counter occupancy: fill
  // ratio, estimated current FPR (Section 2.1 formula on live state),
  // saturated-counter share, clamp tallies, and a verdict against
  // options().health. O(m) scan.
  [[nodiscard]] FilterHealth Health() const override;

  // Clamp-event tallies of the counter backing (see SaturationStats).
  [[nodiscard]] const SaturationStats& saturation() const noexcept {
    return counters_->saturation();
  }

  // Grows the filter to `new_m` counters in place, without the original
  // keys: both hash families derive each probe from a key digest that is
  // independent of m, so for new_m = c * m every old counter has a known
  // preimage set of c new positions (FoldedPosition above; multiply-
  // shift: [i*c, (i+1)*c); double-mix: {i + j*m}; blocked: old block b
  // becomes blocks [b*c, (b+1)*c)). Replicating old counter i's
  // value across its preimage set makes every key read exactly the
  // counter values it read before — estimates are preserved bit-for-bit —
  // while keys inserted *after* the expansion spread over the full new_m,
  // restoring the error bound going forward. Requires new_m to be a
  // positive multiple of m; fails with a clean Status (filter untouched)
  // on bad arguments or allocation failure.
  Status ExpandTo(uint64_t new_m);

  // Doubles m when Health() is kDegraded or kSaturated. Returns whether an
  // expansion happened.
  StatusOr<bool> ExpandIfDegraded();

  // Gamma = nk/m for a given number of distinct keys n.
  [[nodiscard]] double Gamma(uint64_t n_distinct) const noexcept {
    return static_cast<double>(n_distinct) * k() / static_cast<double>(m());
  }

  // --- serialization -----------------------------------------------------

  // Wire frames (io/wire.h). Flat filters write 'SBsf': {varint m,
  // varint k, u8 policy, u8 backing, u8 hash kind, u64 seed, varint total
  // items, embedded counter backing frame}. With a compact backing the
  // counters travel Elias-delta coded in ~N bits — the compressed message
  // the distributed applications of Section 5 exchange. Blocked Minimum
  // Selection filters write 'SBbk': {varint m, varint block_size, varint
  // k, u8 backing, u8 hash kind, u64 seed, embedded counter frame};
  // blocked Minimal Increase filters write 'SBb2', which adds a u8 policy
  // byte after the hash kind. Sticky4 filters write 'SBcb': {varint m,
  // varint k, u8 hash kind, u64 seed, varint counter width (always 4),
  // embedded counter frame}; the other headers never carry backing byte
  // 4, so a sticky4 filter has one encoding. Blocked and sticky4 frames
  // carry no total items, so such a loaded filter counts from 0.
  // Deserialize reads all four.
  [[nodiscard]] std::vector<uint8_t> Serialize() const override;
  // Serialize() with `total_items` in place of total_items() (a sharded
  // filter keeps each shard's N beside the shard's filter).
  [[nodiscard]] std::vector<uint8_t> SerializeWithItems(
      uint64_t total_items) const;
  static StatusOr<SpectralBloomFilter> Deserialize(wire::ByteSpan bytes);

  // Audits options vs. the live hash family, block router and counter
  // backing (size, concrete type, hash ranges); in -DSBF_AUDIT builds the
  // counter backing's own layout validator runs too.
  Status CheckInvariants() const override;

 private:
  // A filter over already-built counters (Deserialize's load).
  SpectralBloomFilter(SbfOptions options,
                      std::unique_ptr<CounterVector> counters);

  SbfOptions options_;
  HashFamily hash_;
  // Key -> block over num_blocks() blocks (range 1 for the flat layout).
  ModuloMultiplyHash block_hash_;
  std::unique_ptr<CounterVector> counters_;
  uint64_t total_items_ = 0;
  // True while every update went through Insert/Remove/ExpandTo, where the
  // sum identity is provable. Cleared by set_total_items() and on
  // Deserialize (the wire frame carries no provenance). Process-local,
  // never serialized.
  bool sum_identity_intact_ = true;
};

}  // namespace sbf

#endif  // SBF_CORE_SPECTRAL_BLOOM_FILTER_H_
