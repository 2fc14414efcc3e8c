#ifndef SBF_SAI_COUNTER_VECTOR_H_
#define SBF_SAI_COUNTER_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/wire.h"
#include "util/status.h"

namespace sbf {

// Tallies of clamp events on a counter vector. These are process-local
// diagnostics — they feed health reporting, never the wire format (the
// framed encodings are pinned by golden tests and carry only counter
// state).
struct SaturationStats {
  uint64_t saturation_clamps = 0;  // increments clamped at the backing max
  uint64_t underflow_clamps = 0;   // decrements clamped at zero

  SaturationStats& operator+=(const SaturationStats& other) {
    saturation_clamps += other.saturation_clamps;
    underflow_clamps += other.underflow_clamps;
    return *this;
  }
};

// Result of one occupancy sweep over the counters (health reporting).
struct OccupancyCounts {
  uint64_t nonzero = 0;    // counters with value > 0
  uint64_t saturated = 0;  // counters pinned at the backing's MaxValue()
};

// One occupancy sweep over counters [0, n) of `cv`, chunked through its
// DecodeBlock: the body of CounterVector::ScanOccupancy, and of the
// concurrent frontend's health scan over any of its counter types.
template <typename CV>
OccupancyCounts ScanOccupancyOf(const CV& cv, size_t n) {
  constexpr size_t kChunk = 256;
  uint64_t values[kChunk];
  OccupancyCounts counts;
  const uint64_t max = cv.MaxValue();
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = n - base < kChunk ? n - base : kChunk;
    cv.DecodeBlock(base, len, values);
    for (size_t j = 0; j < len; ++j) {
      counts.nonzero += values[j] > 0;
      counts.saturated += values[j] == max;
    }
  }
  return counts;
}

// Abstract array of m non-negative counters — the storage substrate of the
// Spectral Bloom Filter. Implementations trade compactness for speed:
//
//  * FixedWidthCounterVector  — packed w-bit counters (plain or sticky;
//                               the 4-bit sticky variant is the kSticky4
//                               backing, the FCAB98 counting Bloom
//                               filter's storage; the 32/64-bit variant
//                               the "straightforward" baseline the paper
//                               rules out as wasteful).
//  * CompactCounterVector     — the paper's dynamic scheme (Section 4.4):
//                               each counter in ~ceil(log C_i) bits, slack
//                               bits for growth, push-to-slack expansion,
//                               amortized O(1) updates.
//  * SerialScanCounterVector  — the paper's compact alternative
//                               (Section 4.5): Elias/steps-coded groups
//                               with coarse offsets and O(log log N) serial
//                               scan lookups.
class CounterVector {
 public:
  virtual ~CounterVector() = default;

  // Number of counters (the SBF's m).
  [[nodiscard]] virtual size_t size() const = 0;

  // Value of counter i.
  [[nodiscard]] virtual uint64_t Get(size_t i) const = 0;

  // Sets counter i to `value`.
  virtual void Set(size_t i, uint64_t value) = 0;

  // Largest value a counter can hold. Increments clamp here instead of
  // wrapping or aborting (saturation governance): a clamped counter keeps
  // the SBF's one-sided guarantee — estimates may overshoot but a present
  // item is never reported below the clamp.
  [[nodiscard]] virtual uint64_t MaxValue() const noexcept { return ~uint64_t{0}; }

  // Adds `delta` to counter i, clamping at MaxValue() (the clamp is
  // tallied in saturation()). Overridable for backings with a cheaper
  // in-place path; overrides must preserve the clamp semantics.
  virtual void Increment(size_t i, uint64_t delta = 1) {
    const uint64_t v = Get(i);
    const uint64_t max = MaxValue();
    if (delta > max - v) {
      Set(i, max);
      ++stats_.saturation_clamps;
      return;
    }
    Set(i, v + delta);
  }

  // --- bulk hooks ----------------------------------------------------------
  //
  // The batched filter kernels (FrequencyFilter::EstimateBatch and friends)
  // hash a window of keys ahead and issue PrefetchCounter on the upcoming
  // probe targets, so the current key's reads find their words in cache.

  // Hints the memory system to pull the words backing counter i into
  // cache. A pure performance hint; the default is a no-op.
  virtual void PrefetchCounter(size_t i) const { (void)i; }

  // Decodes the contiguous counter range [first, first + n) into
  // out[0..n) — the span primitive behind the blocked layouts' block
  // loads, the Total/ScanOccupancy sweeps, expansion and serialization.
  // Every backing implements it: the grouped backings decode a whole
  // group in one pass instead of re-scanning per counter. Must be exactly
  // equivalent to a loop of Get.
  virtual void DecodeBlock(size_t first, size_t n, uint64_t* out) const = 0;

  // Subtracts `delta` from counter i, clamping at zero (the clamp is
  // tallied in saturation()). A delete of a never-inserted item — user
  // error, replayed traffic, a collided counter already clamped — degrades
  // the estimate but never wraps or aborts.
  virtual void Decrement(size_t i, uint64_t delta = 1);

  // Sets every counter to zero.
  virtual void Reset() = 0;

  // Total memory footprint in bits, including index/overhead structures.
  // This is what the storage experiments (Figures 13-15) report.
  [[nodiscard]] virtual size_t MemoryUsageBits() const = 0;

  // Deep copy preserving the concrete backing.
  [[nodiscard]] virtual std::unique_ptr<CounterVector> Clone() const = 0;

  // Short implementation name for benchmark tables.
  [[nodiscard]] virtual std::string Name() const = 0;

  // Complete self-describing wire frame (io/wire.h) for this backing:
  // {magic, version, size, crc} header + the backing's parameters and
  // counter payload. Filter-level serialization embeds this frame, so the
  // storage layer owns its own encoding. Round-trips byte-identically
  // through DeserializeCounterVector.
  [[nodiscard]] virtual std::vector<uint8_t> Serialize() const = 0;

  // Structural self-check of the backing's layout invariants — bounds,
  // offset monotonicity, width/value agreement (the SBF_AUDIT validator
  // layer; see DESIGN.md §7). Always compiled; additionally invoked at API
  // boundaries in -DSBF_AUDIT builds. Returns OK or a FailedPrecondition
  // naming the violated invariant.
  [[nodiscard]] virtual Status CheckInvariants() const { return Status::Ok(); }

  // Sum of all counters (k*M for an SBF under Minimum Selection). Routed
  // through DecodeBlock in contiguous chunks so every backing sums from
  // sequential group decodes instead of one virtual Get per counter.
  [[nodiscard]] uint64_t Total() const;

  // One sweep over the counters tallying occupancy for health reporting,
  // chunked through DecodeBlock like Total().
  [[nodiscard]] OccupancyCounts ScanOccupancy() const {
    return ScanOccupancyOf(*this, size());
  }

  // Clamp-event tallies since construction (clones inherit the tallies of
  // their source; deserialized vectors start at zero).
  [[nodiscard]] const SaturationStats& saturation() const noexcept {
    return stats_;
  }

  // Folds `other` into these tallies. Online expansion rebuilds the
  // backing and uses this to carry the filter's clamp history across the
  // rebuild, so "clamps since construction" stays truthful at the
  // frontend.
  void MergeSaturationStats(const SaturationStats& other) { stats_ += other; }

 protected:
  SaturationStats stats_;
};

// Backing selector used by filter configuration structs. The value is
// the backing byte of the filter wire frames.
enum class CounterBacking {
  kFixed64,     // 64-bit packed counters, fastest, largest
  kFixed32,     // 32-bit packed counters
  kCompact,     // CompactCounterVector (the paper's dynamic structure)
  kSerialScan,  // SerialScanCounterVector (Section 4.5 alternative)
  // 4-bit counters, sticky at 15: the counting Bloom filter of [FCAB98]
  // (paper Section 1.1.3), a membership filter with deletions that cannot
  // represent multiplicities above 15.
  kSticky4,
};

// Constructs a zeroed counter vector of m counters with the given backing.
std::unique_ptr<CounterVector> MakeCounterVector(CounterBacking backing,
                                                 size_t m);

const char* CounterBackingName(CounterBacking backing);

// Reconstructs a counter vector from any backing frame, dispatching on the
// frame magic. Truncated, oversized, corrupted or unknown frames are
// rejected with a clean DataLoss status; allocations are bounded by the
// actual message size before they happen.
StatusOr<std::unique_ptr<CounterVector>> DeserializeCounterVector(
    wire::ByteSpan bytes);

// True iff `cv` is the concrete backing `backing` selects (including the
// fixed-width configuration: width 64/32 non-sticky, or 4 sticky).
// Deserializers use this to reject frames whose embedded backing
// contradicts the enclosing filter's options — the devirtualized batch
// kernels static_cast to the concrete type, so a mismatch must never be
// accepted.
bool MatchesBacking(const CounterVector& cv, CounterBacking backing);

}  // namespace sbf

#endif  // SBF_SAI_COUNTER_VECTOR_H_
