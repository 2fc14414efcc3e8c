#ifndef SBF_SAI_COUNTER_VECTOR_H_
#define SBF_SAI_COUNTER_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/wire.h"
#include "util/check.h"
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

// Abstract array of m non-negative counters — the storage substrate of the
// Spectral Bloom Filter. Implementations trade compactness for speed:
//
//  * FixedWidthCounterVector  — packed w-bit counters (plain or saturating;
//                               the 4-bit variant is the FCAB98 counting
//                               Bloom filter's storage, the 32/64-bit
//                               variant the "straightforward" baseline the
//                               paper rules out as wasteful).
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
  // out[0..n) — the span primitive of the decoded-view layer (DecodeView
  // below, the blocked layouts' block loads, Total/ScanOccupancy sweeps,
  // serialization). Every backing implements it: the grouped backings
  // decode a whole group in one pass instead of re-scanning per counter.
  // Must be exactly equivalent to a loop of Get.
  virtual void DecodeBlock(size_t first, size_t n, uint64_t* out) const = 0;

  // Writes values[0..n) into the contiguous counter range
  // [first, first + n) — the write-back half of the decoded-view layer.
  // Must be exactly equivalent to a loop of Set (including clamp tallies
  // for backings whose Set clamps); the grouped backings implement it as
  // a single sequential pass that re-seeks only when a counter widens.
  virtual void EncodeBlock(size_t first, size_t n, const uint64_t* values) = 0;

  // Whether DecodeView may buffer writes against this backing. False only
  // for backings with non-uniform scalar write semantics (the sticky-
  // saturating fixed vector, whose saturated counters must ignore
  // decrements — a plain value cache cannot reproduce that).
  [[nodiscard]] virtual bool SupportsDecodedWrites() const noexcept {
    return true;
  }

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
  [[nodiscard]] OccupancyCounts ScanOccupancy() const;

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

// Caller-owned group cursor over a CounterVector: a small direct-mapped
// cache of decoded counter spans. A span (64 counters, aligned) is decoded
// once via DecodeBlock on first touch; every further access to the span is
// an array read or write against the decoded buffer, and dirty spans are
// written back in one EncodeBlock pass on eviction, Flush() or
// destruction. This is the hot-group cache of the decoded-view layer: a
// consumer whose accesses cluster by group (sorted flush streams, blocked
// probes, sequential sweeps) pays one decode + one encode per touched
// group instead of one width scan per access.
//
// Semantics are exactly those of direct scalar access in the same op
// order: Increment clamps at MaxValue() and Decrement at zero, and the
// clamp tallies are folded into the backing's SaturationStats at Flush().
// Because the cache is keyed by counter *index* and counter values never
// move logically, the backing's internal relayouts (widening shifts,
// push-to-slack, rebuilds — including ones triggered by this view's own
// write-back) never invalidate cached spans. What does invalidate them is
// any access to the backing that bypasses a dirty view, so a writable view
// requires exclusive access to its backing for its open lifetime; callers
// interleaving direct access must Flush() first.
//
// Views are cheap to construct (no decode until first access) and live on
// the stack; the backing must outlive the view.
class DecodeView {
 public:
  static constexpr size_t kSpanCounters = 64;  // counters per cached span
  static constexpr size_t kWays = 8;           // resident spans

  explicit DecodeView(const CounterVector& cv)
      : cv_(&cv), mutable_cv_(nullptr), max_value_(cv.MaxValue()) {}
  explicit DecodeView(CounterVector& cv)
      : cv_(&cv), mutable_cv_(&cv), max_value_(cv.MaxValue()) {
    SBF_CHECK_MSG(cv.SupportsDecodedWrites(),
                  "backing's scalar write semantics cannot be buffered");
  }
  DecodeView(const DecodeView&) = delete;
  DecodeView& operator=(const DecodeView&) = delete;
  ~DecodeView() { Flush(); }

  [[nodiscard]] uint64_t Get(size_t i) { return Slot(i); }

  // Mirrors CounterVector::Set, including the clamp-at-MaxValue tally of
  // the saturating backings.
  void Set(size_t i, uint64_t value) {
    if (value > max_value_) {
      value = max_value_;
      ++pending_stats_.saturation_clamps;
    }
    MutableSlot(i) = value;
  }

  void Increment(size_t i, uint64_t delta = 1) {
    uint64_t& v = MutableSlot(i);
    if (delta > max_value_ - v) {
      v = max_value_;
      ++pending_stats_.saturation_clamps;
      return;
    }
    v += delta;
  }

  void Decrement(size_t i, uint64_t delta = 1) {
    uint64_t& v = MutableSlot(i);
    if (delta > v) {
      v = 0;
      ++pending_stats_.underflow_clamps;
      return;
    }
    v -= delta;
  }

  // Writes every dirty span back (one EncodeBlock per span) and folds the
  // buffered clamp tallies into the backing. Cached spans stay resident,
  // so a flushed view remains usable.
  void Flush();

  // Spans decoded so far (cache misses) — test/bench introspection.
  [[nodiscard]] uint64_t decode_count() const noexcept { return decodes_; }

 private:
  struct Span {
    size_t first = 0;
    uint32_t count = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t values[kSpanCounters];
  };

  uint64_t& Slot(size_t i) {
    SBF_DCHECK(i < cv_->size());
    Span& s = ways_[(i / kSpanCounters) % kWays];
    const size_t first = i & ~(kSpanCounters - 1);
    if (!s.valid || s.first != first) Refill(s, first);
    return s.values[i - first];
  }
  uint64_t& MutableSlot(size_t i) {
    SBF_DCHECK_MSG(mutable_cv_ != nullptr, "write through a read-only view");
    Span& s = ways_[(i / kSpanCounters) % kWays];
    const size_t first = i & ~(kSpanCounters - 1);
    if (!s.valid || s.first != first) Refill(s, first);
    s.dirty = true;
    return s.values[i - first];
  }
  // Evicts (writing back if dirty) and decodes the span at `first`.
  void Refill(Span& s, size_t first);
  void WriteBack(Span& s);

  const CounterVector* cv_;
  CounterVector* mutable_cv_;
  uint64_t max_value_;
  uint64_t decodes_ = 0;
  SaturationStats pending_stats_;
  Span ways_[kWays];
};

// Backing selector used by filter configuration structs.
enum class CounterBacking {
  kFixed64,     // 64-bit packed counters, fastest, largest
  kFixed32,     // 32-bit packed counters
  kCompact,     // CompactCounterVector (the paper's dynamic structure)
  kSerialScan,  // SerialScanCounterVector (Section 4.5 alternative)
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
// fixed-width configuration: width 64/32, non-saturating). Deserializers
// use this to reject frames whose embedded backing contradicts the
// enclosing filter's options — the devirtualized batch kernels static_cast
// to the concrete type, so a mismatch must never be accepted.
bool MatchesBacking(const CounterVector& cv, CounterBacking backing);

}  // namespace sbf

#endif  // SBF_SAI_COUNTER_VECTOR_H_
