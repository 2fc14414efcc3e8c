#ifndef SBF_CORE_RECURRING_MINIMUM_H_
#define SBF_CORE_RECURRING_MINIMUM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/bloom_filter.h"
#include "core/frequency_filter.h"
#include "core/spectral_bloom_filter.h"

namespace sbf {

// Configuration of the Recurring Minimum filter. The paper's experiments
// use a secondary SBF of half the primary size (Table 1) and, for fair
// method comparisons, charge both SBFs against one total budget
// (Section 6.1: "the RM algorithm used m as an overall storage size").
struct RecurringMinimumOptions {
  uint64_t primary_m = 0;    // counters in the primary SBF (required)
  uint64_t secondary_m = 0;  // counters in the secondary SBF (required)
  uint32_t k = 5;
  CounterBacking backing = CounterBacking::kCompact;
  uint64_t seed = 0;
  HashFamily::Kind hash_kind = HashFamily::Kind::kModuloMultiply;
  // Enables the marker Bloom filter B_f refinement (Section 3.3): a plain
  // Bloom filter of primary_m bits recording the items that were moved to
  // the secondary SBF, consulted first on insert and lookup.
  bool use_marker_filter = false;
};

// The options of the two SBFs of a Recurring Minimum filter (RM and
// Trapping RM alike): both Minimum Selection over the given backing and
// hash kind; the secondary has its own m and a salted seed, so its hash
// functions, and with them its Bloom errors, are independent of the
// primary's.
SbfOptions PrimaryOptions(const RecurringMinimumOptions& options);
SbfOptions SecondaryOptions(const RecurringMinimumOptions& options);

// True when removing `count` occurrences of `key` from an RM secondary
// takes no counter below zero: each of the key's counters holds `count`
// times the number of its probes landing there (positions can repeat).
// RM and TRM remove from their secondary only then.
bool SecondaryCanAbsorb(const SpectralBloomFilter& secondary, uint64_t key,
                        uint64_t count);

// Live health of an RM or Trapping RM filter: the primary SBF's snapshot
// (every lookup probes it, so its occupancy governs the Bloom error), with
// the secondary's clamp tallies folded in and its verdict escalated if
// worse.
FilterHealth RecurringMinimumHealth(const SpectralBloomFilter& primary,
                                    const SpectralBloomFilter& secondary);

// The Recurring Minimum algorithm (paper Section 3.3).
//
// Observation: an item suffering a Bloom error rarely has a *recurring*
// minimum among its k counters. Items with a single minimum — the
// suspected-error minority (~20% of items at gamma = 0.7) — are tracked in
// a smaller secondary SBF with far better parameters, shrinking the
// overall error by an order of magnitude (Table 1: 18x at gamma = 0.7)
// while, unlike Minimal Increase, still supporting deletions and updates.
class RecurringMinimumSbf final : public FrequencyFilter {
 public:
  explicit RecurringMinimumSbf(RecurringMinimumOptions options);

  // Splits a total budget of `total_m` counters between primary and
  // secondary (the fair-comparison configuration of Section 6.1, where
  // both SBFs charge against one total). The 4:1 split empirically
  // minimizes the overall error of this implementation.
  static RecurringMinimumSbf WithTotalBudget(uint64_t total_m, uint32_t k,
                                             uint64_t seed = 0);

  // --- FrequencyFilter ---------------------------------------------------

  // Insert: bump the primary; if the item now has a single minimum, track
  // it in the secondary SBF (first move initializes the secondary counters
  // up to the primary minimum).
  void Insert(uint64_t key, uint64_t count = 1) override;

  // Delete: reverse of insert — decrease primary; if the item has a single
  // minimum (or is marked in B_f), decrease the secondary too unless one
  // of its counters there is already 0.
  void Remove(uint64_t key, uint64_t count = 1) override;

  // Lookup: recurring minimum in the primary -> primary minimum;
  // otherwise the secondary's estimate if it knows the item (> 0), else
  // the primary minimum.
  [[nodiscard]] uint64_t Estimate(uint64_t key) const override;

  [[nodiscard]] size_t MemoryUsageBits() const override;
  [[nodiscard]] std::string Name() const override { return "RM"; }

  // --- introspection -----------------------------------------------------

  [[nodiscard]] const SpectralBloomFilter& primary() const noexcept {
    return primary_;
  }
  [[nodiscard]] const SpectralBloomFilter& secondary() const noexcept {
    return secondary_;
  }
  [[nodiscard]] const std::optional<BloomFilter>& marker() const noexcept {
    return marker_;
  }
  // Items currently routed through the secondary SBF (move events).
  [[nodiscard]] size_t moved_to_secondary() const noexcept {
    return moved_to_secondary_;
  }

  // Live health (RecurringMinimumHealth).
  [[nodiscard]] FilterHealth Health() const override {
    return RecurringMinimumHealth(primary_, secondary_);
  }

  // Combined clamp-event tallies of both SBFs.
  [[nodiscard]] SaturationStats saturation() const;

  // Expands both SBFs in place (each new size a positive multiple of the
  // current one; see SpectralBloomFilter::ExpandTo). Counter values — and
  // with them minima and the recurring-minimum predicate — are preserved
  // exactly, so every estimate survives the expansion bit-for-bit. The
  // marker Bloom filter grows with the primary (its frame is pinned to
  // primary_m on the wire). The expansion is transactional: copies are
  // expanded first and committed together, so on any failure — bad
  // arguments, allocation — a clean Status returns and the filter is
  // untouched.
  Status ExpandTo(uint64_t new_primary_m, uint64_t new_secondary_m);

  // 'SBrm' wire frame (io/wire.h): {options, varint moved count, embedded
  // primary and secondary SBF frames, embedded marker BF frame when the
  // marker is enabled}. The embedded frames must agree with the options
  // (derived seeds included) or deserialization rejects the message.
  [[nodiscard]] std::vector<uint8_t> Serialize() const override;
  static StatusOr<RecurringMinimumSbf> Deserialize(wire::ByteSpan bytes);

  // Audits the two-SBF split: options coherence (sizes, derived seeds),
  // the marker filter present iff enabled and sized to primary_m, and
  // moved_to_secondary() == 0 implying an all-zero secondary. Both
  // embedded SBFs' own validators run as part of the sweep.
  Status CheckInvariants() const override;

 private:
  bool MarkedInSecondary(uint64_t key) const;

  RecurringMinimumOptions options_;
  SpectralBloomFilter primary_;
  SpectralBloomFilter secondary_;
  std::optional<BloomFilter> marker_;
  size_t moved_to_secondary_ = 0;
};

}  // namespace sbf

#endif  // SBF_CORE_RECURRING_MINIMUM_H_
