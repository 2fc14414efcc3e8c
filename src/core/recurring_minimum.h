#ifndef SBF_CORE_RECURRING_MINIMUM_H_
#define SBF_CORE_RECURRING_MINIMUM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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
  // the secondary SBF, consulted first on insert, lookup and delete. It is
  // no guard against false negatives under deletions: in a seeded
  // sliding-window run RM had more of them with the marker than without
  // (EXPERIMENTS.md "One Recurring Minimum core").
  bool use_marker_filter = false;
};

// The options of the two SBFs of a Recurring Minimum filter (RM and
// Trapping RM alike): both Minimum Selection over the given backing and
// hash kind; the secondary has its own m and a salted seed, so its hash
// functions, and with them its Bloom errors, are independent of the
// primary's.
SbfOptions PrimaryOptions(const RecurringMinimumOptions& options);
SbfOptions SecondaryOptions(const RecurringMinimumOptions& options);

// What Recurring Minimum (Section 3.3) and Trapping RM (Section 3.3.1)
// share: the primary and secondary SBFs, the lookup and delete rules, the
// health report and the frame code both frames lead with. The two differ
// only in how a key moves to the secondary (each implements Insert) and in
// Marked().
class RecurringMinimumCore : public FrequencyFilter {
 public:
  // Delete: reverse of insert — decrease the primary; unless the key has
  // a recurring minimum there and is not Marked, decrease the secondary
  // too, provided none of its counters there would drop below zero.
  void Remove(uint64_t key, uint64_t count = 1) final;

  // Lookup: a recurring minimum in the primary (and not Marked) -> the
  // primary minimum; otherwise the secondary's estimate if it knows the
  // item (> 0), capped at the primary minimum, else the primary minimum.
  [[nodiscard]] uint64_t Estimate(uint64_t key) const final;

  // Live health: the primary SBF's snapshot (every lookup probes it, so
  // its occupancy governs the Bloom error), with the secondary's clamp
  // tallies folded in and its verdict escalated if worse.
  [[nodiscard]] FilterHealth Health() const final;

  [[nodiscard]] const SpectralBloomFilter& primary() const noexcept {
    return primary_;
  }
  [[nodiscard]] const SpectralBloomFilter& secondary() const noexcept {
    return secondary_;
  }

 protected:
  // Empty SBFs sized by `options`.
  explicit RecurringMinimumCore(RecurringMinimumOptions options);
  // Loaded SBFs, as ReadSbfFrames returns them.
  RecurringMinimumCore(
      RecurringMinimumOptions options,
      std::pair<SpectralBloomFilter, SpectralBloomFilter> sbfs);

  // Whether `key` counts as already moved to the secondary, whatever its
  // primary counters show.
  [[nodiscard]] virtual bool Marked(uint64_t key) const = 0;

  // --- the frame code RM and TRM share ----------------------------------

  // Writes and reads the leading primary_m, secondary_m, k, backing and
  // hash-kind fields; the read range-checks them ("bad <what> header").
  void PutLeadingFields(wire::Writer& out) const;
  static Status ReadLeadingFields(wire::Reader& in, const char* what,
                                  RecurringMinimumOptions* options);
  // The embedded primary and secondary SBF frames. The read deserializes
  // both and checks them against `options` (derived seed included):
  // anything else is a reassembled or tampered message. A frame bounds its
  // own m by the message, so once this returns OK the header sizes are
  // safe to allocate from.
  void PutSbfFrames(wire::Writer& out) const;
  static StatusOr<std::pair<SpectralBloomFilter, SpectralBloomFilter>>
  ReadSbfFrames(wire::Reader& in, const char* what,
                const RecurringMinimumOptions& options);

  // Audits both SBFs: their options against options_ (derived seeds
  // included) and their own validators.
  Status CheckSbfs(const char* what) const;

  RecurringMinimumOptions options_;
  SpectralBloomFilter primary_;
  SpectralBloomFilter secondary_;
};

// The Recurring Minimum algorithm (paper Section 3.3).
//
// Observation: an item suffering a Bloom error rarely has a *recurring*
// minimum among its k counters. Items with a single minimum — the
// suspected-error minority (~20% of items at gamma = 0.7) — are tracked in
// a smaller secondary SBF with far better parameters, shrinking the
// overall error by an order of magnitude (Table 1: 18x at gamma = 0.7)
// while, unlike Minimal Increase, still supporting deletions and updates.
class RecurringMinimumSbf final : public RecurringMinimumCore {
 public:
  explicit RecurringMinimumSbf(RecurringMinimumOptions options);

  // Splits a total budget of `total_m` counters between primary and
  // secondary (the fair-comparison configuration of Section 6.1, where
  // both SBFs charge against one total). The 4:1 split empirically
  // minimizes the overall error of this implementation.
  static RecurringMinimumSbf WithTotalBudget(uint64_t total_m, uint32_t k,
                                             uint64_t seed = 0);

  // Insert: bump the primary; if the item now has a single minimum, track
  // it in the secondary SBF (first move initializes the secondary counters
  // up to the primary minimum).
  void Insert(uint64_t key, uint64_t count = 1) override;

  [[nodiscard]] size_t MemoryUsageBits() const override;
  [[nodiscard]] std::string Name() const override { return "RM"; }

  [[nodiscard]] const std::optional<BloomFilter>& marker() const noexcept {
    return marker_;
  }
  // Items currently routed through the secondary SBF (move events).
  [[nodiscard]] size_t moved_to_secondary() const noexcept {
    return moved_to_secondary_;
  }

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

  // Audits the two-SBF split (CheckSbfs), the marker filter present iff
  // enabled and sized to primary_m, and moved_to_secondary() == 0
  // implying an all-zero secondary.
  Status CheckInvariants() const override;

 private:
  // A loaded filter (Deserialize).
  RecurringMinimumSbf(RecurringMinimumOptions options,
                      std::pair<SpectralBloomFilter, SpectralBloomFilter> sbfs,
                      size_t moved)
      : RecurringMinimumCore(options, std::move(sbfs)),
        moved_to_secondary_(moved) {}

  // Marked in the marker filter B_f, when it is enabled.
  [[nodiscard]] bool Marked(uint64_t key) const override;

  std::optional<BloomFilter> marker_;
  size_t moved_to_secondary_ = 0;
};

}  // namespace sbf

#endif  // SBF_CORE_RECURRING_MINIMUM_H_
