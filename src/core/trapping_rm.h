#ifndef SBF_CORE_TRAPPING_RM_H_
#define SBF_CORE_TRAPPING_RM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitstream/bit_vector.h"
#include "core/frequency_filter.h"
#include "core/recurring_minimum.h"
#include "core/spectral_bloom_filter.h"

namespace sbf {

// The Trapping Recurring Minimum algorithm (paper Section 3.3.1), a
// refinement of Recurring Minimum that tackles the *late detection* error:
// an item x recognized as single-minimum only after all its counters were
// already contaminated transfers an inflated value to the secondary SBF.
//
// Each primary counter has a one-bit "trap"; a lookup table L maps a set
// trap to the item that armed it. When an item is moved to the secondary
// SBF, the trap on its minimal counter is armed. If a *different* item
// later steps on that trap, the trapped item's secondary value is reduced
// by the stepping item's estimated frequency — compensating the
// contamination that was baked into the transferred value — and the trap
// is cleared.
//
// The paper notes two uncovered (rare) cases: a stepping item that never
// reappears after the transfer (the palindrome adversary), and two
// counters contaminated to the same value producing a fake recurring
// minimum. Both are exercised in the test suite.
class TrappingRmSbf final : public RecurringMinimumCore {
 public:
  explicit TrappingRmSbf(RecurringMinimumOptions options);

  void Insert(uint64_t key, uint64_t count = 1) override;
  [[nodiscard]] size_t MemoryUsageBits() const override;
  [[nodiscard]] std::string Name() const override { return "TRM"; }

  // Number of trap-firing compensation events so far.
  [[nodiscard]] size_t traps_fired() const noexcept { return traps_fired_; }
  [[nodiscard]] size_t traps_armed() const noexcept {
    return traps_.PopCount();
  }

  // 'SBtm' wire frame (io/wire.h): {options, varint traps fired, embedded
  // primary and secondary SBF frames, trap bits, owner table sorted by
  // position}. The sort makes the bytes canonical — the in-memory owner
  // table is unordered.
  [[nodiscard]] std::vector<uint8_t> Serialize() const override;
  static StatusOr<TrappingRmSbf> Deserialize(wire::ByteSpan bytes);

  // Audits the two-SBF split (CheckSbfs) and the trap machinery: the trap
  // bit vector sized to primary m, trap_owner_ holding exactly one entry
  // per armed trap with in-range positions.
  Status CheckInvariants() const override;

 private:
  // A loaded core (Deserialize); the trap bits start disarmed.
  TrappingRmSbf(RecurringMinimumOptions options,
                std::pair<SpectralBloomFilter, SpectralBloomFilter> sbfs);

  // No key counts as moved whatever its primary counters show: the traps
  // compensate late detection instead of a marker filter.
  [[nodiscard]] bool Marked(uint64_t) const override { return false; }

  void FireTrapsHitBy(uint64_t key, const uint64_t* positions);
  void MoveToSecondary(uint64_t key, const uint64_t* primary_positions,
                       uint64_t primary_min);

  BitVector traps_;                                  // one bit per counter
  std::unordered_map<uint64_t, uint64_t> trap_owner_;  // position -> item
  size_t traps_fired_ = 0;
};

}  // namespace sbf

#endif  // SBF_CORE_TRAPPING_RM_H_
