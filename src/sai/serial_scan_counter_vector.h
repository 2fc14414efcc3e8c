#ifndef SBF_SAI_SERIAL_SCAN_COUNTER_VECTOR_H_
#define SBF_SAI_SERIAL_SCAN_COUNTER_VECTOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bitstream/bit_vector.h"
#include "bitstream/steps_code.h"
#include "sai/counter_vector.h"
#include "util/prefetch.h"

namespace sbf {

// The paper's compact alternative storage (Section 4.5): counters are kept
// in a prefix-free encoding (the "steps" code escaping to Elias delta, so a
// counter of value c costs close to log c bits) and only coarse offsets are
// kept — one per group of `group_size` counters, standing in for the C1/C2
// coarse levels. A lookup seeks to the group start and serially decodes up
// to group_size codewords, i.e. O(log log N)-style scan instead of O(1),
// in exchange for dropping the per-item offset structures.
//
// Counters are stored directly under the steps code (whose first step
// already represents 0); only the Elias escape inside the code applies the
// paper's code(c+1) shift (Section 4.5, footnote 1).
//
// Updates re-encode the affected group inside its slack-padded region,
// borrowing slack from following groups when needed and refreshing the
// whole array when the slack to the right is exhausted, exactly like
// CompactCounterVector.
class SerialScanCounterVector final : public CounterVector {
 public:
  struct Options {
    size_t group_size = 16;
    double slack_per_counter = 0.5;
    // Step widths of the small-counter code; {0, 0} is the paper's
    // "0 -> '0', 1 -> '10', else '11' + Elias" example.
    std::vector<uint32_t> step_widths = {0, 0};
  };

  explicit SerialScanCounterVector(size_t m)
      : SerialScanCounterVector(m, Options()) {}
  SerialScanCounterVector(size_t m, Options options);

  [[nodiscard]] size_t size() const noexcept override { return m_; }
  [[nodiscard]] uint64_t Get(size_t i) const override;
  void Set(size_t i, uint64_t value) override;
  void Reset() override;
  size_t MemoryUsageBits() const override;
  std::unique_ptr<CounterVector> Clone() const override;
  std::string Name() const override { return "serial-scan"; }

  // 'SBss' frame: {varint m, varint group_size, u64 slack bit-pattern,
  // varint step count + per-step varint widths, Elias counter stream}.
  // Like the compact backing, values are serialized and the grouped
  // layout is rebuilt on load.
  std::vector<uint8_t> Serialize() const override;

  // Audits offset monotonicity, per-group used-bit bookkeeping vs. a
  // re-encode of the decoded values, and slice-layout bounds.
  Status CheckInvariants() const override;
  static StatusOr<std::unique_ptr<CounterVector>> Deserialize(
      wire::ByteSpan bytes);

  // Pulls in the words a lookup serially decodes from the group start.
  void PrefetchCounter(size_t i) const override {
    const size_t g = i / options_.group_size;
    const size_t word = group_start_[g] >> 6;
    SBF_PREFETCH(bits_.words() + word);
    // A second line when the group's region spans one.
    if (((group_start_[g + 1] - 1) >> 6) > word + 7) {
      SBF_PREFETCH(bits_.words() + word + 8);
    }
  }
  // One serial decode per overlapped group (skipping the prefix before
  // `first` in the first group).
  void DecodeBlock(size_t first, size_t n, uint64_t* out) const override;

  // Adds each pair's count to the counter at its position, clamping at
  // MaxValue(): the counters and clamp tallies of a loop of Increment
  // over `adds` in order. The pairs are clustered by group, stably, so
  // each counter still sees its adds in input order; each touched group
  // is then decoded and re-encoded once instead of once per add. A group
  // that outgrows its region and cannot borrow slack ends the walk in one
  // Rebuild that folds in every pair still pending. May allocate.
  void AddMany(std::vector<std::pair<uint64_t, uint64_t>> adds);

  // Payload bits of the current encoding (sum of codeword lengths).
  size_t EncodedBits() const;
  // Bits of the base array (payload + slack).
  size_t BaseArrayBits() const { return bits_.size_bits(); }
  // Coarse-offset bookkeeping bits.
  size_t OverheadBits() const;
  size_t rebuild_count() const { return rebuilds_; }

 private:
  size_t NumItemsInGroup(size_t g) const;
  size_t RegionBits(size_t g) const {
    return group_start_[g + 1] - group_start_[g];
  }
  size_t FreeBits(size_t g) const { return RegionBits(g) - used_[g]; }
  void DecodeGroup(size_t g, uint64_t* out) const;
  // Encoded size of `count` values under the configured code.
  size_t EncodedSize(const uint64_t* values, size_t count) const;
  void EncodeGroupAt(size_t g, const uint64_t* values, size_t count);
  // Re-encodes group g from values[0..group count), borrowing slack from
  // the groups to its right when it outgrows its region. False, with the
  // group left as it was, when no slack is left to borrow.
  bool TryEncodeGroup(size_t g, const uint64_t* values);
  bool BorrowSlack(size_t g, size_t need);
  void Rebuild(std::vector<uint64_t> values);

  size_t m_;
  Options options_;
  StepsCode code_;
  size_t num_groups_;
  BitVector bits_;
  std::vector<uint64_t> group_start_;
  std::vector<uint32_t> used_;
  size_t rebuilds_ = 0;
};

}  // namespace sbf

#endif  // SBF_SAI_SERIAL_SCAN_COUNTER_VECTOR_H_
