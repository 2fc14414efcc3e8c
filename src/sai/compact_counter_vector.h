#ifndef SBF_SAI_COMPACT_COUNTER_VECTOR_H_
#define SBF_SAI_COMPACT_COUNTER_VECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "bitstream/bit_vector.h"
#include "sai/counter_vector.h"
#include "util/prefetch.h"

namespace sbf {

// The paper's dynamic compact counter storage (Section 4.4).
//
// Counter C_i is embedded in its current width w_i >= 1 bits (initially 1,
// grown to ceil(log C_i) as the counter grows), and counters are placed
// consecutively in one base bit array with slack bits interspersed. The
// array is organized in groups of `group_size` counters; each group's
// region holds its counters back-to-back followed by the group's remaining
// slack. Per group we keep a start offset and the used-bit count, and per
// counter its width — O(m) bits of bookkeeping on top of the
// N = sum ceil(log C_i) payload, matching the paper's N + o(N) + O(m)
// bound.
//
// A counter that widens shifts the tail of its own group into the group
// slack (O(group_size) = O(1) work). A group whose slack is exhausted
// "pushes" the following groups toward the nearest group that still has
// slack — the paper's push-to-slack scheme, whose expected push distance
// is O(1/eps) (Lemma 8). When no slack remains to the right, the whole
// array is refreshed (rebuilt with tightened widths and fresh slack),
// giving O(1) expected amortized updates.
//
// Deletions shrink values in place and never move counters (Section 4.4:
// "Delete operations only affect individual counters, and do not affect
// their positions"); widths are re-tightened on the next refresh.
class CompactCounterVector final : public CounterVector {
 public:
  struct Options {
    // Counters per group; the per-access width scan is bounded by this.
    size_t group_size = 32;
    // Slack bits allocated per counter at build/refresh time (the paper's
    // eps'). Each group additionally gets at least 64 bits so any single
    // widening fits after a refresh.
    double slack_per_counter = 0.5;
  };

  explicit CompactCounterVector(size_t m)
      : CompactCounterVector(m, Options()) {}
  CompactCounterVector(size_t m, Options options);

  [[nodiscard]] size_t size() const noexcept override { return m_; }
  [[nodiscard]] uint64_t Get(size_t i) const noexcept override;
  void Set(size_t i, uint64_t value) override;
  // Fast path for the common no-widening case: one position scan instead
  // of the two a Get+Set pair would perform.
  void Increment(size_t i, uint64_t delta = 1) override;
  void Reset() override;
  size_t MemoryUsageBits() const override;
  std::unique_ptr<CounterVector> Clone() const override;
  std::string Name() const override { return "compact"; }

  // 'SBcc' frame: {varint m, varint group_size, u64 slack bit-pattern,
  // Elias counter stream} (sai/counter_codec.h). Values are serialized,
  // not the slack layout — a loaded vector rebuilds its layout, but its
  // bytes are still determined by (options, values), so re-serialization
  // is byte-identical.
  std::vector<uint8_t> Serialize() const override;

  // Audits offset monotonicity, group bookkeeping vs. widths, and that
  // every stored value fits its recorded width (see DESIGN.md §7).
  Status CheckInvariants() const override;
  static StatusOr<std::unique_ptr<CounterVector>> Deserialize(
      wire::ByteSpan bytes);

  // Pulls in the width entries scanned by PositionOf and the group's
  // payload words — the two dependent loads a Get(i) performs.
  void PrefetchCounter(size_t i) const override {
    const size_t g = i / options_.group_size;
    SBF_PREFETCH(widths_.data() + g * options_.group_size);
    SBF_PREFETCH(bits_.words() + (group_start_[g] >> 6));
  }
  // One O(1) seek, then a single sequential decode of the range.
  void DecodeBlock(size_t first, size_t n, uint64_t* out) const override;

  // --- introspection for tests and the storage experiments -------------

  // Payload bits actually used by counter fields (sum of widths).
  size_t UsedBits() const;
  // Bits of the base array (payload + slack).
  size_t BaseArrayBits() const { return bits_.size_bits(); }
  // Bookkeeping bits (group offsets, used counts, widths).
  size_t OverheadBits() const;
  // Number of full refresh (rebuild) events so far.
  size_t rebuild_count() const { return rebuilds_; }
  // Total bits moved by push-to-slack shifts (excluding rebuilds).
  uint64_t pushed_bits_total() const { return pushed_bits_; }
  // Current width of counter i.
  [[nodiscard]] uint32_t WidthOf(size_t i) const { return widths_[i]; }
  // Number of groups and the configured counters per group (sbf_tool's
  // storage inspector sweeps these).
  [[nodiscard]] size_t group_count() const noexcept { return num_groups_; }
  [[nodiscard]] size_t group_size() const noexcept {
    return options_.group_size;
  }
  // Free slack bits currently left in group g.
  [[nodiscard]] size_t GroupSlackBits(size_t g) const { return FreeBits(g); }

  // Rebuilds immediately with tightened widths and fresh slack.
  void ForceRebuild() { Rebuild(); }

 private:
  // Sampling stride of the per-group prefix-sum offset table: one sample
  // per kSampleStride counters, holding the group-relative bit offset of
  // that counter. PositionOf then adds at most kSampleStride - 1 widths,
  // summed branch-free from one 8-byte load (see SumWidthsBelow in the
  // .cc), making every position O(1) instead of O(group_size).
  static constexpr size_t kSampleStride = 8;
  // Zero padding after widths_[m_ - 1] so the unaligned 8-byte width loads
  // never read past the allocation.
  static constexpr size_t kWidthPad = 8;

  size_t NumItemsInGroup(size_t g) const;
  size_t RegionBits(size_t g) const {
    return group_start_[g + 1] - group_start_[g];
  }
  size_t FreeBits(size_t g) const { return RegionBits(g) - used_[g]; }
  // Bit position of counter i inside the base array.
  size_t PositionOf(size_t i) const;
  // Makes at least `need` free bits available in group g by pushing the
  // following groups into their slack. Returns false if it had to give up
  // (no slack to the right), in which case the caller must Rebuild.
  bool BorrowSlack(size_t g, size_t need);
  void Rebuild();
  // Lays out counters of widths_ with fresh slack and writes `values`
  // (null: every counter zero).
  void LayoutFromValues(const uint64_t* values);
  // Deserialize's load into this fresh vector: leaves exactly the layout
  // one Set per nonzero value in index order would, but lays out in one
  // pass each group whose widenings fit its free bits (Set runs the rest).
  void LoadInOrder(const std::vector<uint64_t>& values);
  // Recomputes group g's prefix-sum samples from widths_.
  void RebuildSamples(size_t g);
  // Sequentially decodes counters [first, last) starting from a resolved
  // bit position, storing into out; returns the bit position after `last`.
  size_t DecodeRun(size_t first, size_t last, size_t pos, uint64_t* out) const;

  size_t m_;
  Options options_;
  size_t num_groups_;
  size_t samples_per_group_;
  BitVector bits_;
  std::vector<uint64_t> group_start_;  // num_groups_+1 entries; last = end
  std::vector<uint32_t> used_;         // payload bits per group
  std::vector<uint8_t> widths_;        // width of each counter; kWidthPad
                                       // zero bytes of tail padding
  // Group-relative bit offsets of every kSampleStride-th counter
  // (samples_per_group_ entries per group). Group-relative, so
  // push-to-slack shifts (which move whole groups) never touch them.
  std::vector<uint32_t> offset_samples_;
  size_t rebuilds_ = 0;
  uint64_t pushed_bits_ = 0;
};

}  // namespace sbf

#endif  // SBF_SAI_COMPACT_COUNTER_VECTOR_H_
