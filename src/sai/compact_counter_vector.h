#ifndef SBF_SAI_COMPACT_COUNTER_VECTOR_H_
#define SBF_SAI_COMPACT_COUNTER_VECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "bitstream/bit_vector.h"
#include "sai/counter_vector.h"
#include "util/aligned_alloc.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/prefetch.h"

namespace sbf {

namespace compact_detail {

// Counters per span header of CompactCounterVector.
inline constexpr size_t kSpanCounters = 32;

// Where each 6-bit lane of a span header lives (word, shift), and for
// each j the mask of the lanes below lane j in each of the four words.
struct LaneTable {
  uint8_t word[kSpanCounters];
  uint8_t shift[kSpanCounters];
  uint64_t below[kSpanCounters + 1][4];
};

constexpr LaneTable MakeLaneTable() {
  LaneTable t{};
  for (size_t j = 0; j < kSpanCounters; ++j) {
    t.word[j] = static_cast<uint8_t>(j < 2 ? 0 : 1 + (j - 2) / 10);
    t.shift[j] =
        static_cast<uint8_t>(j < 2 ? 52 + 6 * j : 6 * ((j - 2) % 10));
  }
  for (size_t j = 0; j <= kSpanCounters; ++j) {
    for (size_t lane = 0; lane < j; ++lane) {
      t.below[j][t.word[lane]] |= uint64_t{63} << t.shift[lane];
    }
  }
  return t;
}

inline constexpr LaneTable kLanes = MakeLaneTable();

}  // namespace compact_detail

// The paper's dynamic compact counter storage (Section 4.4).
//
// Counter C_i is embedded in its current width w_i >= 1 bits (initially 1,
// grown to ceil(log C_i) as the counter grows), and counters are placed
// consecutively in one base bit array with slack bits interspersed. The
// array is organized in groups of `group_size` counters; each group's
// region holds its counters back-to-back followed by the group's remaining
// slack. All bookkeeping lives in one 32-byte header per span of up to 32
// counters of one group (a group of G counters has ceil(G/32) spans): the
// absolute bit position of the span's first counter, and each counter's
// width - 1 in a 6-bit lane. That is O(m) bits on top of the
// N = sum ceil(log C_i) payload (8 bits per counter at the default
// group_size of 32), matching the paper's N + o(N) + O(m) bound.
//
// A position is the header's start plus the widths of the lanes below the
// counter's, summed in registers (SpanHeader::WidthsBelow), so a probe
// reads one header line, then the payload word. Two headers share a
// 64-byte line. The batch pipelines hint the header (PrefetchCounter).
//
// A counter that widens shifts the tail of its own group into the group
// slack (O(group_size) = O(1) work) and moves the starts of its group's
// later spans. A group's used bits end where its last span's widths end,
// and its region ends at the next group's first start. A group whose
// slack is exhausted "pushes" the following groups toward the nearest
// group that still has slack — the paper's push-to-slack scheme, whose
// expected push distance is O(1/eps) (Lemma 8) — moving the starts of
// every header it shifts. When no slack remains to the right, the whole
// array is refreshed (rebuilt with tightened widths and fresh slack),
// giving O(1) expected amortized updates.
//
// Deletions shrink values in place and never move counters (Section 4.4:
// "Delete operations only affect individual counters, and do not affect
// their positions"); widths are re-tightened on the next refresh.
class CompactCounterVector final : public CounterVector {
 public:
  struct Options {
    // Counters per group (1..4096); a group of G counters has ceil(G/32)
    // span headers, so groups smaller than 32 pay a whole header each.
    size_t group_size = 32;
    // Slack bits allocated per counter at build/refresh time (the paper's
    // eps'). Each group additionally gets at least 64 bits so any single
    // widening fits after a refresh.
    double slack_per_counter = 0.5;
  };

  // Counters per span header.
  static constexpr size_t kSpanCounters = compact_detail::kSpanCounters;

  explicit CompactCounterVector(size_t m)
      : CompactCounterVector(m, Options()) {}
  CompactCounterVector(size_t m, Options options);

  [[nodiscard]] size_t size() const noexcept override { return m_; }
  [[nodiscard]] uint64_t Get(size_t i) const noexcept override {
    SBF_DCHECK(i < m_);
    const Slot slot = Locate(i);
    const SpanHeader& h = headers_[slot.header];
    return bits_.GetBits(h.PositionOf(slot.lane), h.Width(slot.lane));
  }
  void Set(size_t i, uint64_t value) override;
  // Fast path for the common no-widening case: one header read and one
  // payload read-modify-write, where a Get+Set pair would locate twice.
  void Increment(size_t i, uint64_t delta = 1) override {
    SBF_DCHECK(i < m_);
    const Slot slot = Locate(i);
    const SpanHeader& h = headers_[slot.header];
    const uint32_t width = h.Width(slot.lane);
    const size_t pos = h.PositionOf(slot.lane);
    const uint64_t v = bits_.GetBits(pos, width);
    const uint64_t value = v + delta;
    if (value >= v && BitWidth(value) <= width) {
      bits_.SetBits(pos, width, value);
      return;
    }
    IncrementSlow(i, v, delta);  // widening or the 64-bit ceiling
  }
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

  // Audits the span headers: starts below 2^52 and monotone, each span
  // starting where the widths of the span before it in its group end,
  // unused lanes zero, and every group's payload inside its region (see
  // DESIGN.md §7).
  Status CheckInvariants() const override;
  static StatusOr<std::unique_ptr<CounterVector>> Deserialize(
      wire::ByteSpan bytes);

  // Stage-1 hint of the batch pipelines: the header line of counter i.
  // No demand load, so the hint never stalls the pipeline. It finds the
  // header with a hardware division where Locate multiplies, on purpose:
  // the hint then issues some 30 cycles later, behind the payload misses
  // of the key being probed rather than ahead of them, and
  // `durable_ingest`-shaped batches ran ~1.3x faster for it (an equally
  // long chain of multiplies did the same; EXPERIMENTS.md "Compact
  // counters on span headers").
  void PrefetchCounter(size_t i) const override {
    const size_t g = i / options_.group_size;
    const size_t j = i - g * options_.group_size;
    SBF_PREFETCH(headers_.data() + g * spans_per_group_ + j / kSpanCounters);
  }
  // One O(1) seek, then span by span: each header's width lanes are
  // shifted out of its words in registers while the payload streams
  // through a 64-bit window.
  void DecodeBlock(size_t first, size_t n, uint64_t* out) const override;

  // --- introspection for tests and the storage experiments -------------

  // Payload bits actually used by counter fields (sum of widths).
  size_t UsedBits() const;
  // Bits of the base array (payload + slack).
  size_t BaseArrayBits() const { return bits_.size_bits(); }
  // Bookkeeping bits: the span headers, 256 bits each.
  size_t OverheadBits() const { return headers_.size() * 256; }
  // Number of full refresh (rebuild) events so far.
  size_t rebuild_count() const { return rebuilds_; }
  // Total bits moved by push-to-slack shifts (excluding rebuilds).
  uint64_t pushed_bits_total() const { return pushed_bits_; }
  // Current width of counter i.
  [[nodiscard]] uint32_t WidthOf(size_t i) const {
    const Slot slot = Locate(i);
    return headers_[slot.header].Width(slot.lane);
  }
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

  // The raw words of the span headers (four per header), for the audit
  // layer's corruption tests.
  [[nodiscard]] uint64_t* mutable_header_words() noexcept {
    return headers_.data()->word;
  }

 private:
  // One span of up to kSpanCounters counters of one group. word[0] holds
  // the absolute bit position of the span's first counter in its low 52
  // bits; lanes 0 and 1 fill its top 12 bits, and words 1..3 hold lanes
  // 2..11, 12..21 and 22..31 in their low 60 bits. Lane j holds
  // width(j) - 1, so every width is in [1, 64]. Lanes past the span's
  // last counter are zero.
  struct alignas(32) SpanHeader {
    static constexpr uint64_t kStartMask = (uint64_t{1} << 52) - 1;

    uint64_t word[4] = {0, 0, 0, 0};

    [[nodiscard]] uint64_t Start() const noexcept {
      return word[0] & kStartMask;
    }
    void SetStart(uint64_t start) noexcept {
      word[0] = (word[0] & ~kStartMask) | start;
    }
    [[nodiscard]] uint32_t Width(size_t j) const noexcept {
      const uint32_t shift = compact_detail::kLanes.shift[j];
      return static_cast<uint32_t>(
                 (word[compact_detail::kLanes.word[j]] >> shift) & 63) +
             1;
    }
    void SetWidth(size_t j, uint32_t width) noexcept {
      const uint32_t shift = compact_detail::kLanes.shift[j];
      uint64_t& w = word[compact_detail::kLanes.word[j]];
      w = (w & ~(uint64_t{63} << shift)) | (uint64_t{width - 1} << shift);
    }
    // Sum of the widths of lanes [0, j), 0 <= j <= 32: the lanes below j
    // are masked in each word (one table row, so no branch on j) and
    // their pairs folded into 12-bit lanes (at most 126 each); the four
    // words add lane-wise (at most 504) and one multiply gathers the five
    // 12-bit lanes into the top one (at most 2520, so nothing carries out
    // of a lane).
    [[nodiscard]] uint64_t WidthsBelow(size_t j) const noexcept {
      const uint64_t* below = compact_detail::kLanes.below[j];
      uint64_t acc = FoldPairs((word[0] & below[0]) >> 52);
      acc += FoldPairs(word[1] & below[1]);
      acc += FoldPairs(word[2] & below[2]);
      acc += FoldPairs(word[3] & below[3]);
      return j + (((acc * 0x0001001001001001ull) >> 48) & 0xFFF);
    }
    // Bit position of lane j's counter.
    [[nodiscard]] uint64_t PositionOf(size_t j) const noexcept {
      return Start() + WidthsBelow(j);
    }

    // Sums adjacent 6-bit lanes into 12-bit lanes.
    static constexpr uint64_t FoldPairs(uint64_t x) {
      constexpr uint64_t kLow6Of12 = 0x003F03F03F03F03Full;
      return (x & kLow6Of12) + ((x >> 6) & kLow6Of12);
    }
  };
  static_assert(sizeof(SpanHeader) == 32);

  // Counter i's header and lane.
  struct Slot {
    size_t header;
    size_t lane;
  };
  // Counter i's group: i / group_size by group_reciprocal_.
  [[nodiscard]] size_t GroupOf(size_t i) const noexcept {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(i) * group_reciprocal_) >> 63);
  }
  [[nodiscard]] Slot Locate(size_t i) const noexcept {
    const size_t g = GroupOf(i);
    const size_t j = i - g * options_.group_size;
    return {g * spans_per_group_ + j / kSpanCounters, j % kSpanCounters};
  }

  size_t NumItemsInGroup(size_t g) const;
  // Decodes counters lane..lane + count - 1 of span `h` into out and
  // returns the end of what it wrote.
  uint64_t* DecodeSpan(const SpanHeader& h, size_t lane, size_t count,
                       uint64_t* out) const;
  // Counters in span s of group g (zero for the trailing spans of a short
  // last group).
  size_t SpanCount(size_t g, size_t s) const;
  // Bit position of group g's first counter, and the end of its region
  // (the next group's first start; the array's end for the last group).
  size_t GroupStart(size_t g) const {
    return headers_[g * spans_per_group_].Start();
  }
  size_t RegionEnd(size_t g) const {
    return g + 1 < num_groups_ ? GroupStart(g + 1) : bits_.size_bits();
  }
  // End of group g's payload: where its last span's widths end.
  size_t PayloadEnd(size_t g) const;
  size_t FreeBits(size_t g) const { return RegionEnd(g) - PayloadEnd(g); }
  // Makes at least `need` free bits available in group g by pushing the
  // following groups into their slack. Returns false if it had to give up
  // (no slack to the right), in which case the caller must Rebuild.
  bool BorrowSlack(size_t g, size_t need);
  // Increment past the in-place fast path: clamp at 2^64 - 1, or widen.
  void IncrementSlow(size_t i, uint64_t v, uint64_t delta);
  void Rebuild();
  // Lays out every counter in the width of its value with fresh slack
  // and writes the values (null: every counter a 1-bit zero).
  void LayoutFromValues(const uint64_t* values);
  // Deserialize's load into this fresh vector: leaves exactly the layout
  // one Set per nonzero value in index order would, but lays out in one
  // pass each group whose widenings fit its free bits (Set runs the rest).
  void LoadInOrder(const std::vector<uint64_t>& values);

  size_t m_;
  Options options_;
  size_t num_groups_;
  size_t spans_per_group_;
  // ceil(2^63 / group_size), so (i * group_reciprocal_) >> 63 is
  // i / group_size without a division: exact for every i < 2^51 when
  // group_size <= 2^12 (Lemire, Kaser and Kurz, "Faster remainder by
  // direct computation", Theorem 1).
  uint64_t group_reciprocal_;
  BitVector bits_;
  // num_groups_ * spans_per_group_ headers, group by group, two per
  // 64-byte line.
  std::vector<SpanHeader, AlignedAllocator<SpanHeader, 64>> headers_;
  size_t rebuilds_ = 0;
  uint64_t pushed_bits_ = 0;
};

}  // namespace sbf

#endif  // SBF_SAI_COMPACT_COUNTER_VECTOR_H_
