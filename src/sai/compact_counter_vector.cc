#include "sai/compact_counter_vector.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "bitstream/bit_writer.h"
#include "sai/counter_codec.h"

#include "util/bits.h"
#include "util/check.h"

namespace sbf {
namespace {

size_t SlackBitsPerGroup(const CompactCounterVector::Options& options) {
  const double per_group =
      options.slack_per_counter * static_cast<double>(options.group_size);
  // At least 64 bits so that any single counter widening (at most 63 bits)
  // fits into a freshly refreshed group.
  return std::max<size_t>(64, static_cast<size_t>(std::ceil(per_group)));
}

}  // namespace

CompactCounterVector::CompactCounterVector(size_t m, Options options)
    : m_(m), options_(options) {
  SBF_CHECK_MSG(m >= 1, "counter vector needs m >= 1");
  SBF_CHECK_MSG(m < (size_t{1} << 51), "compact vector needs m < 2^51");
  SBF_CHECK_MSG(options_.group_size >= 1 && options_.group_size <= 4096,
                "group size must be in 1..4096");
  SBF_CHECK_MSG(options_.slack_per_counter >= 0.0, "negative slack");
  num_groups_ = CeilDiv(m_, options_.group_size);
  spans_per_group_ = CeilDiv(options_.group_size, kSpanCounters);
  group_reciprocal_ = CeilDiv(uint64_t{1} << 63, options_.group_size);
  Reset();
}

size_t CompactCounterVector::NumItemsInGroup(size_t g) const {
  const size_t begin = g * options_.group_size;
  return std::min(options_.group_size, m_ - begin);
}

size_t CompactCounterVector::SpanCount(size_t g, size_t s) const {
  const size_t items = NumItemsInGroup(g);
  const size_t first = s * kSpanCounters;
  return first >= items ? 0 : std::min(kSpanCounters, items - first);
}

size_t CompactCounterVector::PayloadEnd(size_t g) const {
  const size_t last = spans_per_group_ - 1;
  return headers_[g * spans_per_group_ + last].PositionOf(SpanCount(g, last));
}

void CompactCounterVector::Set(size_t i, uint64_t value) {
  SBF_DCHECK(i < m_);
  const Slot slot = Locate(i);
  const uint32_t new_width = BitWidth(value);
  const uint32_t width = headers_[slot.header].Width(slot.lane);
  if (new_width <= width) {
    // In-place write; the counter keeps its current (possibly wider) field.
    bits_.SetBits(headers_[slot.header].PositionOf(slot.lane), width, value);
    return;
  }

  const size_t g = i / options_.group_size;
  const uint32_t grow = new_width - width;
  if (FreeBits(g) < grow && !BorrowSlack(g, grow - FreeBits(g))) {
    Rebuild();
    Set(i, value);  // widths were tightened; redo with fresh slack
    return;
  }
  // Push this group's tail (counters after i) into the group slack; the
  // group's later spans start `grow` bits further on.
  SpanHeader& h = headers_[slot.header];
  const size_t pos = h.PositionOf(slot.lane);
  const size_t tail_end = PayloadEnd(g);
  bits_.ShiftRangeRight(pos + width, tail_end, grow);
  pushed_bits_ += tail_end - (pos + width);
  h.SetWidth(slot.lane, new_width);
  for (size_t t = slot.header + 1; t < (g + 1) * spans_per_group_; ++t) {
    headers_[t].SetStart(headers_[t].Start() + grow);
  }
  bits_.SetBits(pos, new_width, value);
}

void CompactCounterVector::IncrementSlow(size_t i, uint64_t v,
                                         uint64_t delta) {
  if (delta > ~uint64_t{0} - v) {  // 64-bit ceiling: clamp, don't wrap
    ++stats_.saturation_clamps;
    Set(i, ~uint64_t{0});
    return;
  }
  Set(i, v + delta);  // widening path
}

bool CompactCounterVector::BorrowSlack(size_t g, size_t need) {
  while (need > 0) {
    // Nearest following group with free slack.
    size_t h = g + 1;
    while (h < num_groups_ && FreeBits(h) == 0) ++h;
    if (h >= num_groups_) return false;
    const size_t take = std::min(FreeBits(h), need);
    // Shift groups g+1..h right by `take`; group g's region grows, group
    // h's slack shrinks, groups in between move wholesale.
    const size_t span_begin = GroupStart(g + 1);
    const size_t span_end = PayloadEnd(h);
    bits_.ShiftRangeRight(span_begin, span_end, take);
    pushed_bits_ += span_end - span_begin;
    for (size_t t = (g + 1) * spans_per_group_; t < (h + 1) * spans_per_group_;
         ++t) {
      headers_[t].SetStart(headers_[t].Start() + take);
    }
    need -= take;
  }
  return true;
}

void CompactCounterVector::Rebuild() {
  std::vector<uint64_t> values(m_);
  DecodeBlock(0, m_, values.data());
  LayoutFromValues(values.data());
  ++rebuilds_;
}

void CompactCounterVector::LayoutFromValues(const uint64_t* values) {
  const size_t slack = SlackBitsPerGroup(options_);
  size_t total = num_groups_ * slack + m_;
  if (values != nullptr) {
    for (size_t i = 0; i < m_; ++i) total += BitWidth(values[i]) - 1;
  }
  bits_ = BitVector(total);
  // Zeroed headers: every lane a 1-bit counter.
  headers_.assign(num_groups_ * spans_per_group_, SpanHeader{});
  size_t pos = 0;
  for (size_t g = 0; g < num_groups_; ++g) {
    for (size_t s = 0; s < spans_per_group_; ++s) {
      SpanHeader& h = headers_[g * spans_per_group_ + s];
      h.SetStart(pos);
      const size_t count = SpanCount(g, s);
      if (values == nullptr) {
        pos += count;
        continue;
      }
      const uint64_t* v = values + g * options_.group_size + s * kSpanCounters;
      for (size_t j = 0; j < count; ++j) {
        const uint32_t width = BitWidth(v[j]);
        h.SetWidth(j, width);
        // The new array is zero, so zero counters need no write.
        if (v[j] != 0) bits_.SetBits(pos, width, v[j]);
        pos += width;
      }
    }
    pos += slack;
  }
}

void CompactCounterVector::LoadInOrder(const std::vector<uint64_t>& values) {
  SBF_DCHECK(values.size() == m_);
  for (size_t g = 0; g < num_groups_; ++g) {
    const size_t begin = g * options_.group_size;
    const size_t count = NumItemsInGroup(g);
    const uint64_t* v = values.data() + begin;
    // Every counter of the group is still a 1-bit zero, so widening the
    // j-th pushes the count - 1 - j counters after it.
    size_t growth = 0;
    uint64_t pushed = 0;
    for (size_t j = 0; j < count; ++j) {
      const uint32_t grow = BitWidth(v[j]) - 1;
      growth += grow;
      pushed += grow != 0 ? count - 1 - j : 0;
    }
    if (growth > FreeBits(g)) {
      // Borrows or a rebuild: take Set's own path.
      for (size_t j = 0; j < count; ++j) {
        if (v[j] != 0) Set(begin + j, v[j]);
      }
      continue;
    }
    BitWriter writer(&bits_, GroupStart(g));
    for (size_t s = 0; s < spans_per_group_; ++s) {
      SpanHeader& h = headers_[g * spans_per_group_ + s];
      h.SetStart(writer.position());
      const size_t first = s * kSpanCounters;
      for (size_t j = 0; j < SpanCount(g, s); ++j) {
        const uint32_t width = BitWidth(v[first + j]);
        h.SetWidth(j, width);
        writer.WriteBits(v[first + j], width);
      }
    }
    pushed_bits_ += pushed;
  }
}

void CompactCounterVector::Reset() { LayoutFromValues(nullptr); }

void CompactCounterVector::DecodeBlock(size_t first, size_t n,
                                       uint64_t* out) const {
  SBF_DCHECK(first + n <= m_);
  const size_t end = first + n;
  size_t i = first;
  while (i < end) {
    // Counters i.. to the end of i's span, from one header.
    const Slot slot = Locate(i);
    const SpanHeader& h = headers_[slot.header];
    const size_t g = i / options_.group_size;
    const size_t span_end = std::min(
        {end, i + kSpanCounters - slot.lane,
         g * options_.group_size + NumItemsInGroup(g)});
    size_t pos = h.PositionOf(slot.lane);
    for (size_t j = slot.lane; i < span_end; ++i, ++j) {
      const uint32_t w = h.Width(j);
      *out++ = bits_.GetBits(pos, w);
      pos += w;
    }
  }
}

size_t CompactCounterVector::UsedBits() const {
  size_t total = 0;
  for (size_t g = 0; g < num_groups_; ++g) {
    total += PayloadEnd(g) - GroupStart(g);
  }
  return total;
}

size_t CompactCounterVector::MemoryUsageBits() const {
  return bits_.capacity_bits() + OverheadBits();
}

std::unique_ptr<CounterVector> CompactCounterVector::Clone() const {
  return std::make_unique<CompactCounterVector>(*this);
}

std::vector<uint8_t> CompactCounterVector::Serialize() const {
  wire::Writer payload;
  payload.PutVarint(m_);
  payload.PutVarint(options_.group_size);
  payload.PutU64(std::bit_cast<uint64_t>(options_.slack_per_counter));
  WriteCounterStream(*this, &payload);
  return wire::SealFrame(wire::kMagicCompactCounters, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<std::unique_ptr<CounterVector>> CompactCounterVector::Deserialize(
    wire::ByteSpan bytes) {
  auto reader =
      wire::OpenFrame(bytes, wire::kMagicCompactCounters, wire::kFormatVersion,
                      "compact counter vector");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  const uint64_t m = in.ReadVarint();
  const uint64_t group_size = in.ReadVarint();
  const double slack = std::bit_cast<double>(in.ReadU64());
  if (!in.ok()) return in.status();
  if (m < 1) {
    return Status::DataLoss("compact counter vector needs m >= 1");
  }
  if (group_size < 1 || group_size > 4096) {
    return Status::DataLoss("compact counter vector group size out of range");
  }
  if (!std::isfinite(slack) || slack < 0.0 || slack > 64.0) {
    return Status::DataLoss("compact counter vector slack out of range");
  }
  // Every counter costs at least one stream bit, so m is bounded by the
  // payload that is actually present — checked before the O(m) allocation.
  if (m > in.remaining() * 8) {
    return Status::DataLoss("compact counter vector truncated");
  }
  Options options;
  options.group_size = static_cast<size_t>(group_size);
  options.slack_per_counter = slack;
  std::vector<uint64_t> values(static_cast<size_t>(m));
  Status status = ReadCounterStream(&in, values, "compact counter vector");
  if (!status.ok()) return status;
  status = in.ExpectEnd("compact counter vector");
  if (!status.ok()) return status;
  auto cv =
      std::make_unique<CompactCounterVector>(static_cast<size_t>(m), options);
  cv->LoadInOrder(values);
  return std::unique_ptr<CounterVector>(std::move(cv));
}


Status CompactCounterVector::CheckInvariants() const {
  if (headers_.size() != num_groups_ * spans_per_group_) {
    return Status::FailedPrecondition(
        "compact backing: header count disagrees with m and group size");
  }
  if (bits_.size_bits() > SpanHeader::kStartMask) {
    return Status::FailedPrecondition(
        "compact backing: base array too large for 52-bit span starts");
  }
  if (GroupStart(0) != 0) {
    return Status::FailedPrecondition(
        "compact backing: first span does not start the base array");
  }
  for (size_t t = 1; t < headers_.size(); ++t) {
    if (headers_[t].Start() < headers_[t - 1].Start()) {
      return Status::FailedPrecondition(
          "compact backing: header starts not monotone");
    }
  }
  for (size_t g = 0; g < num_groups_; ++g) {
    for (size_t s = 0; s < spans_per_group_; ++s) {
      const SpanHeader& h = headers_[g * spans_per_group_ + s];
      // Width fields hold width - 1 in six bits, so every used lane reads
      // a width in [1, 64]; unused lanes must stay zero.
      const size_t count = SpanCount(g, s);
      for (size_t j = count; j < kSpanCounters; ++j) {
        if (h.Width(j) != 1) {
          return Status::FailedPrecondition(
              "compact backing: width field set past the span's last "
              "counter");
        }
      }
      if (s > 0) {
        // The O(1) PositionOf is only as right as this chain.
        const SpanHeader& prev = headers_[g * spans_per_group_ + s - 1];
        if (h.Start() != prev.PositionOf(SpanCount(g, s - 1))) {
          return Status::FailedPrecondition(
              "compact backing: span start disagrees with the widths "
              "before it in its group");
        }
      }
    }
    if (PayloadEnd(g) > RegionEnd(g)) {
      return Status::FailedPrecondition(
          "compact backing: group payload overflows its region");
    }
  }
  return Status::Ok();
}

}  // namespace sbf
