#include "sai/compact_counter_vector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

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

// Sum of the n (1 <= n <= 7) width bytes at p: one 8-byte load, mask, and
// a pairwise horizontal add. Widths go up to 64, so seven of them can sum
// to 448 — past a byte — which rules out the classic single-multiply
// byte-sum; the pairwise fold keeps every lane within 16 bits. The load
// relies on the kWidthPad zero bytes after widths_[m - 1].
inline uint64_t SumWidthBytes(const uint8_t* p, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  uint64_t x;
  std::memcpy(&x, p, sizeof(x));
  x &= ~uint64_t{0} >> ((8 - n) * 8);
  x = (x & 0x00FF00FF00FF00FFull) + ((x >> 8) & 0x00FF00FF00FF00FFull);
  x += x >> 16;
  x += x >> 32;
  return x & 0x3FF;
#else
  uint64_t sum = 0;
  for (size_t j = 0; j < n; ++j) sum += p[j];
  return sum;
#endif
}

}  // namespace

CompactCounterVector::CompactCounterVector(size_t m, Options options)
    : m_(m), options_(options) {
  SBF_CHECK_MSG(m >= 1, "counter vector needs m >= 1");
  SBF_CHECK_MSG(options_.group_size >= 1, "group size must be >= 1");
  SBF_CHECK_MSG(options_.slack_per_counter >= 0.0, "negative slack");
  num_groups_ = CeilDiv(m_, options_.group_size);
  samples_per_group_ = CeilDiv(options_.group_size, kSampleStride);
  Reset();
}

size_t CompactCounterVector::NumItemsInGroup(size_t g) const {
  const size_t begin = g * options_.group_size;
  return std::min(options_.group_size, m_ - begin);
}

size_t CompactCounterVector::PositionOf(size_t i) const {
  // O(1): the sampled prefix sum covers all but the last (i mod 8) widths,
  // which one branch-free byte-sum picks up.
  const size_t g = i / options_.group_size;
  const size_t j = i - g * options_.group_size;
  size_t pos = group_start_[g] +
               offset_samples_[g * samples_per_group_ + j / kSampleStride];
  const size_t tail = j & (kSampleStride - 1);
  if (tail != 0) pos += SumWidthBytes(widths_.data() + (i - tail), tail);
  return pos;
}

void CompactCounterVector::RebuildSamples(size_t g) {
  const size_t begin = g * options_.group_size;
  const size_t count = NumItemsInGroup(g);
  uint32_t* samples = offset_samples_.data() + g * samples_per_group_;
  uint32_t acc = 0;
  for (size_t j = 0; j < count; ++j) {
    if ((j & (kSampleStride - 1)) == 0) samples[j / kSampleStride] = acc;
    acc += widths_[begin + j];
  }
}

size_t CompactCounterVector::DecodeRun(size_t first, size_t last, size_t pos,
                                       uint64_t* out) const {
  for (size_t i = first; i < last; ++i) {
    const uint32_t w = widths_[i];
    out[i - first] = bits_.GetBits(pos, w);
    pos += w;
  }
  return pos;
}

uint64_t CompactCounterVector::Get(size_t i) const noexcept {
  SBF_DCHECK(i < m_);
  return bits_.GetBits(PositionOf(i), widths_[i]);
}

void CompactCounterVector::Set(size_t i, uint64_t value) {
  SBF_DCHECK(i < m_);
  const uint32_t new_width = BitWidth(value);
  uint32_t width = widths_[i];
  if (new_width <= width) {
    // In-place write; the counter keeps its current (possibly wider) field.
    bits_.SetBits(PositionOf(i), width, value);
    return;
  }

  const size_t g = i / options_.group_size;
  const uint32_t grow = new_width - width;
  if (FreeBits(g) < grow && !BorrowSlack(g, grow - FreeBits(g))) {
    Rebuild();
    Set(i, value);  // widths were tightened; redo with fresh slack
    return;
  }
  // Push this group's tail (counters after i) into the group slack.
  const size_t pos = PositionOf(i);
  const size_t tail_end = group_start_[g] + used_[g];
  bits_.ShiftRangeRight(pos + width, tail_end, grow);
  pushed_bits_ += tail_end - (pos + width);
  widths_[i] = static_cast<uint8_t>(new_width);
  used_[g] += grow;
  // Samples after i within the group shift right with the tail. Samples
  // are group-relative, so no other group's table is touched (BorrowSlack
  // moves whole groups, which leaves group-relative offsets intact).
  uint32_t* samples = offset_samples_.data() + g * samples_per_group_;
  const size_t j = i - g * options_.group_size;
  for (size_t t = j / kSampleStride + 1; t < samples_per_group_; ++t) {
    samples[t] += grow;
  }
  bits_.SetBits(pos, new_width, value);
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
    const size_t span_begin = group_start_[g + 1];
    const size_t span_end = group_start_[h] + used_[h];
    bits_.ShiftRangeRight(span_begin, span_end, take);
    pushed_bits_ += span_end - span_begin;
    for (size_t j = g + 1; j <= h; ++j) group_start_[j] += take;
    need -= take;
  }
  return true;
}

void CompactCounterVector::Rebuild() {
  std::vector<uint64_t> values(m_);
  DecodeBlock(0, m_, values.data());
  for (size_t i = 0; i < m_; ++i) {
    widths_[i] = static_cast<uint8_t>(BitWidth(values[i]));
  }
  LayoutFromValues(values.data());
  ++rebuilds_;
}

void CompactCounterVector::LayoutFromValues(const uint64_t* values) {
  const size_t slack = SlackBitsPerGroup(options_);
  group_start_.assign(num_groups_ + 1, 0);
  used_.assign(num_groups_, 0);
  for (size_t g = 0; g < num_groups_; ++g) {
    const size_t begin = g * options_.group_size;
    const size_t end = begin + NumItemsInGroup(g);
    size_t payload = 0;
    for (size_t i = begin; i < end; ++i) payload += widths_[i];
    used_[g] = static_cast<uint32_t>(payload);
    group_start_[g + 1] = group_start_[g] + payload + slack;
  }
  bits_ = BitVector(group_start_[num_groups_]);
  offset_samples_.assign(num_groups_ * samples_per_group_, 0);
  for (size_t g = 0; g < num_groups_; ++g) {
    if (values != nullptr) {
      // The new array is zero, so zero counters need no write.
      size_t pos = group_start_[g];
      const size_t begin = g * options_.group_size;
      for (size_t i = begin; i < begin + NumItemsInGroup(g); ++i) {
        if (values[i] != 0) bits_.SetBits(pos, widths_[i], values[i]);
        pos += widths_[i];
      }
    }
    RebuildSamples(g);
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
    BitWriter writer(&bits_, group_start_[g]);
    for (size_t j = 0; j < count; ++j) {
      const uint32_t width = BitWidth(v[j]);
      widths_[begin + j] = static_cast<uint8_t>(width);
      writer.WriteBits(v[j], width);
    }
    used_[g] += growth;
    pushed_bits_ += pushed;
    RebuildSamples(g);
  }
}

void CompactCounterVector::Increment(size_t i, uint64_t delta) {
  SBF_DCHECK(i < m_);
  const uint32_t width = widths_[i];
  const size_t pos = PositionOf(i);
  const uint64_t v = bits_.GetBits(pos, width);
  if (delta > ~uint64_t{0} - v) {  // 64-bit ceiling: clamp, don't wrap
    ++stats_.saturation_clamps;
    Set(i, ~uint64_t{0});
    return;
  }
  const uint64_t value = v + delta;
  if (BitWidth(value) <= width) {
    bits_.SetBits(pos, width, value);
    return;
  }
  Set(i, value);  // widening path
}

void CompactCounterVector::Reset() {
  widths_.assign(m_ + kWidthPad, 0);
  std::fill_n(widths_.begin(), m_, uint8_t{1});
  LayoutFromValues(nullptr);
}

void CompactCounterVector::DecodeBlock(size_t first, size_t n,
                                       uint64_t* out) const {
  SBF_DCHECK(first + n <= m_);
  size_t i = first;
  const size_t end = first + n;
  while (i < end) {
    const size_t g = i / options_.group_size;
    const size_t gend =
        std::min(end, g * options_.group_size + NumItemsInGroup(g));
    DecodeRun(i, gend, PositionOf(i), out + (i - first));
    i = gend;
  }
}

size_t CompactCounterVector::UsedBits() const {
  size_t total = 0;
  for (size_t i = 0; i < m_; ++i) total += widths_[i];
  return total;
}

size_t CompactCounterVector::OverheadBits() const {
  return group_start_.size() * 64 + used_.size() * 32 + m_ * 8 +
         offset_samples_.size() * 32;
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
  if (group_start_.size() != num_groups_ + 1 || used_.size() != num_groups_ ||
      widths_.size() != m_ + kWidthPad ||
      offset_samples_.size() != num_groups_ * samples_per_group_) {
    return Status::FailedPrecondition(
        "compact backing: bookkeeping vector sizes disagree with m");
  }
  for (size_t i = m_; i < widths_.size(); ++i) {
    if (widths_[i] != 0) {
      return Status::FailedPrecondition(
          "compact backing: width padding bytes are not zero");
    }
  }
  if (group_start_[0] != 0 || group_start_[num_groups_] != bits_.size_bits()) {
    return Status::FailedPrecondition(
        "compact backing: group offsets do not span the base array");
  }
  for (size_t g = 0; g < num_groups_; ++g) {
    if (group_start_[g] > group_start_[g + 1]) {
      return Status::FailedPrecondition(
          "compact backing: group offsets not monotone");
    }
    uint64_t width_sum = 0;
    const size_t begin = g * options_.group_size;
    const size_t end = begin + NumItemsInGroup(g);
    for (size_t i = begin; i < end; ++i) {
      if (widths_[i] < 1 || widths_[i] > 64) {
        return Status::FailedPrecondition(
            "compact backing: counter width out of [1, 64]");
      }
      // Every sampled offset must equal the width prefix sum it stands in
      // for — the O(1) PositionOf is only as correct as this table.
      const size_t j = i - begin;
      if ((j & (kSampleStride - 1)) == 0 &&
          offset_samples_[g * samples_per_group_ + j / kSampleStride] !=
              width_sum) {
        return Status::FailedPrecondition(
            "compact backing: prefix-sum offset sample disagrees with the "
            "counter widths");
      }
      width_sum += widths_[i];
    }
    if (width_sum != used_[g]) {
      return Status::FailedPrecondition(
          "compact backing: group used-bit count disagrees with the sum of "
          "its counter widths");
    }
    if (used_[g] > RegionBits(g)) {
      return Status::FailedPrecondition(
          "compact backing: group payload overflows its region");
    }
  }
  return Status::Ok();
}

}  // namespace sbf
