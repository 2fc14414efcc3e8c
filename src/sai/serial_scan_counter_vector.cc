#include "sai/serial_scan_counter_vector.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "bitstream/bit_writer.h"
#include "sai/counter_codec.h"
#include "util/bits.h"
#include "util/check.h"

namespace sbf {
namespace {

constexpr size_t kMaxGroupSize = 256;

}  // namespace

SerialScanCounterVector::SerialScanCounterVector(size_t m, Options options)
    : m_(m), options_(std::move(options)), code_(options_.step_widths) {
  SBF_CHECK_MSG(m >= 1, "counter vector needs m >= 1");
  SBF_CHECK_MSG(
      options_.group_size >= 1 && options_.group_size <= kMaxGroupSize,
      "group size out of range");
  num_groups_ = CeilDiv(m_, options_.group_size);
  Rebuild(std::vector<uint64_t>(m_, 0));
  rebuilds_ = 0;  // the constructor's initial layout is not a refresh event
}

size_t SerialScanCounterVector::NumItemsInGroup(size_t g) const {
  const size_t begin = g * options_.group_size;
  return std::min(options_.group_size, m_ - begin);
}

void SerialScanCounterVector::DecodeGroup(size_t g, uint64_t* out) const {
  BitReader reader(&bits_, group_start_[g]);
  const size_t count = NumItemsInGroup(g);
  for (size_t j = 0; j < count; ++j) out[j] = code_.Decode(&reader);
}

uint64_t SerialScanCounterVector::Get(size_t i) const {
  SBF_DCHECK(i < m_);
  const size_t g = i / options_.group_size;
  BitReader reader(&bits_, group_start_[g]);
  uint64_t value = 0;
  for (size_t j = g * options_.group_size; j <= i; ++j) {
    value = code_.Decode(&reader);
  }
  return value;
}

void SerialScanCounterVector::DecodeBlock(size_t first, size_t n,
                                          uint64_t* out) const {
  SBF_DCHECK(first + n <= m_);
  const size_t gs = options_.group_size;
  size_t i = first;
  const size_t end = first + n;
  while (i < end) {
    const size_t g = i / gs;
    BitReader reader(&bits_, group_start_[g]);
    for (size_t j = g * gs; j < i; ++j) code_.Decode(&reader);
    const size_t gend = std::min(end, g * gs + NumItemsInGroup(g));
    for (; i < gend; ++i) out[i - first] = code_.Decode(&reader);
  }
}

void SerialScanCounterVector::AddMany(
    std::vector<std::pair<uint64_t, uint64_t>> adds) {
  const size_t gs = options_.group_size;
  // Cluster by group. Adds to one counter commute in value, but their
  // clamp tallies do not, so both sorts are stable. A batch with at least
  // one add per group takes a counting sort, O(adds + groups); a sparser
  // one would pay more for the group histogram than for the sort.
  if (adds.size() >= num_groups_) {
    std::vector<size_t> next(num_groups_ + 1, 0);
    for (const auto& add : adds) ++next[add.first / gs + 1];
    for (size_t g = 1; g <= num_groups_; ++g) next[g] += next[g - 1];
    std::vector<std::pair<uint64_t, uint64_t>> clustered(adds.size());
    for (const auto& add : adds) clustered[next[add.first / gs]++] = add;
    adds.swap(clustered);
  } else {
    std::stable_sort(adds.begin(), adds.end(),
                     [gs](const auto& a, const auto& b) {
                       return a.first / gs < b.first / gs;
                     });
  }
  const auto clamped_add = [this](uint64_t& v, uint64_t delta) {
    if (delta > ~uint64_t{0} - v) {
      v = ~uint64_t{0};
      ++stats_.saturation_clamps;
    } else {
      v += delta;
    }
  };
  uint64_t values[kMaxGroupSize];
  size_t j = 0;
  while (j < adds.size()) {
    SBF_DCHECK(adds[j].first < m_);
    const size_t g = adds[j].first / gs;
    const size_t begin = g * gs;
    DecodeGroup(g, values);
    for (; j < adds.size() && adds[j].first / gs == g; ++j) {
      clamped_add(values[adds[j].first - begin], adds[j].second);
    }
    if (TryEncodeGroup(g, values)) continue;
    // No slack to the right: one refresh carries this group and every
    // add still pending.
    std::vector<uint64_t> all(m_);
    DecodeBlock(0, m_, all.data());
    std::copy_n(values, NumItemsInGroup(g), all.data() + begin);
    for (; j < adds.size(); ++j) {
      clamped_add(all[adds[j].first], adds[j].second);
    }
    Rebuild(std::move(all));
    ++rebuilds_;
    return;
  }
}

size_t SerialScanCounterVector::EncodedSize(const uint64_t* values,
                                            size_t count) const {
  size_t bits = 0;
  for (size_t j = 0; j < count; ++j) bits += code_.Length(values[j]);
  return bits;
}

void SerialScanCounterVector::EncodeGroupAt(size_t g, const uint64_t* values,
                                            size_t count) {
  BitWriter writer(&bits_, group_start_[g]);
  for (size_t j = 0; j < count; ++j) code_.Encode(values[j], &writer);
  used_[g] = static_cast<uint32_t>(writer.position() - group_start_[g]);
}

void SerialScanCounterVector::Set(size_t i, uint64_t value) {
  SBF_DCHECK(i < m_);
  const size_t g = i / options_.group_size;
  uint64_t group_values[kMaxGroupSize];
  DecodeGroup(g, group_values);
  group_values[i - g * options_.group_size] = value;
  if (TryEncodeGroup(g, group_values)) return;
  std::vector<uint64_t> all(m_);
  DecodeBlock(0, m_, all.data());
  all[i] = value;
  Rebuild(std::move(all));
  ++rebuilds_;
}

bool SerialScanCounterVector::TryEncodeGroup(size_t g,
                                             const uint64_t* values) {
  const size_t count = NumItemsInGroup(g);
  const size_t new_bits = EncodedSize(values, count);
  if (new_bits > RegionBits(g) &&
      !BorrowSlack(g, new_bits - RegionBits(g))) {
    return false;
  }
  EncodeGroupAt(g, values, count);
  return true;
}

bool SerialScanCounterVector::BorrowSlack(size_t g, size_t need) {
  while (need > 0) {
    size_t h = g + 1;
    while (h < num_groups_ && FreeBits(h) == 0) ++h;
    if (h >= num_groups_) return false;
    const size_t take = std::min(FreeBits(h), need);
    const size_t span_begin = group_start_[g + 1];
    const size_t span_end = group_start_[h] + used_[h];
    bits_.ShiftRangeRight(span_begin, span_end, take);
    for (size_t j = g + 1; j <= h; ++j) group_start_[j] += take;
    need -= take;
  }
  return true;
}

void SerialScanCounterVector::Rebuild(std::vector<uint64_t> values) {
  const double per_group =
      options_.slack_per_counter * static_cast<double>(options_.group_size);
  // At least 64 bits of slack per group so a single small-to-large counter
  // jump fits without an immediate second refresh.
  const size_t slack =
      std::max<size_t>(64, static_cast<size_t>(std::ceil(per_group)));

  group_start_.assign(num_groups_ + 1, 0);
  used_.assign(num_groups_, 0);
  for (size_t g = 0; g < num_groups_; ++g) {
    const size_t begin = g * options_.group_size;
    const size_t payload = EncodedSize(values.data() + begin,
                                       NumItemsInGroup(g));
    used_[g] = static_cast<uint32_t>(payload);
    group_start_[g + 1] = group_start_[g] + payload + slack;
  }
  bits_ = BitVector(group_start_[num_groups_]);
  for (size_t g = 0; g < num_groups_; ++g) {
    EncodeGroupAt(g, values.data() + g * options_.group_size,
                  NumItemsInGroup(g));
  }
}

void SerialScanCounterVector::Reset() {
  Rebuild(std::vector<uint64_t>(m_, 0));
}

size_t SerialScanCounterVector::EncodedBits() const {
  size_t total = 0;
  for (uint32_t u : used_) total += u;
  return total;
}

size_t SerialScanCounterVector::OverheadBits() const {
  return group_start_.size() * 64 + used_.size() * 32;
}

size_t SerialScanCounterVector::MemoryUsageBits() const {
  return bits_.capacity_bits() + OverheadBits();
}

std::unique_ptr<CounterVector> SerialScanCounterVector::Clone() const {
  return std::make_unique<SerialScanCounterVector>(*this);
}

std::vector<uint8_t> SerialScanCounterVector::Serialize() const {
  wire::Writer payload;
  payload.PutVarint(m_);
  payload.PutVarint(options_.group_size);
  payload.PutU64(std::bit_cast<uint64_t>(options_.slack_per_counter));
  payload.PutVarint(options_.step_widths.size());
  for (uint32_t w : options_.step_widths) payload.PutVarint(w);
  WriteCounterStream(*this, &payload);
  return wire::SealFrame(wire::kMagicSerialScanCounters, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<std::unique_ptr<CounterVector>> SerialScanCounterVector::Deserialize(
    wire::ByteSpan bytes) {
  auto reader =
      wire::OpenFrame(bytes, wire::kMagicSerialScanCounters,
                      wire::kFormatVersion, "serial-scan counter vector");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  const uint64_t m = in.ReadVarint();
  const uint64_t group_size = in.ReadVarint();
  const double slack = std::bit_cast<double>(in.ReadU64());
  const uint64_t num_steps = in.ReadVarint();
  if (!in.ok()) return in.status();
  if (m < 1) {
    return Status::DataLoss("serial-scan counter vector needs m >= 1");
  }
  if (group_size < 1 || group_size > kMaxGroupSize) {
    return Status::DataLoss(
        "serial-scan counter vector group size out of range");
  }
  if (!std::isfinite(slack) || slack < 0.0 || slack > 64.0) {
    return Status::DataLoss("serial-scan counter vector slack out of range");
  }
  if (num_steps < 1 || num_steps > 16) {
    return Status::DataLoss("serial-scan counter vector step count invalid");
  }
  Options options;
  options.group_size = static_cast<size_t>(group_size);
  options.slack_per_counter = slack;
  options.step_widths.clear();
  for (uint64_t s = 0; s < num_steps; ++s) {
    const uint64_t width = in.ReadVarint();
    if (!in.ok()) return in.status();
    if (width >= 63) {
      return Status::DataLoss("serial-scan counter vector step width invalid");
    }
    options.step_widths.push_back(static_cast<uint32_t>(width));
  }
  // Bound m by the actual payload before the O(m) allocation.
  if (m > in.remaining() * 8) {
    return Status::DataLoss("serial-scan counter vector truncated");
  }
  std::vector<uint64_t> values(static_cast<size_t>(m));
  Status status =
      ReadCounterStream(&in, values, "serial-scan counter vector");
  if (!status.ok()) return status;
  status = in.ExpectEnd("serial-scan counter vector");
  if (!status.ok()) return status;
  auto cv = std::make_unique<SerialScanCounterVector>(static_cast<size_t>(m),
                                                      options);
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0) cv->Set(i, values[i]);
  }
  return std::unique_ptr<CounterVector>(std::move(cv));
}


Status SerialScanCounterVector::CheckInvariants() const {
  if (group_start_.size() != num_groups_ + 1 || used_.size() != num_groups_) {
    return Status::FailedPrecondition(
        "serial-scan backing: bookkeeping vector sizes disagree with m");
  }
  if (group_start_[0] != 0 || group_start_[num_groups_] != bits_.size_bits()) {
    return Status::FailedPrecondition(
        "serial-scan backing: group offsets do not span the base array");
  }
  std::vector<uint64_t> values(options_.group_size);
  for (size_t g = 0; g < num_groups_; ++g) {
    if (group_start_[g] > group_start_[g + 1]) {
      return Status::FailedPrecondition(
          "serial-scan backing: group offsets not monotone");
    }
    if (used_[g] > RegionBits(g)) {
      return Status::FailedPrecondition(
          "serial-scan backing: group payload overflows its region");
    }
    // Decode the group and re-encode: the recorded used-bit count must be
    // exactly the encoded size of the values the group decodes to.
    const size_t count = NumItemsInGroup(g);
    DecodeGroup(g, values.data());
    if (EncodedSize(values.data(), count) != used_[g]) {
      return Status::FailedPrecondition(
          "serial-scan backing: group used-bit count disagrees with a "
          "re-encode of its decoded values");
    }
  }
  return Status::Ok();
}

}  // namespace sbf
