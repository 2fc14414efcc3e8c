#include "sai/fixed_counter_vector.h"

#include "util/bits.h"
#include "util/check.h"

namespace sbf {

FixedWidthCounterVector::FixedWidthCounterVector(size_t m, uint32_t width_bits,
                                                 bool sticky_saturation)
    : m_(m),
      width_(width_bits),
      max_value_(LowMask(width_bits)),
      sticky_(sticky_saturation),
      bits_(m * width_bits) {
  SBF_CHECK_MSG(width_bits >= 1 && width_bits <= 64,
                "counter width must be in [1, 64]");
}

void FixedWidthCounterVector::Decrement(size_t i, uint64_t delta) noexcept {
  const uint64_t v = Get(i);
  if (sticky_ && v == max_value_) return;  // stuck counter, never decremented
  if (delta > v) {
    bits_.SetBits(i * width_, width_, 0);
    ++stats_.underflow_clamps;
    return;
  }
  bits_.SetBits(i * width_, width_, v - delta);
}

void FixedWidthCounterVector::Reset() { bits_.Clear(); }

size_t FixedWidthCounterVector::MemoryUsageBits() const {
  return bits_.capacity_bits();
}

std::unique_ptr<CounterVector> FixedWidthCounterVector::Clone() const {
  return std::make_unique<FixedWidthCounterVector>(*this);
}

std::string FixedWidthCounterVector::Name() const {
  return "fixed" + std::to_string(width_) + (sticky_ ? "-saturating" : "");
}

std::vector<uint8_t> FixedWidthCounterVector::Serialize() const {
  wire::Writer payload;
  payload.PutVarint(m_);
  payload.PutVarint(width_);
  payload.PutU8(sticky_ ? 1 : 0);
  payload.PutWords(bits_.words(), bits_.size_words());
  return wire::SealFrame(wire::kMagicFixedCounters, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<std::unique_ptr<CounterVector>> FixedWidthCounterVector::Deserialize(
    wire::ByteSpan bytes) {
  auto reader = wire::OpenFrame(bytes, wire::kMagicFixedCounters,
                                wire::kFormatVersion, "fixed counter vector");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  const uint64_t m = in.ReadVarint();
  const uint64_t width = in.ReadVarint();
  const uint8_t sticky = in.ReadU8();
  if (!in.ok()) return in.status();
  if (width < 1 || width > 64) {
    return Status::DataLoss("fixed counter vector width out of range");
  }
  if (sticky > 1) {
    return Status::DataLoss("fixed counter vector has a bad sticky flag");
  }
  // Bound m by the payload that is actually present before the O(m)
  // allocation: every counter occupies `width` of the remaining bits.
  if (m > in.remaining() * 8 / width) {
    return Status::DataLoss("fixed counter vector truncated");
  }
  const uint64_t words = CeilDiv(m * width, 64);
  if (in.remaining() != words * 8) {
    return Status::DataLoss("fixed counter vector word block size mismatch");
  }
  auto cv = std::make_unique<FixedWidthCounterVector>(
      static_cast<size_t>(m), static_cast<uint32_t>(width), sticky != 0);
  in.ReadWords(cv->mutable_words(), static_cast<size_t>(words));
  Status status = in.ExpectEnd("fixed counter vector");
  if (!status.ok()) return status;
  // Reject set bits past the last counter so the encoding stays canonical
  // (re-serializing always reproduces the input bytes).
  const uint64_t used_bits = m * width;
  if (used_bits % 64 != 0 &&
      (cv->words()[words - 1] >> (used_bits % 64)) != 0) {
    return Status::DataLoss("fixed counter vector has set padding bits");
  }
  return std::unique_ptr<CounterVector>(std::move(cv));
}

Status FixedWidthCounterVector::CheckInvariants() const {
  if (width_ < 1 || width_ > 64) {
    return Status::FailedPrecondition(
        "fixed backing: counter width out of [1, 64]");
  }
  const uint64_t expect_max =
      width_ == 64 ? ~uint64_t{0} : (uint64_t{1} << width_) - 1;
  if (max_value_ != expect_max) {
    return Status::FailedPrecondition(
        "fixed backing: max_value disagrees with the counter width");
  }
  if (bits_.size_bits() != m_ * width_) {
    return Status::FailedPrecondition(
        "fixed backing: bit array size disagrees with m * width");
  }
  // The packed words end mid-word unless m*width is a multiple of 64; the
  // trailing padding must stay zero (Serialize ships the words verbatim,
  // and Deserialize rejects frames with set padding).
  const size_t used = m_ * width_;
  if (used % 64 != 0 && (bits_.words()[used / 64] >> (used % 64)) != 0) {
    return Status::FailedPrecondition(
        "fixed backing: set bits in the tail padding");
  }
  return Status::Ok();
}

}  // namespace sbf
