#include "core/counting_bloom_filter.h"

#include <algorithm>

#include "core/batch_kernels.h"
#include "util/check.h"
#include "util/audit.h"

namespace sbf {
CountingBloomFilter::CountingBloomFilter(uint64_t m, uint32_t k,
                                         uint32_t counter_bits, uint64_t seed,
                                         HashFamily::Kind kind)
    : m_(m),
      hash_(k, m, seed, kind),
      counters_(m, counter_bits, /*sticky_saturation=*/true) {
  SBF_CHECK_MSG(k >= 1 && k <= HashFamily::kMaxK,
                "counting BF needs 1 <= k <= 64");
  SBF_AUDIT_INVARIANTS(*this);
}

void CountingBloomFilter::Insert(uint64_t key, uint64_t count) {
  uint64_t positions[HashFamily::kMaxK];
  hash_.Positions(key, positions);
  for (uint32_t i = 0; i < hash_.k(); ++i) {
    counters_.Increment(positions[i], count);
  }
}

void CountingBloomFilter::Remove(uint64_t key, uint64_t count) {
  uint64_t positions[HashFamily::kMaxK];
  hash_.Positions(key, positions);
  for (uint32_t i = 0; i < hash_.k(); ++i) {
    // Saturated counters stay put (sticky); others clamp at zero if asked
    // to remove more than they hold (the clamp is tallied in saturation()).
    counters_.Decrement(positions[i], count);
  }
}

FilterHealth CountingBloomFilter::Health() const {
  FilterHealth health;
  health.counters = m_;
  const OccupancyCounts occupancy = counters_.ScanOccupancy();
  health.nonzero_counters = occupancy.nonzero;
  health.saturated_counters = occupancy.saturated;
  health.saturation_clamps = counters_.saturation().saturation_clamps;
  health.underflow_clamps = counters_.saturation().underflow_clamps;
  FinalizeHealth(hash_.k(), HealthThresholds{}, &health);
  return health;
}

uint64_t CountingBloomFilter::Estimate(uint64_t key) const {
  uint64_t positions[HashFamily::kMaxK];
  hash_.Positions(key, positions);
  uint64_t min_value = counters_.Get(positions[0]);
  for (uint32_t i = 1; i < hash_.k(); ++i) {
    min_value = std::min(min_value, counters_.Get(positions[i]));
  }
  return min_value;
}

void CountingBloomFilter::InsertBatch(const uint64_t* keys, size_t n,
                                      uint64_t count) {
  const uint32_t k = hash_.k();
  BatchPipeline(
      counters_, keys, n,
      [this](uint64_t key, uint64_t* pos) { hash_.Positions(key, pos); },
      PrefetchEachPosition{k},
      [k, count](FixedWidthCounterVector& cv, const uint64_t* pos, size_t) {
        // Increment clamps at max_value (sticky saturation), exactly as the
        // scalar Insert does.
        for (uint32_t j = 0; j < k; ++j) cv.Increment(pos[j], count);
      });
}

void CountingBloomFilter::EstimateBatch(const uint64_t* keys, size_t n,
                                        uint64_t* out) const {
  const uint32_t k = hash_.k();
  BatchPipeline(
      counters_, keys, n,
      [this](uint64_t key, uint64_t* pos) { hash_.Positions(key, pos); },
      PrefetchEachPosition{k},
      [k, out](const FixedWidthCounterVector& cv, const uint64_t* pos,
               size_t i) { out[i] = BranchFreeMin(cv, pos, k); });
}

std::vector<uint8_t> CountingBloomFilter::Serialize() const {
  SBF_AUDIT_INVARIANTS(*this);
  wire::Writer payload;
  payload.PutVarint(m_);
  payload.PutVarint(hash_.k());
  payload.PutU8(hash_.kind() == HashFamily::Kind::kModuloMultiply ? 0 : 1);
  payload.PutU64(hash_.seed());
  payload.PutVarint(counters_.width_bits());
  payload.PutFrame(counters_.Serialize());
  return wire::SealFrame(wire::kMagicCountingBloom, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<CountingBloomFilter> CountingBloomFilter::Deserialize(
    wire::ByteSpan bytes) {
  auto reader = wire::OpenFrame(bytes, wire::kMagicCountingBloom,
                                wire::kFormatVersion, "counting BF");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  const uint64_t m = in.ReadVarint();
  const uint64_t k = in.ReadVarint();
  const uint8_t kind = in.ReadU8();
  const uint64_t seed = in.ReadU64();
  const uint64_t counter_bits = in.ReadVarint();
  if (!in.ok()) return in.status();
  if (m < 1 || k < 1 || k > HashFamily::kMaxK || kind > 1 ||
      counter_bits < 1 || counter_bits > 64) {
    return Status::DataLoss("bad counting BF header");
  }
  const wire::ByteSpan counter_frame = in.ReadFrameSpan();
  if (!in.ok()) return in.status();
  Status status = in.ExpectEnd("counting BF");
  if (!status.ok()) return status;

  // The counter frame is deserialized before the filter is constructed and
  // must agree with the header exactly — the FCAB98 semantics hinge on the
  // sticky-saturating fixed-width configuration.
  auto cv = DeserializeCounterVector(counter_frame);
  if (!cv.ok()) return cv.status();
  auto* fixed = dynamic_cast<FixedWidthCounterVector*>(cv.value().get());
  if (fixed == nullptr || fixed->size() != m ||
      fixed->width_bits() != counter_bits || !fixed->sticky_saturation()) {
    return Status::DataLoss("counting BF counter vector mismatch");
  }

  CountingBloomFilter filter(m, static_cast<uint32_t>(k),
                             static_cast<uint32_t>(counter_bits), seed,
                             kind == 0 ? HashFamily::Kind::kModuloMultiply
                                       : HashFamily::Kind::kDoubleMix);
  filter.counters_ = std::move(*fixed);
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}


Status CountingBloomFilter::CheckInvariants() const {
  if (m_ < 1) {
    return Status::FailedPrecondition("counting BF: m < 1");
  }
  if (hash_.m() != m_) {
    return Status::FailedPrecondition(
        "counting BF: hash family range disagrees with m");
  }
  if (counters_.size() != m_) {
    return Status::FailedPrecondition(
        "counting BF: counter vector size disagrees with m");
  }
  if (!counters_.sticky_saturation()) {
    return Status::FailedPrecondition(
        "counting BF: counters must use sticky saturation [FCAB98]");
  }
  return counters_.CheckInvariants();
}

}  // namespace sbf
