#include "core/bloom_filter.h"

#include <cmath>
#include <cstring>

#include "util/fault_injection.h"
#include "util/audit.h"

namespace sbf {
BloomFilter::BloomFilter(uint64_t m, uint32_t k, uint64_t seed,
                         HashFamily::Kind kind)
    : m_(m), hash_(k, m, seed, kind), bits_(m) {
  SBF_CHECK_MSG(m >= 1, "Bloom filter needs m >= 1");
  SBF_CHECK_MSG(k >= 1 && k <= HashFamily::kMaxK,
                "Bloom filter needs 1 <= k <= 64");
  SBF_AUDIT_INVARIANTS(*this);
}

uint32_t BloomFilter::OptimalK(uint64_t m, uint64_t n) {
  if (n == 0) return 1;
  const double k = std::log(2.0) * static_cast<double>(m) /
                   static_cast<double>(n);
  const auto rounded = static_cast<uint32_t>(std::lround(k));
  return std::max(1u, std::min(rounded, HashFamily::kMaxK));
}

BloomFilter BloomFilter::WithBitsPerKey(uint64_t n, double bits_per_key,
                                        uint64_t seed) {
  const auto m = static_cast<uint64_t>(
      std::ceil(bits_per_key * static_cast<double>(std::max<uint64_t>(n, 1))));
  return BloomFilter(std::max<uint64_t>(m, 1), OptimalK(m, n), seed);
}

void BloomFilter::Add(uint64_t key) {
  uint64_t positions[HashFamily::kMaxK];
  hash_.Positions(key, positions);
  for (uint32_t i = 0; i < hash_.k(); ++i) bits_.SetBit(positions[i], true);
  ++num_added_;
}

bool BloomFilter::Contains(uint64_t key) const {
  uint64_t positions[HashFamily::kMaxK];
  hash_.Positions(key, positions);
  for (uint32_t i = 0; i < hash_.k(); ++i) {
    if (!bits_.GetBit(positions[i])) return false;
  }
  return true;
}

double BloomFilter::FillRatio() const {
  return static_cast<double>(bits_.PopCount()) / static_cast<double>(m_);
}

double BloomFilter::TheoreticalFpRate(uint64_t m, uint32_t k, uint64_t n) {
  if (n == 0) return 0.0;
  const double gamma = static_cast<double>(k) * static_cast<double>(n) /
                       static_cast<double>(m);
  return std::pow(1.0 - std::exp(-gamma), k);
}

Status BloomFilter::UnionWith(const BloomFilter& other) {
  if (!hash_.Compatible(other.hash_)) {
    return Status::FailedPrecondition(
        "Bloom filter union requires identical (m, k, seed, kind)");
  }
  for (size_t w = 0; w < bits_.size_words(); ++w) {
    bits_.mutable_words()[w] |= other.bits_.words()[w];
  }
  num_added_ += other.num_added_;
  popcount_bound_intact_ &= other.popcount_bound_intact_;
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

Status BloomFilter::ExpandTo(uint64_t new_m) {
  if (new_m == m_) return Status::Ok();
  if (new_m < m_ || new_m % m_ != 0) {
    return Status::InvalidArgument(
        "ExpandTo needs new_m to be a multiple of the current m");
  }
  if (fault::ShouldFailAllocation()) {
    return Status::ResourceExhausted("Bloom filter expansion allocation failed");
  }
  const uint64_t c = new_m / m_;
  BitVector next(new_m);
  for (uint64_t i = 0; i < m_; ++i) {
    if (!bits_.GetBit(i)) continue;
    for (uint64_t rep = 0; rep < c; ++rep) {
      const uint64_t p = hash_.kind() == HashFamily::Kind::kModuloMultiply
                             ? i * c + rep
                             : i + rep * m_;
      next.SetBit(p, true);
    }
  }
  hash_ = HashFamily(hash_.k(), new_m, hash_.seed(), hash_.kind());
  bits_ = std::move(next);
  m_ = new_m;
  // Replication set up to c bits per original Add, so the population
  // bound ones <= k * num_added no longer holds for this filter.
  popcount_bound_intact_ = false;
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

std::vector<uint8_t> BloomFilter::Serialize() const {
  SBF_AUDIT_INVARIANTS(*this);
  wire::Writer payload;
  payload.PutVarint(m_);
  payload.PutVarint(hash_.k());
  payload.PutU8(hash_.kind() == HashFamily::Kind::kModuloMultiply ? 0 : 1);
  payload.PutU64(hash_.seed());
  payload.PutVarint(num_added_);
  payload.PutWords(bits_.words(), bits_.size_words());
  return wire::SealFrame(wire::kMagicBloomFilter, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<BloomFilter> BloomFilter::Deserialize(wire::ByteSpan bytes) {
  auto reader = wire::OpenFrame(bytes, wire::kMagicBloomFilter,
                                wire::kFormatVersion, "Bloom filter");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  const uint64_t m = in.ReadVarint();
  const uint64_t k = in.ReadVarint();
  const uint8_t kind = in.ReadU8();
  const uint64_t seed = in.ReadU64();
  const uint64_t count = in.ReadVarint();
  if (!in.ok()) return in.status();
  if (m < 1 || k < 1 || k > HashFamily::kMaxK || kind > 1) {
    return Status::DataLoss("bad Bloom filter header");
  }
  // Validate the payload size before allocating m bits, so a corrupted
  // header cannot trigger a huge allocation.
  if (m > in.remaining() * 8) {
    return Status::DataLoss("Bloom filter bit array truncated");
  }
  const size_t words = CeilDiv(m, 64);
  if (in.remaining() != words * 8) {
    return Status::DataLoss("Bloom filter payload size mismatch");
  }
  BloomFilter filter(m, static_cast<uint32_t>(k), seed,
                     kind == 0 ? HashFamily::Kind::kModuloMultiply
                               : HashFamily::Kind::kDoubleMix);
  in.ReadWords(filter.bits_.mutable_words(), words);
  Status status = in.ExpectEnd("Bloom filter");
  if (!status.ok()) return status;
  if (m % 64 != 0 && (filter.bits_.words()[words - 1] >> (m % 64)) != 0) {
    return Status::DataLoss("Bloom filter has set padding bits");
  }
  filter.num_added_ = count;
  // No expansion provenance on the wire: the population bound cannot be
  // re-armed on a loaded filter.
  filter.popcount_bound_intact_ = false;
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}


Status BloomFilter::CheckInvariants() const {
  if (m_ < 1) {
    return Status::FailedPrecondition("Bloom filter: m < 1");
  }
  if (hash_.m() != m_ || hash_.k() < 1 || hash_.k() > HashFamily::kMaxK) {
    return Status::FailedPrecondition(
        "Bloom filter: hash family disagrees with m/k");
  }
  if (bits_.size_bits() != m_) {
    return Status::FailedPrecondition(
        "Bloom filter: bit array size disagrees with m");
  }
  if (m_ % 64 != 0 && (bits_.words()[m_ / 64] >> (m_ % 64)) != 0) {
    return Status::FailedPrecondition(
        "Bloom filter: set bits in the tail padding");
  }
  // Each Add sets at most k bits, so the population can never exceed
  // k * num_added (the bound is vacuous once num_added >= m, where the
  // product could also overflow — skip it there).
  const size_t ones = bits_.PopCount();
  if (popcount_bound_intact_ && num_added_ <= m_ &&
      ones > num_added_ * hash_.k()) {
    return Status::FailedPrecondition(
        "Bloom filter: more set bits than k * num_added can explain");
  }
  return Status::Ok();
}

}  // namespace sbf
