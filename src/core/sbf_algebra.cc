#include "core/sbf_algebra.h"

#include "core/batch_kernels.h"

namespace sbf {
namespace {

// Same counters for every key: same size, same layout and the same probe
// family. The layout must be compared explicitly — a flat filter's family
// over [0, m) can equal a one-block filter's within-block family.
bool SameShape(const SpectralBloomFilter& a, const SpectralBloomFilter& b) {
  return a.m() == b.m() && a.block_size() == b.block_size() &&
         a.hash().Compatible(b.hash());
}

}  // namespace

Status UnionInto(SpectralBloomFilter* dst, const SpectralBloomFilter& src) {
  if (!SameShape(*dst, src)) {
    return Status::FailedPrecondition(
        "SBF union requires identical parameters and hash functions");
  }
  // The pointwise add of ConcurrentSbf::Merge (AddFolded with c = 1),
  // visiting each operand's backing on its own so that mixed backings
  // union; dst's Increment clamps and tallies as a point insert would.
  VisitBacking(src.options().backing, src.counters(), [&](const auto& from) {
    VisitBacking(dst->options().backing, dst->mutable_counters(),
                 [&](auto& to) { AddFolded(from, to, 0, dst->m(), 1, 1); });
  });
  dst->set_total_items(dst->total_items() + src.total_items());
  return Status::Ok();
}

StatusOr<SpectralBloomFilter> Multiply(const SpectralBloomFilter& a,
                                       const SpectralBloomFilter& b) {
  if (!SameShape(a, b)) {
    return Status::FailedPrecondition(
        "SBF multiplication requires identical parameters and hash functions");
  }
  SpectralBloomFilter product = a.CloneEmpty();
  uint64_t total = 0;
  for (uint64_t i = 0; i < a.m(); ++i) {
    const uint64_t value = a.counters().Get(i) * b.counters().Get(i);
    if (value > 0) product.mutable_counters().Set(i, value);
    total += value;
  }
  // The product's "total items" is the sum of its counters over k — the
  // join-size analogue used by the unbiased estimator.
  product.set_total_items(total / a.k());
  return product;
}

std::vector<uint64_t> FilterByThreshold(const SpectralBloomFilter& filter,
                                        const std::vector<uint64_t>& candidates,
                                        uint64_t threshold) {
  std::vector<uint64_t> passing;
  for (uint64_t key : candidates) {
    if (filter.Estimate(key) >= threshold) passing.push_back(key);
  }
  return passing;
}

}  // namespace sbf
