#include "core/sbf_algebra.h"

#include <type_traits>

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
  // Both operands are read a chunk at a time through DecodeBlock (the
  // grouped backings decode each group once) into a product of a's
  // backing. A product past 2^64 - 1 saturates there, tallying the clamp
  // (a wrap would lower it, breaking the one-sided bound); narrower
  // backings clamp again, and tally, inside Set. The total saturates too.
  VisitBacking(a.options().backing, a.counters(), [&](const auto& x) {
    using CV = std::decay_t<decltype(x)>;
    auto& to = static_cast<CV&>(product.mutable_counters());
    VisitBacking(b.options().backing, b.counters(), [&](const auto& y) {
      constexpr uint64_t kChunk = 256;
      uint64_t xs[kChunk];
      uint64_t ys[kChunk];
      for (uint64_t base = 0; base < a.m(); base += kChunk) {
        const uint64_t len = a.m() - base < kChunk ? a.m() - base : kChunk;
        x.DecodeBlock(base, len, xs);
        y.DecodeBlock(base, len, ys);
        for (uint64_t j = 0; j < len; ++j) {
          uint64_t value;
          if (__builtin_mul_overflow(xs[j], ys[j], &value)) {
            value = ~uint64_t{0};
            to.MergeSaturationStats({/*saturation_clamps=*/1, 0});
          }
          if (value > 0) to.Set(base + j, value);
          total = value > ~uint64_t{0} - total ? ~uint64_t{0} : total + value;
        }
      }
    });
  });
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
