#ifndef SBF_CORE_SBF_ALGEBRA_H_
#define SBF_CORE_SBF_ALGEBRA_H_

#include <cstdint>
#include <vector>

#include "core/spectral_bloom_filter.h"
#include "util/status.h"

namespace sbf {

// Multi-set algebra over SBFs (paper Section 2.2, "Distributed processing"
// and "Queries over joins of sets"). All operations require the operands
// to have identical parameters and hash functions.

// dst <- dst + src (pointwise counter addition): the SBF of the multiset
// union. This is how a relation partitioned across sites is merged.
Status UnionInto(SpectralBloomFilter* dst, const SpectralBloomFilter& src);

// Pointwise counter product: an SBF representing the join of the two
// multisets on the filtered attribute. For a key x present in both sides
// with frequencies f and g, the estimate of the product filter upper-
// bounds f*g — the number of join result tuples contributed by x. Products
// saturate at the backing's maximum, as inserts do.
StatusOr<SpectralBloomFilter> Multiply(const SpectralBloomFilter& a,
                                       const SpectralBloomFilter& b);

// Keys from `candidates` whose estimated multiplicity is >= threshold.
// One-sided: contains every key whose true multiplicity passes the
// threshold plus a small fraction of false positives (Section 5.2's
// ad-hoc iceberg primitive).
std::vector<uint64_t> FilterByThreshold(const SpectralBloomFilter& filter,
                                        const std::vector<uint64_t>& candidates,
                                        uint64_t threshold);

}  // namespace sbf

#endif  // SBF_CORE_SBF_ALGEBRA_H_
