#include "core/estimators.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace sbf {
namespace {

// Applies the Lemma 3 correction to a raw counter mean.
double Debias(double counter_mean, const SpectralBloomFilter& filter) {
  const double k = filter.k();
  const double m = static_cast<double>(filter.m());
  const double n_total = static_cast<double>(filter.total_items());
  return (counter_mean - k * n_total / m) / (1.0 - k / m);
}

}  // namespace

double UnbiasedEstimate(const SpectralBloomFilter& filter, uint64_t key) {
  SBF_CHECK_MSG(filter.m() > filter.k(), "unbiased estimator needs m > k");
  const std::vector<uint64_t> values = filter.CounterValues(key);
  double sum = 0.0;
  for (uint64_t v : values) sum += static_cast<double>(v);
  return Debias(sum / static_cast<double>(values.size()), filter);
}

double ClampedUnbiasedEstimate(const SpectralBloomFilter& filter,
                               uint64_t key) {
  const double unbiased = UnbiasedEstimate(filter, key);
  const double upper = static_cast<double>(filter.Estimate(key));
  return std::clamp(unbiased, 0.0, upper);
}

double BoostedUnbiasedEstimate(const SpectralBloomFilter& filter,
                               uint64_t key, uint32_t groups) {
  SBF_CHECK_MSG(groups >= 1, "boosted estimator needs >= 1 group");
  SBF_CHECK_MSG(filter.m() > filter.k(), "unbiased estimator needs m > k");
  const std::vector<uint64_t> values = filter.CounterValues(key);
  const uint32_t k = static_cast<uint32_t>(values.size());
  const uint32_t effective_groups = std::min(groups, k);

  // Split the k counters into nearly even contiguous groups, debias each
  // group mean, take the median of the group means.
  std::vector<double> means;
  means.reserve(effective_groups);
  uint32_t begin = 0;
  for (uint32_t g = 0; g < effective_groups; ++g) {
    const uint32_t size = (k - begin) / (effective_groups - g);
    double sum = 0.0;
    for (uint32_t i = begin; i < begin + size; ++i) {
      sum += static_cast<double>(values[i]);
    }
    means.push_back(Debias(sum / size, filter));
    begin += size;
  }
  std::nth_element(means.begin(), means.begin() + means.size() / 2,
                   means.end());
  return means[means.size() / 2];
}

double HybridRmUnbiasedEstimate(const SpectralBloomFilter& filter,
                                uint64_t key) {
  const KeyMinimum minimum = filter.RecurringMinimum(key);
  if (minimum.recurring) return static_cast<double>(minimum.min);
  return ClampedUnbiasedEstimate(filter, key);
}

}  // namespace sbf
