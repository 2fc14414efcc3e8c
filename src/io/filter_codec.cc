#include "io/filter_codec.h"

#include <utility>

#include "core/concurrent_sbf.h"
#include "core/recurring_minimum.h"
#include "core/spectral_bloom_filter.h"
#include "core/trapping_rm.h"

namespace sbf {
namespace {

// Lifts a concrete StatusOr<Filter> into the polymorphic result.
template <typename Filter>
StatusOr<std::unique_ptr<FrequencyFilter>> Lift(StatusOr<Filter> loaded) {
  if (!loaded.ok()) return loaded.status();
  return std::unique_ptr<FrequencyFilter>(
      std::make_unique<Filter>(std::move(loaded).value()));
}

}  // namespace

StatusOr<std::unique_ptr<FrequencyFilter>> DeserializeFilter(
    wire::ByteSpan bytes) {
  switch (wire::PeekMagic(bytes)) {
    case wire::kMagicSbf:
    case wire::kMagicSbfBlocked:
    case wire::kMagicSbfBlockedMi:
    case wire::kMagicCountingBloom:
      return Lift(SpectralBloomFilter::Deserialize(bytes));
    case wire::kMagicShardedSbf:
      return Lift(ConcurrentSbf::Deserialize(bytes));
    case wire::kMagicRecurringMinimum:
      return Lift(RecurringMinimumSbf::Deserialize(bytes));
    case wire::kMagicTrappingRm:
      return Lift(TrappingRmSbf::Deserialize(bytes));
    default:
      return Status::DataLoss("unknown filter frame magic");
  }
}

}  // namespace sbf
