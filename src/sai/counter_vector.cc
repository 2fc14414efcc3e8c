#include "sai/counter_vector.h"

#include <algorithm>

#include "sai/compact_counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/check.h"

namespace sbf {

void CounterVector::Decrement(size_t i, uint64_t delta) {
  const uint64_t v = Get(i);
  if (delta > v) {
    Set(i, 0);
    ++stats_.underflow_clamps;
    return;
  }
  Set(i, v - delta);
}

uint64_t CounterVector::Total() const {
  constexpr size_t kChunk = 256;
  uint64_t values[kChunk];
  uint64_t total = 0;
  const size_t n = size();
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t len = std::min(kChunk, n - base);
    DecodeBlock(base, len, values);
    for (size_t j = 0; j < len; ++j) total += values[j];
  }
  return total;
}

std::unique_ptr<CounterVector> MakeCounterVector(CounterBacking backing,
                                                 size_t m) {
  switch (backing) {
    case CounterBacking::kFixed64:
      return std::make_unique<FixedWidthCounterVector>(m, 64);
    case CounterBacking::kFixed32:
      return std::make_unique<FixedWidthCounterVector>(m, 32);
    case CounterBacking::kCompact:
      return std::make_unique<CompactCounterVector>(m);
    case CounterBacking::kSerialScan:
      return std::make_unique<SerialScanCounterVector>(m);
    case CounterBacking::kSticky4:
      return std::make_unique<FixedWidthCounterVector>(
          m, 4, /*sticky_saturation=*/true);
  }
  SBF_CHECK_MSG(false, "unknown counter backing");
  return nullptr;
}

const char* CounterBackingName(CounterBacking backing) {
  switch (backing) {
    case CounterBacking::kFixed64:
      return "fixed64";
    case CounterBacking::kFixed32:
      return "fixed32";
    case CounterBacking::kCompact:
      return "compact";
    case CounterBacking::kSerialScan:
      return "serial-scan";
    case CounterBacking::kSticky4:
      return "sticky4";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<CounterVector>> DeserializeCounterVector(
    wire::ByteSpan bytes) {
  switch (wire::PeekMagic(bytes)) {
    case wire::kMagicFixedCounters:
      return FixedWidthCounterVector::Deserialize(bytes);
    case wire::kMagicCompactCounters:
      return CompactCounterVector::Deserialize(bytes);
    case wire::kMagicSerialScanCounters:
      return SerialScanCounterVector::Deserialize(bytes);
    default:
      return Status::DataLoss("unknown counter backing frame magic");
  }
}

bool MatchesBacking(const CounterVector& cv, CounterBacking backing) {
  switch (backing) {
    case CounterBacking::kFixed64:
    case CounterBacking::kFixed32:
    case CounterBacking::kSticky4: {
      const auto* fixed = dynamic_cast<const FixedWidthCounterVector*>(&cv);
      const bool sticky = backing == CounterBacking::kSticky4;
      const uint32_t width = sticky                                ? 4
                             : backing == CounterBacking::kFixed64 ? 64
                                                                   : 32;
      return fixed != nullptr && fixed->width_bits() == width &&
             fixed->sticky_saturation() == sticky;
    }
    case CounterBacking::kCompact:
      return dynamic_cast<const CompactCounterVector*>(&cv) != nullptr;
    case CounterBacking::kSerialScan:
      return dynamic_cast<const SerialScanCounterVector*>(&cv) != nullptr;
  }
  return false;
}

}  // namespace sbf
