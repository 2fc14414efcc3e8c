#include "bitstream/steps_code.h"

#include "bitstream/elias.h"
#include "util/check.h"

namespace sbf {

StepsCode::StepsCode(std::vector<uint32_t> step_widths)
    : step_widths_(std::move(step_widths)) {
  SBF_CHECK_MSG(!step_widths_.empty(), "steps code needs at least one step");
  // The escape's continuation run rides in the Elias code's first write.
  SBF_CHECK_MSG(step_widths_.size() <= kMaxDeltaPrefixBits,
                "steps code has too many steps");
  uint64_t base = 0;
  bases_.reserve(step_widths_.size());
  for (uint32_t w : step_widths_) {
    SBF_CHECK_MSG(w < 63, "step width too large");
    bases_.push_back(base);
    base += 1ull << w;
  }
  escape_base_ = base;
}

uint32_t StepsCode::Length(uint64_t value) const {
  for (size_t j = 0; j < step_widths_.size(); ++j) {
    const uint64_t capacity = 1ull << step_widths_[j];
    if (value < bases_[j] + capacity) {
      return static_cast<uint32_t>(j + 1) + step_widths_[j];
    }
  }
  return static_cast<uint32_t>(step_widths_.size()) +
         EliasDeltaLength(value - escape_base_ + 1);
}

}  // namespace sbf
