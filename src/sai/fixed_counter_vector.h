#ifndef SBF_SAI_FIXED_COUNTER_VECTOR_H_
#define SBF_SAI_FIXED_COUNTER_VECTOR_H_

#include <memory>
#include <string>

#include "bitstream/bit_vector.h"
#include "sai/counter_vector.h"
#include "util/prefetch.h"

namespace sbf {

// Packed fixed-width counters: counter i lives in bits [i*w, (i+1)*w).
//
// With `sticky_saturation` enabled the vector implements the classic
// counting-Bloom-filter overflow policy [FCAB98]: increments clamp at the
// maximum representable value and a saturated counter is never decremented
// (a stuck counter can overestimate but never causes a false negative).
// Width 4 with sticky saturation is the kSticky4 backing; widths 64 and 32
// without it are kFixed64 and kFixed32.
class FixedWidthCounterVector final : public CounterVector {
 public:
  // Get is one load: core/batch_kernels.h's MinProbe reads every probe.
  static constexpr bool kBranchFreeMin = true;

  FixedWidthCounterVector(size_t m, uint32_t width_bits,
                          bool sticky_saturation = false);

  [[nodiscard]] size_t size() const noexcept override { return m_; }
  // Get/Set/Increment are inline so the batched kernels — which call them
  // through a concrete (final) pointer — devirtualize AND inline the probe.
  [[nodiscard]] uint64_t Get(size_t i) const noexcept override {
    SBF_DCHECK(i < m_);
    return bits_.GetBits(i * width_, width_);
  }
  // A value past the representable range clamps at max_value_ — reachable
  // from public inputs (narrow widths under heavy traffic, Minimal
  // Increase lifts), so it must degrade gracefully, not abort. The clamp
  // keeps the one-sided guarantee: the counter reads max, never less.
  void Set(size_t i, uint64_t value) noexcept override {
    SBF_DCHECK(i < m_);
    if (value > max_value_) {
      value = max_value_;
      ++stats_.saturation_clamps;
    }
    bits_.SetBits(i * width_, width_, value);
  }
  void Increment(size_t i, uint64_t delta = 1) noexcept override {
    const uint64_t v = Get(i);
    if (delta > max_value_ - v) {
      bits_.SetBits(i * width_, width_, max_value_);
      ++stats_.saturation_clamps;
      return;
    }
    bits_.SetBits(i * width_, width_, v + delta);
  }
  void Decrement(size_t i, uint64_t delta = 1) noexcept override;
  void Reset() override;
  size_t MemoryUsageBits() const override;
  std::unique_ptr<CounterVector> Clone() const override;
  std::string Name() const override;

  void PrefetchCounter(size_t i) const noexcept override {
    SBF_PREFETCH(bits_.words() + (i * width_ >> 6));
  }
  void DecodeBlock(size_t first, size_t n,
                   uint64_t* out) const noexcept override {
    for (size_t j = 0; j < n; ++j) out[j] = Get(first + j);
  }

  // 'SBfx' frame: {varint m, varint width, u8 sticky, raw packed words}.
  // The words are the in-memory layout verbatim (little-endian on the
  // wire), so this is the fast byte-exact path among the backings.
  std::vector<uint8_t> Serialize() const override;
  Status CheckInvariants() const override;
  static StatusOr<std::unique_ptr<CounterVector>> Deserialize(
      wire::ByteSpan bytes);

  [[nodiscard]] uint64_t MaxValue() const noexcept override {
    return max_value_;
  }

  [[nodiscard]] uint32_t width_bits() const noexcept { return width_; }
  [[nodiscard]] uint64_t max_value() const noexcept { return max_value_; }
  [[nodiscard]] bool sticky_saturation() const noexcept { return sticky_; }

  // Raw backing words. For the 64-bit-wide configuration counter i is
  // exactly word i — the layout the lock-free arm's AtomicCounters view
  // relies on (core/batch_kernels.h).
  [[nodiscard]] const uint64_t* words() const noexcept {
    return bits_.words();
  }
  [[nodiscard]] uint64_t* mutable_words() noexcept {
    return bits_.mutable_words();
  }

 private:
  size_t m_;
  uint32_t width_;
  uint64_t max_value_;
  bool sticky_;
  BitVector bits_;
};

}  // namespace sbf

#endif  // SBF_SAI_FIXED_COUNTER_VECTOR_H_
