#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation for the end-to-end benchmark. Every workload's
// op stream is generated in full before any timing starts; the same seed
// always yields the same stream.

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// The SplitMix64 finalizer: a bijection on 64-bit words. Inputs are built
// from it and from Rng below, not from the library's own hashing or
// random numbers, so no library change can alter a workload's inputs.
inline uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// SplitMix64 generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_ += 0x9E3779B97F4A7C15ull); }
  // Uniform in [0, 1).
  double UniformDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform in [0, bound); the modulo bias is below 2^-40 for the bounds used.
  uint64_t UniformInt(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// Rejection-inversion Zipf sampler (Hörmann & Derflinger 1996): O(1) per
// draw with no CDF table, so a 2^24-rank universe costs no memory and
// millions of draws take milliseconds. Returns ranks in [1, n]; rank r has
// probability proportional to r^-z.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double z) : n_(n), z_(z) {
    h_integral_x1_ = HIntegral(1.5) - 1.0;
    h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
    s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }

  uint64_t Sample(Rng& rng) const {
    for (;;) {
      const double u = h_integral_n_ +
                       rng.UniformDouble() * (h_integral_x1_ - h_integral_n_);
      const double x = HIntegralInverse(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
      if (k - x <= s_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<uint64_t>(k);
      }
    }
  }

 private:
  // H(x) = x^-z, HIntegral its antiderivative (x^(1-z) - 1) / (1 - z),
  // written with expm1/log1p so z = 1 (log x) needs no special case.
  double H(double x) const { return std::exp(-z_ * std::log(x)); }
  double HIntegral(double x) const {
    const double log_x = std::log(x);
    return Helper2((1.0 - z_) * log_x) * log_x;
  }
  double HIntegralInverse(double x) const {
    double t = x * (1.0 - z_);
    if (t < -1.0) t = -1.0;
    return std::exp(Helper1(t) * x);
  }
  static double Helper1(double x) {  // log1p(x) / x
    return std::abs(x) > 1e-8 ? std::log1p(x) / x
                              : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double Helper2(double x) {  // expm1(x) / x
    return std::abs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x));
  }

  uint64_t n_;
  double z_;
  double h_integral_x1_ = 0.0;
  double h_integral_n_ = 0.0;
  double s_ = 0.0;
};

// Key of a universe rank. Mix is a bijection, so distinct ranks give
// distinct keys; the salt decorrelates key sets across seeds.
inline uint64_t KeyOf(uint32_t rank, uint64_t salt) {
  return Mix(static_cast<uint64_t>(rank) ^ salt);
}

enum class Op : uint8_t { kInsert, kEstimate, kRemove, kCheckpoint, kFlush };

// One call into the system under test: `n` keys starting at keys[begin].
struct Step {
  Op op;
  uint32_t begin;
  uint32_t n;
};

// A workload's op stream. `ranks[i]` is the universe rank of `keys[i]`,
// which indexes the exact counts the checks keep.
struct Stream {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> ranks;
  std::vector<Step> steps;

  void Add(Op op, const uint32_t* rank_list, uint32_t n, uint64_t salt) {
    steps.push_back(Step{op, static_cast<uint32_t>(keys.size()), n});
    for (uint32_t i = 0; i < n; ++i) {
      ranks.push_back(rank_list[i]);
      keys.push_back(KeyOf(rank_list[i], salt));
    }
  }
  void AddControl(Op op) {
    steps.push_back(Step{op, static_cast<uint32_t>(keys.size()), 0});
  }
  uint64_t CountKeys(Op op) const {
    uint64_t total = 0;
    for (const Step& s : steps) total += s.op == op ? s.n : 0;
    return total;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
