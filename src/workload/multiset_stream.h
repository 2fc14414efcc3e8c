#ifndef SBF_WORKLOAD_MULTISET_STREAM_H_
#define SBF_WORKLOAD_MULTISET_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sbf {

// A synthetic multiset with exact ground truth: `keys[i]` appears exactly
// `freqs[i]` times; `stream` is a random interleaving of all occurrences
// (the order the experiments feed into a filter). Every experiment in the
// benchmark suite draws its data from one of the factories below.
struct Multiset {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> freqs;
  std::vector<uint64_t> stream;

  size_t num_distinct() const { return keys.size(); }
  uint64_t total() const { return stream.size(); }
};

// Builds a multiset from explicit per-key frequencies; keys are 1..n
// unless `keys` is provided. The stream is shuffled with `seed`.
Multiset MultisetFromFrequencies(std::vector<uint64_t> freqs, uint64_t seed);
Multiset MultisetFromFrequencies(std::vector<uint64_t> keys,
                                 std::vector<uint64_t> freqs, uint64_t seed);

// Zipfian multiset: n distinct keys, `total` occurrences, skew z
// (Section 6.1's synthetic setup: n = 1000, M = 100,000, z swept 0..2).
Multiset MakeZipfMultiset(uint64_t n, uint64_t total, double skew,
                          uint64_t seed);

// Uniform multiset: every key appears total/n times (+1 for the first
// total%n keys).
Multiset MakeUniformMultiset(uint64_t n, uint64_t total, uint64_t seed);

// The palindrome adversary of Section 3.3.1:
//   v_1 v_2 ... v_{n} v_{n} ... v_2 v_1
// Every key appears exactly twice; traps armed by early keys never fire.
std::vector<uint64_t> MakePalindromeStream(uint64_t n);

}  // namespace sbf

#endif  // SBF_WORKLOAD_MULTISET_STREAM_H_
