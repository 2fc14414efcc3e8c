#ifndef SBF_CORE_SBF_POLICY_H_
#define SBF_CORE_SBF_POLICY_H_

namespace sbf {

// Insert/lookup heuristic of a SpectralBloomFilter, in either counter
// layout (flat or blocked, SbfOptions::block_size).
enum class SbfPolicy {
  // Minimum Selection (paper Section 2.2): every insert increments all k
  // counters; the estimate is the minimal counter m_x. Error probability
  // equals the classic Bloom error; supports deletions and updates.
  kMinimumSelection,
  // Minimal Increase (Section 3.2): an insert only raises counters that
  // equal the current minimum — the fewest increments that preserve
  // m_x >= f_x. Substantially more accurate (error cut by ~k for uniform
  // data, Claim 5), but deletions introduce false negatives.
  kMinimalIncrease,
};

}  // namespace sbf

#endif  // SBF_CORE_SBF_POLICY_H_
