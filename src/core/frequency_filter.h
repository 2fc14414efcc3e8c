#ifndef SBF_CORE_FREQUENCY_FILTER_H_
#define SBF_CORE_FREQUENCY_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/health.h"
#include "util/status.h"

namespace sbf {

// Common interface of every multiplicity-estimating filter in the library
// (SBF under Minimum Selection / Minimal Increase, flat or blocked;
// Recurring Minimum; Trapping Recurring Minimum). Lets the experiment
// harness and the sliding-window wrapper treat the paper's algorithms
// uniformly.
//
// All estimates are one-sided upper bounds under insert-only workloads:
// Estimate(x) >= f_x. Minimal Increase loses this guarantee once Remove is
// used (the false negatives the paper's Figure 8 demonstrates).
class FrequencyFilter {
 public:
  virtual ~FrequencyFilter() = default;

  // Records `count` additional occurrences of `key`.
  virtual void Insert(uint64_t key, uint64_t count = 1) = 0;

  // Removes `count` occurrences of `key`. Callers must only remove
  // occurrences previously inserted (the sliding-window contract: data
  // leaving the window is available for deletion).
  virtual void Remove(uint64_t key, uint64_t count = 1) = 0;

  // Estimated multiplicity of `key`.
  [[nodiscard]] virtual uint64_t Estimate(uint64_t key) const = 0;

  // --- batch API ---------------------------------------------------------
  //
  // Batched point operations. The defaults are plain loops, so every
  // filter gets a *correct* batch API for free; the hot frontends
  // (SpectralBloomFilter over every backing and layout, ConcurrentSbf)
  // override them with hash-ahead + software-prefetch pipelines that
  // hide the k random counter reads behind useful work. Overrides must be
  // *exactly* equivalent to the default loops (same estimates, same final
  // counter state). SpectralBloomFilter meets that by running its point
  // ops' own per-key bodies inside the pipeline; the differential tests
  // check every frontend's batches against its point ops, and the SBF's
  // against an independent copy of the per-probe scalar loops.

  // Records `count` additional occurrences of each of keys[0..n).
  virtual void InsertBatch(const uint64_t* keys, size_t n,
                           uint64_t count = 1) {
    for (size_t i = 0; i < n; ++i) Insert(keys[i], count);
  }

  // Fills out[i] = Estimate(keys[i]) for i in [0, n).
  virtual void EstimateBatch(const uint64_t* keys, size_t n,
                             uint64_t* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = Estimate(keys[i]);
  }

  // Vector conveniences over the pointer forms above.
  void InsertBatch(const std::vector<uint64_t>& keys, uint64_t count = 1) {
    InsertBatch(keys.data(), keys.size(), count);
  }
  [[nodiscard]] std::vector<uint64_t> EstimateBatch(
      const std::vector<uint64_t>& keys) const {
    std::vector<uint64_t> out(keys.size());
    EstimateBatch(keys.data(), keys.size(), out.data());
    return out;
  }

  // Spectral membership test: is f_key >= threshold (with the filter's
  // one-sided error)? Threshold 1 is plain Bloom membership.
  [[nodiscard]] bool Contains(uint64_t key, uint64_t threshold = 1) const {
    return Estimate(key) >= threshold;
  }

  // Live health snapshot: fill ratio, estimated current FPR from observed
  // occupancy, saturation tallies, and a traffic-light verdict, from an
  // occupancy scan of the filter's counters (O(m)). Pure virtual: a
  // frontend that did not scan its own counters would report kHealthy
  // whatever it holds.
  [[nodiscard]] virtual FilterHealth Health() const = 0;

  // Total memory footprint in bits, including all auxiliary structures.
  [[nodiscard]] virtual size_t MemoryUsageBits() const = 0;

  // Algorithm name for experiment tables ("MS", "MI", "RM", ...).
  [[nodiscard]] virtual std::string Name() const = 0;

  // Complete self-describing wire frame (io/wire.h): every frontend is
  // persistable and shippable. io/filter_codec.h reconstructs any
  // frontend from its frame by dispatching on the frame magic.
  [[nodiscard]] virtual std::vector<uint8_t> Serialize() const = 0;

  // Structural self-check of the paper's layout/counter invariants for
  // this filter (the SBF_AUDIT validator layer; see DESIGN.md §7). Always
  // compiled — `sbf_tool audit` runs it on deserialized frames in any
  // build — and additionally invoked at API boundaries in -DSBF_AUDIT
  // builds via SBF_AUDIT_INVARIANTS. Returns OK or a FailedPrecondition
  // naming the violated invariant.
  [[nodiscard]] virtual Status CheckInvariants() const { return Status::Ok(); }
};

}  // namespace sbf

#endif  // SBF_CORE_FREQUENCY_FILTER_H_
