#ifndef SBF_UTIL_METRICS_H_
#define SBF_UTIL_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sbf {

// Accumulates the two error metrics of the paper's Section 6.1 plus the
// false-negative breakdown used in Figure 8:
//
//   E_add   = sqrt( sum_i (fhat_i - f_i)^2 / n )   "mean squared additive error"
//   E_ratio = (# queries with fhat_i != f_i) / n   "error ratio"
//
// A false negative is an estimate strictly below the true frequency
// (possible only for Minimal Increase under deletions).
class ErrorStats {
 public:
  // Records a single query outcome: estimated vs true frequency.
  void Record(uint64_t estimate, uint64_t truth);

  size_t num_queries() const { return num_queries_; }
  size_t num_errors() const { return num_errors_; }
  size_t num_false_negatives() const { return num_false_negatives_; }

  // Root mean squared additive error over all recorded queries.
  double AdditiveError() const;
  // Fraction of queries that returned a wrong estimate.
  double ErrorRatio() const;
  // Fraction of *errors* that are false negatives (0 if no errors).
  double FalseNegativeShare() const;
  // Mean signed error (estimate - truth), useful for bias analysis.
  double MeanSignedError() const;

  // Merges another accumulator into this one (for averaging across runs).
  void Merge(const ErrorStats& other);

 private:
  size_t num_queries_ = 0;
  size_t num_errors_ = 0;
  size_t num_false_negatives_ = 0;
  double sum_squared_error_ = 0.0;
  double sum_signed_error_ = 0.0;
};

// Simple running mean/min/max helper for benchmark aggregation.
class Aggregate {
 public:
  void Add(double v);
  double mean() const;
  double min() const { return min_; }
  double max() const { return max_; }
  size_t count() const { return count_; }

 private:
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Per-shard operation counters for the concurrent sharded frontend
// (core/concurrent_sbf.h). Each shard's counters live on their own cache
// line so concurrent recording from many threads does not false-share;
// updates are relaxed atomics, so recording is wait-free and race-clean
// but totals read while threads are running are approximate. The class
// holds no lock-guarded state — every member is an independent atomic
// gauge with explicit relaxed ordering (the discipline sbf_analyze.py's
// memory-order check enforces; DESIGN.md §11), so it carries no capability
// annotations.
class ShardMetrics {
 public:
  ShardMetrics() = default;
  explicit ShardMetrics(size_t num_shards);
  ShardMetrics(ShardMetrics&&) = default;
  ShardMetrics& operator=(ShardMetrics&&) = default;

  size_t num_shards() const { return num_shards_; }

  // `keys` is the number of keys the operation touched (1 for point ops,
  // the per-shard group size for batch ops).
  void RecordInsert(size_t shard, uint64_t keys);
  void RecordRemove(size_t shard, uint64_t keys);
  void RecordEstimate(size_t shard, uint64_t keys);
  // One batch-API visit to this shard (lock acquisitions amortized over it).
  void RecordBatch(size_t shard);
  // One delta-buffer epoch merge into this shard applying `keys` distinct
  // buffered keys (core/delta_buffer.h).
  void RecordDeltaMerge(size_t shard, uint64_t keys);
  // High-water mark of distinct keys buffered for this shard in one epoch
  // (recorded as a CAS-max just before the merge drains the map).
  void RecordDeltaBufferedPeak(size_t shard, uint64_t buffered);

  struct Snapshot {
    uint64_t inserted_keys = 0;
    uint64_t removed_keys = 0;
    uint64_t estimated_keys = 0;
    uint64_t batches = 0;
    uint64_t delta_merges = 0;
    uint64_t delta_merged_keys = 0;
    // Max across epochs (and across shards, for Totals()).
    uint64_t delta_buffered_peak = 0;
  };
  Snapshot Shard(size_t shard) const;
  // Sum over all shards.
  Snapshot Totals() const;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> inserted_keys{0};
    std::atomic<uint64_t> removed_keys{0};
    std::atomic<uint64_t> estimated_keys{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> delta_merges{0};
    std::atomic<uint64_t> delta_merged_keys{0};
    std::atomic<uint64_t> delta_buffered_peak{0};
  };
  static_assert(sizeof(Cell) == 64,
                "one metrics cell per cache line (pad if fields are added)");

  size_t num_shards_ = 0;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace sbf

#endif  // SBF_UTIL_METRICS_H_
