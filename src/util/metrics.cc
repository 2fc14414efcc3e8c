#include "util/metrics.h"

#include <algorithm>
#include <cmath>

namespace sbf {

void ErrorStats::Record(uint64_t estimate, uint64_t truth) {
  ++num_queries_;
  if (estimate != truth) {
    ++num_errors_;
    if (estimate < truth) ++num_false_negatives_;
  }
  const double diff =
      static_cast<double>(estimate) - static_cast<double>(truth);
  sum_squared_error_ += diff * diff;
  sum_signed_error_ += diff;
}

double ErrorStats::AdditiveError() const {
  if (num_queries_ == 0) return 0.0;
  return std::sqrt(sum_squared_error_ / static_cast<double>(num_queries_));
}

double ErrorStats::ErrorRatio() const {
  if (num_queries_ == 0) return 0.0;
  return static_cast<double>(num_errors_) / static_cast<double>(num_queries_);
}

double ErrorStats::FalseNegativeShare() const {
  if (num_errors_ == 0) return 0.0;
  return static_cast<double>(num_false_negatives_) /
         static_cast<double>(num_errors_);
}

double ErrorStats::MeanSignedError() const {
  if (num_queries_ == 0) return 0.0;
  return sum_signed_error_ / static_cast<double>(num_queries_);
}

void ErrorStats::Merge(const ErrorStats& other) {
  num_queries_ += other.num_queries_;
  num_errors_ += other.num_errors_;
  num_false_negatives_ += other.num_false_negatives_;
  sum_squared_error_ += other.sum_squared_error_;
  sum_signed_error_ += other.sum_signed_error_;
}

void Aggregate::Add(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

double Aggregate::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

ShardMetrics::ShardMetrics(size_t num_shards)
    : num_shards_(num_shards), cells_(new Cell[num_shards]) {}

void ShardMetrics::RecordInsert(size_t shard, uint64_t keys) {
  cells_[shard].inserted_keys.fetch_add(keys, std::memory_order_relaxed);
}

void ShardMetrics::RecordRemove(size_t shard, uint64_t keys) {
  cells_[shard].removed_keys.fetch_add(keys, std::memory_order_relaxed);
}

void ShardMetrics::RecordEstimate(size_t shard, uint64_t keys) {
  cells_[shard].estimated_keys.fetch_add(keys, std::memory_order_relaxed);
}

void ShardMetrics::RecordBatch(size_t shard) {
  cells_[shard].batches.fetch_add(1, std::memory_order_relaxed);
}

void ShardMetrics::RecordDeltaMerge(size_t shard, uint64_t keys) {
  Cell& cell = cells_[shard];
  cell.delta_merges.fetch_add(1, std::memory_order_relaxed);
  cell.delta_merged_keys.fetch_add(keys, std::memory_order_relaxed);
}

void ShardMetrics::RecordDeltaBufferedPeak(size_t shard, uint64_t buffered) {
  std::atomic<uint64_t>& peak = cells_[shard].delta_buffered_peak;
  uint64_t prev = peak.load(std::memory_order_relaxed);
  // CAS-max over an advisory gauge: both orders spelled out (relaxed) so
  // the memory-order discipline check applies to the failure path too.
  while (buffered > prev &&
         !peak.compare_exchange_weak(prev, buffered,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

ShardMetrics::Snapshot ShardMetrics::Shard(size_t shard) const {
  const Cell& cell = cells_[shard];
  Snapshot snap;
  snap.inserted_keys = cell.inserted_keys.load(std::memory_order_relaxed);
  snap.removed_keys = cell.removed_keys.load(std::memory_order_relaxed);
  snap.estimated_keys = cell.estimated_keys.load(std::memory_order_relaxed);
  snap.batches = cell.batches.load(std::memory_order_relaxed);
  snap.delta_merges = cell.delta_merges.load(std::memory_order_relaxed);
  snap.delta_merged_keys =
      cell.delta_merged_keys.load(std::memory_order_relaxed);
  snap.delta_buffered_peak =
      cell.delta_buffered_peak.load(std::memory_order_relaxed);
  return snap;
}

ShardMetrics::Snapshot ShardMetrics::Totals() const {
  Snapshot total;
  for (size_t s = 0; s < num_shards_; ++s) {
    const Snapshot snap = Shard(s);
    total.inserted_keys += snap.inserted_keys;
    total.removed_keys += snap.removed_keys;
    total.estimated_keys += snap.estimated_keys;
    total.batches += snap.batches;
    total.delta_merges += snap.delta_merges;
    total.delta_merged_keys += snap.delta_merged_keys;
    total.delta_buffered_peak =
        std::max(total.delta_buffered_peak, snap.delta_buffered_peak);
  }
  return total;
}

}  // namespace sbf
