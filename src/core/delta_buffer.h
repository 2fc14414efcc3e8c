#ifndef SBF_CORE_DELTA_BUFFER_H_
#define SBF_CORE_DELTA_BUFFER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/delta_kernels.h"
#include "util/thread_annotations.h"

namespace sbf {

class ConcurrentSbf;

// Tuning for ConcurrentSbf's epoch-merged thread-local write path. Inserts
// accumulate into per-thread, per-shard open-addressed delta maps
// (core/delta_kernels.h) and are merged into the shard counters on an
// epoch boundary: a size threshold, a wall-clock threshold, or an explicit
// ConcurrentSbf::Flush(). Process-local tuning — never serialized.
struct DeltaBufferOptions {
  // Master switch. The delta path additionally requires Minimum Selection:
  // Minimal Increase reads the current minimum before lifting counters, so
  // its updates are order-dependent and cannot be buffered commutatively —
  // MI filters always take the direct path regardless of this flag.
  bool enabled = true;
  // Slots per (thread, shard) map. Must be a power of two.
  uint32_t capacity = 1024;
  // Merge a shard's map once it holds this many distinct keys. Keeping it
  // at or below capacity/2 keeps linear-probe chains short.
  uint32_t merge_keys = 512;
  // Merge a shard's map once its oldest buffered op is this stale (bounds
  // how long a counter under-states its flushed-plus-buffered value; the
  // pending-op tally keeps estimates one-sided regardless). 0 disables the
  // clock check; the clock is consulted once every 64 buffered ops.
  uint32_t max_epoch_micros = 2000;
};

// One thread's buffered deltas against one ConcurrentSbf: a delta map per
// shard plus the per-shard epoch bookkeeping the merge needs. Storage for
// all shards lives in flat arrays (keys, nets, occupancy bitmap words), so
// the allocation count does not grow with the shard count. Jointly owned
// by the writing thread's TLS holder and the filter's DeltaRegistry; `mu`
// serializes the owning thread's accumulation against cross-thread
// Flush().
class DeltaSet {
 public:
  DeltaSet(uint32_t num_shards, const DeltaBufferOptions& options);

  struct ShardState {
    uint32_t size = 0;             // live slots in this shard's map
    // Ops buffered since the last merge; only its low bits pace the clock
    // check, so it may wrap.
    uint32_t ops_since_merge = 0;
    // Occurrences published to the shard's pending-op tally but not yet
    // merged into its counters (subtracted, release-ordered, after the
    // merge applies them).
    uint64_t pending_contrib = 0;
    // Occurrences inserted and removed since the last merge (each held at
    // 2^64 - 1); added to the shard's item tallies when the merge applies
    // them, on every backing.
    uint64_t inserted_ops = 0;
    uint64_t removed_ops = 0;
    std::chrono::steady_clock::time_point epoch_start{};
    bool epoch_open = false;
  };

  [[nodiscard]] DeltaMapView map(uint32_t shard) noexcept SBF_REQUIRES(mu) {
    const size_t base = static_cast<size_t>(shard) * options_.capacity;
    const size_t word_base =
        static_cast<size_t>(shard) * DeltaBitmapWords(options_.capacity);
    return DeltaMapView{keys_.data() + base, nets_.data() + base,
                        occupied_.data() + word_base, options_.capacity - 1};
  }
  [[nodiscard]] ShardState& state(uint32_t shard) noexcept SBF_REQUIRES(mu) {
    return states_[shard];
  }
  [[nodiscard]] uint32_t num_shards() const noexcept { return num_shards_; }
  [[nodiscard]] const DeltaBufferOptions& options() const noexcept {
    return options_;
  }
  // Per-shard scratch for grouping a batch chunk by shard
  // (CountingSortByShard's cursors and touched-shard list), preallocated
  // so the batch path never allocates. Only the owning thread's
  // InsertBatch touches it — cross-thread drains never do — so it is not
  // guarded by `mu`. The cursors are all zero between uses.
  [[nodiscard]] uint64_t* batch_cursor() noexcept {
    return batch_cursor_.data();
  }
  [[nodiscard]] uint32_t* batch_touched() noexcept {
    return batch_touched_.data();
  }

  // Storage footprint in bits (for ConcurrentSbf::MemoryUsageBits). The
  // vector geometry is fixed at construction, but the contents are guarded,
  // so callers take `mu` (registry mu -> set mu order).
  [[nodiscard]] size_t MemoryBits() const noexcept SBF_REQUIRES(mu);

  // Taken by the owning thread around every accumulate/merge (uncontended
  // in steady state) and by cross-thread Flush() and thread-exit drains,
  // which run the same epoch merge set by set.
  mutable util::Mutex mu;

 private:
  uint32_t num_shards_;
  DeltaBufferOptions options_;
  std::vector<uint64_t> keys_ SBF_GUARDED_BY(mu);   // num_shards * capacity
  std::vector<uint64_t> nets_ SBF_GUARDED_BY(mu);   // num_shards * capacity
  // num_shards * DeltaBitmapWords(capacity) occupancy words.
  std::vector<uint64_t> occupied_ SBF_GUARDED_BY(mu);
  std::vector<ShardState> states_ SBF_GUARDED_BY(mu);
  std::vector<uint64_t> batch_cursor_;    // num_shards, owner-thread only
  std::vector<uint32_t> batch_touched_;   // num_shards, owner-thread only
};

// Every thread's DeltaSet for one ConcurrentSbf. The filter holds the
// registry via shared_ptr; each writing thread's TLS holder keeps a
// weak_ptr, so thread exit can find live filters to drain into and filter
// destruction orphans the TLS entries harmlessly. Lock order is always
// registry mu -> set mu -> shard locks (DESIGN.md §11).
class DeltaRegistry {
 public:
  util::Mutex mu;
  // The filter to drain into; nulled (under mu) by ~ConcurrentSbf and
  // updated by its move operations.
  ConcurrentSbf* owner SBF_GUARDED_BY(mu) = nullptr;
  std::vector<std::shared_ptr<DeltaSet>> sets SBF_GUARDED_BY(mu);
};

// Returns the calling thread's DeltaSet for `registry`, creating and
// registering it on first use. The pointer stays valid for the thread's
// lifetime (the TLS holder co-owns it).
DeltaSet* ThreadDeltaSet(const std::shared_ptr<DeltaRegistry>& registry,
                         uint32_t num_shards,
                         const DeltaBufferOptions& options);

// Lookup-only variant for read paths: the calling thread's DeltaSet for
// `registry`, or nullptr if this thread never wrote through it.
DeltaSet* ThreadDeltaSetIfExists(const DeltaRegistry* registry) noexcept;

}  // namespace sbf

#endif  // SBF_CORE_DELTA_BUFFER_H_
