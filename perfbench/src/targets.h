#ifndef PERFBENCH_TARGETS_H_
#define PERFBENCH_TARGETS_H_

// One Target per layer level of the layer-peel ledger. Each runs a
// workload's op stream through one layer's public functions, and times
// each call into that layer when a Recorder is attached. Levels are peeled
// from the top: the durable store (or sliding window), the standalone
// write-ahead log, ConcurrentSbf with and without delta buffers, the
// per-shard SpectralBloomFilters, the shards' HashFamily, and bare
// CounterVectors.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/concurrent_sbf.h"
#include "core/sliding_window.h"
#include "core/spectral_bloom_filter.h"
#include "hashing/hash_family.h"
#include "io/delta_log.h"
#include "io/durable_store.h"
#include "sai/counter_vector.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

// Reports a harness failure (a store that cannot open, a log that cannot
// be created) on stderr and exits non-zero without printing a result.
[[noreturn]] void Die(const std::string& why);

class Target {
 public:
  virtual ~Target() = default;

  virtual void Insert(const uint64_t* keys, size_t n) = 0;
  // Only window_point removes; the other workloads' levels never see one.
  virtual void Remove(const uint64_t*, size_t) {
    Die("this level does not run removes");
  }
  // Writes one estimate per key; levels below the filter (log, hashing)
  // answer nothing and return false.
  virtual bool Estimate(const uint64_t* keys, size_t n, uint64_t* out) = 0;
  virtual void Checkpoint() {}
  virtual void Flush() {}

  // Whole-structure audit and accounting of the level's filter, when it
  // has one.
  [[nodiscard]] virtual sbf::Status CheckInvariants() const {
    return sbf::Status::Ok();
  }
  [[nodiscard]] virtual size_t MemoryBits() const { return 0; }

  void set_recorder(Recorder* rec) { rec_ = rec; }
  // Calls that returned a non-OK status.
  [[nodiscard]] uint64_t status_failures() const { return status_failures_; }

 protected:
  Recorder* rec_ = nullptr;
  uint64_t status_failures_ = 0;
};

// Level 0 of durable_ingest: DurableSbf with its default flush policy.
class DurableTarget final : public Target {
 public:
  DurableTarget(std::string dir, sbf::DurableOptions options);

  void Insert(const uint64_t* keys, size_t n) override;
  bool Estimate(const uint64_t* keys, size_t n, uint64_t* out) override;
  void Checkpoint() override;
  void Flush() override;
  [[nodiscard]] sbf::Status CheckInvariants() const override;
  [[nodiscard]] size_t MemoryBits() const override;

  // Closes the store (the destructor syncs the log; no checkpoint).
  void Close() { store_.reset(); }
  // Reopens the closed store, recovering it; returns the seconds Open took.
  double Reopen();
  [[nodiscard]] sbf::DurableSbf& store() { return *store_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  // Checkpoint plus log bytes written so far, across every generation.
  [[nodiscard]] uint64_t DiskBytes() const;

 private:
  std::string dir_;
  sbf::DurableOptions options_;
  std::unique_ptr<sbf::DurableSbf> store_;
  uint64_t written_bytes_ = 0;  // sealed logs and checkpoints written
};

// The write-ahead log alone: the same records framed with
// EncodeWalDeltaBatch and appended through a DeltaLogWriter, and synced at
// Flush, as DurableSbf with sync_each_append=false syncs in SyncLog().
class WalTarget final : public Target {
 public:
  WalTarget(const std::string& path, const sbf::ConcurrentSbfOptions& filter);

  void Insert(const uint64_t* keys, size_t n) override;
  bool Estimate(const uint64_t*, size_t, uint64_t*) override { return false; }
  void Flush() override;
  [[nodiscard]] uint64_t bytes_written() const { return writer_.bytes_written(); }

 private:
  sbf::io::DeltaLogWriter writer_;
  uint64_t next_sequence_ = 1;
};

// ConcurrentSbf, through its point or batch entry points.
class ConcurrentTarget final : public Target {
 public:
  ConcurrentTarget(const sbf::ConcurrentSbfOptions& options, bool point);

  void Insert(const uint64_t* keys, size_t n) override;
  void Remove(const uint64_t* keys, size_t n) override;
  bool Estimate(const uint64_t* keys, size_t n, uint64_t* out) override;
  // DurableSbf's checkpoint flushes the delta buffers first; at this level
  // that flush is what remains of it.
  void Checkpoint() override { Flush(); }
  void Flush() override;
  [[nodiscard]] sbf::Status CheckInvariants() const override {
    return filter_.CheckInvariants();
  }
  [[nodiscard]] size_t MemoryBits() const override {
    return filter_.MemoryUsageBits();
  }
  [[nodiscard]] const sbf::ConcurrentSbf& filter() const { return filter_; }

 private:
  sbf::ConcurrentSbf filter_;
  bool point_;
};

// Level 0 of window_point: SlidingWindowFilter over ConcurrentSbf. An
// Insert step is one Push (insert plus eviction remove); the stream's
// Remove steps are the evictions Push already made and cost nothing here.
class WindowTarget final : public Target {
 public:
  WindowTarget(const sbf::ConcurrentSbfOptions& options, size_t window_size);

  void Insert(const uint64_t* keys, size_t n) override;
  void Remove(const uint64_t*, size_t) override {}
  bool Estimate(const uint64_t* keys, size_t n, uint64_t* out) override;
  void Flush() override;
  [[nodiscard]] sbf::Status CheckInvariants() const override {
    return window_.CheckInvariants();
  }
  [[nodiscard]] size_t MemoryBits() const override {
    return inner_->MemoryUsageBits();
  }

 private:
  sbf::ConcurrentSbf* inner_;  // owned by window_
  sbf::SlidingWindowFilter window_;
};

// Routes keys the way ConcurrentSbf does (ShardOf) and groups a batch by
// shard; the routing itself is harness work, never timed.
class Router {
 public:
  explicit Router(const sbf::ConcurrentSbfOptions& options);
  [[nodiscard]] uint32_t num_shards() const { return num_shards_; }
  [[nodiscard]] uint32_t ShardOf(uint64_t key) const {
    return router_.ShardOf(key);
  }
  // Groups keys[0..n) by shard: shard s owns grouped[starts[s]..starts[s+1])
  // and order[j] is the input index of grouped[j].
  void Group(const uint64_t* keys, size_t n);
  std::vector<uint64_t> grouped;
  std::vector<uint32_t> order;
  std::vector<size_t> starts;

 private:
  uint32_t num_shards_;
  sbf::ConcurrentSbf router_;  // same seed and shard count, tiny m
};

// The per-shard SpectralBloomFilters ConcurrentSbf would build
// (ShardOptions), driven without the frontend's locks, atomics or buffers.
class ShardsTarget final : public Target {
 public:
  ShardsTarget(const sbf::ConcurrentSbfOptions& options, bool point);

  void Insert(const uint64_t* keys, size_t n) override;
  void Remove(const uint64_t* keys, size_t n) override;
  bool Estimate(const uint64_t* keys, size_t n, uint64_t* out) override;
  [[nodiscard]] sbf::Status CheckInvariants() const override;

 private:
  Router router_;
  std::vector<sbf::SpectralBloomFilter> shards_;
  std::vector<uint64_t> scratch_;
  bool point_;
};

// The shards' hash families alone: HashFamily::Positions for every key.
class HashTarget final : public Target {
 public:
  HashTarget(const sbf::ConcurrentSbfOptions& options, bool point);

  void Insert(const uint64_t* keys, size_t n) override {
    Hash(Call::kInsert, keys, n);
  }
  void Remove(const uint64_t* keys, size_t n) override {
    Hash(Call::kRemove, keys, n);
  }
  bool Estimate(const uint64_t* keys, size_t n, uint64_t*) override {
    Hash(Call::kEstimate, keys, n);
    return false;
  }
  [[nodiscard]] uint64_t sink() const { return sink_; }

 private:
  void Hash(Call call, const uint64_t* keys, size_t n);

  Router router_;
  std::vector<sbf::HashFamily> families_;
  uint64_t sink_ = 0;
  bool point_;
};

// Bare CounterVectors of the shards' backing, called as their concrete
// class and driven by the shards' HashFamily in the library batch kernels'
// hash-ahead and prefetch schedule: Minimum Selection increments or
// decrements every probed counter, Minimal Increase reads the probes and
// lifts the smallest, an estimate is the probes' minimum (stopping at a
// zero where the library's probe does). Hashing is part
// of every call, as it is of the fused kernels, so this level's cost
// includes the hash level's; the counters' own cost is the difference.
class CounterTarget final : public Target {
 public:
  CounterTarget(const sbf::ConcurrentSbfOptions& options, bool point);

  void Insert(const uint64_t* keys, size_t n) override;
  void Remove(const uint64_t* keys, size_t n) override;
  bool Estimate(const uint64_t* keys, size_t n, uint64_t* out) override;
  [[nodiscard]] size_t MemoryBits() const override;

 private:
  template <typename ProbeFn>
  void Pipeline(uint32_t shard, const uint64_t* keys, size_t n, ProbeFn&& probe);
  void Update(uint32_t shard, const uint64_t* keys, size_t n, bool remove);
  void Probe(uint32_t shard, const uint64_t* keys, size_t n, uint64_t* out);

  Router router_;
  std::vector<sbf::HashFamily> families_;
  std::vector<std::unique_ptr<sbf::CounterVector>> counters_;
  std::vector<uint64_t> scratch_;
  sbf::CounterBacking backing_;
  uint32_t k_;
  bool minimal_increase_;
  bool early_exit_;
  bool point_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TARGETS_H_
