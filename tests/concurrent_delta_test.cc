// Differential and stress suite for the epoch-merged delta-buffer write
// path of the sharded SBF frontend (core/delta_buffer.h). The ground rule
// under test: buffering must be invisible — N threads writing through the
// delta path converge (after Flush(), a join, or a whole-filter op) to the
// byte-exact state of the same multiset applied through the direct path,
// and estimates never under-report a completed insert even mid-epoch.
// Every test here must be race-clean under ThreadSanitizer (the dedicated
// tsan-concurrency CI leg runs this binary with -DSBF_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_sbf.h"
#include "core/delta_buffer.h"
#include "core/spectral_bloom_filter.h"
#include "io/wire.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

constexpr int kWriters = 8;
constexpr int kReaders = 8;

ConcurrentSbfOptions MakeDeltaOptions(CounterBacking backing,
                                      uint32_t num_shards,
                                      uint64_t seed = 42) {
  ConcurrentSbfOptions options;
  options.m = 8192;
  options.k = 4;
  options.policy = SbfPolicy::kMinimumSelection;
  options.backing = backing;
  options.num_shards = num_shards;
  options.seed = seed;
  options.delta.enabled = true;
  return options;
}

ConcurrentSbfOptions WithoutDelta(ConcurrentSbfOptions options) {
  options.delta.enabled = false;
  return options;
}

std::vector<size_t> SliceStarts(size_t n, int parts) {
  std::vector<size_t> starts(parts + 1);
  for (int i = 0; i <= parts; ++i) starts[i] = n * i / parts;
  return starts;
}

// Drives `data.stream` through `filter` with `kWriters` threads, odd
// writers batching and even writers issuing point inserts (both buffered
// paths are exercised and proven mutually race-clean).
void InsertConcurrently(ConcurrentSbf& filter, const Multiset& data) {
  const auto starts = SliceStarts(data.stream.size(), kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      if (w % 2 == 1) {
        std::vector<uint64_t> slice(data.stream.begin() + starts[w],
                                    data.stream.begin() + starts[w + 1]);
        filter.InsertBatch(slice);
      } else {
        for (size_t i = starts[w]; i < starts[w + 1]; ++i) {
          filter.Insert(data.stream[i]);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
}

class ConcurrentDeltaBackingTest
    : public ::testing::TestWithParam<CounterBacking> {};

std::string BackingName(const ::testing::TestParamInfo<CounterBacking>& info) {
  std::string name = CounterBackingName(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

TEST_P(ConcurrentDeltaBackingTest, ThreadedDeltaMatchesDirectPathAfterFlush) {
  // The differential heart of the suite: the delta path must be invisible.
  // Across shard counts, 8 threads buffering through delta maps must
  // converge to the byte-exact wire image of the direct (unbuffered) path
  // fed the same multiset serially.
  const Multiset data = MakeZipfMultiset(400, 20000, 1.0, 7);
  for (uint32_t num_shards : {1u, 4u, 16u}) {
    const auto options = MakeDeltaOptions(GetParam(), num_shards);
    ConcurrentSbf buffered(options);
    ConcurrentSbf direct(WithoutDelta(options));
    ASSERT_TRUE(buffered.IsDeltaBuffered());
    ASSERT_FALSE(direct.IsDeltaBuffered());
    direct.InsertBatch(data.stream);

    InsertConcurrently(buffered, data);
    buffered.Flush();
    EXPECT_EQ(buffered.PendingDeltaOps(), 0u) << num_shards << " shards";
    EXPECT_EQ(buffered.Serialize(), direct.Serialize())
        << num_shards << " shards";
    EXPECT_EQ(buffered.TotalItems(), data.stream.size());
    EXPECT_GT(buffered.metrics().Totals().delta_merges, 0u);
  }
}

TEST_P(ConcurrentDeltaBackingTest, TinyCapacityForcedMergesStayExact) {
  // A 64-slot map with a 16-key merge threshold forces both epoch triggers
  // (size threshold and map-full retry) thousands of times; the result
  // must still be byte-exact.
  auto options = MakeDeltaOptions(GetParam(), 4);
  options.delta.capacity = 64;
  options.delta.merge_keys = 16;
  const Multiset data = MakeZipfMultiset(500, 15000, 1.0, 13);
  ConcurrentSbf buffered(options);
  ConcurrentSbf direct(WithoutDelta(options));
  direct.InsertBatch(data.stream);

  InsertConcurrently(buffered, data);
  buffered.Flush();
  EXPECT_EQ(buffered.Serialize(), direct.Serialize());
}

TEST_P(ConcurrentDeltaBackingTest, SingleShardDeltaDegeneratesToPlainSbf) {
  // With one shard and one thread, the buffered frontend IS a plain SBF:
  // the self-drain discipline (estimates drain the caller's own buffer)
  // plus the flush-on-serialize boundary make the wire images identical.
  const auto options = MakeDeltaOptions(GetParam(), 1);
  ConcurrentSbf sharded(options);
  SpectralBloomFilter plain(ShardOptions(options, 0));
  const Multiset data = MakeZipfMultiset(200, 8000, 1.0, 17);
  for (uint64_t key : data.stream) {
    sharded.Insert(key);
    plain.Insert(key);
  }
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_EQ(sharded.Estimate(data.keys[i]), plain.Estimate(data.keys[i]));
  }
  EXPECT_EQ(sharded.SnapshotShard(0).Serialize(), plain.Serialize());
}

TEST_P(ConcurrentDeltaBackingTest, MinimalIncreaseBypassesDeltaBuffers) {
  // MI reads counters before lifting them — order-dependent updates cannot
  // be buffered commutatively — so the delta path must deactivate itself
  // even when explicitly enabled, and the pending tally must stay zero.
  auto options = MakeDeltaOptions(GetParam(), 4);
  options.policy = SbfPolicy::kMinimalIncrease;
  options.delta.enabled = true;
  ConcurrentSbf filter(options);
  EXPECT_FALSE(filter.IsDeltaBuffered());

  const Multiset data = MakeZipfMultiset(200, 8000, 1.0, 19);
  const auto starts = SliceStarts(data.stream.size(), kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = starts[w]; i < starts[w + 1]; ++i) {
        filter.Insert(data.stream[i]);
        ASSERT_EQ(filter.PendingDeltaOps(), 0u);
      }
    });
  }
  for (auto& t : writers) t.join();
  // One-sidedness still holds for insert-only MI streams.
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_GE(filter.Estimate(data.keys[i]), data.freqs[i]);
  }
}

TEST_P(ConcurrentDeltaBackingTest, ThreadExitDrainsWithoutExplicitFlush) {
  // A joined writer must leave nothing behind: the TLS destructor drains
  // its buffers into the shard counters, so after the join the estimates
  // are exact with no Flush() call anywhere.
  auto options = MakeDeltaOptions(GetParam(), 4);
  options.delta.merge_keys = 1u << 20;   // never size-triggered
  options.delta.max_epoch_micros = 0;    // never clock-triggered
  options.delta.capacity = 4096;
  ConcurrentSbf filter(options);
  const Multiset data = MakeZipfMultiset(100, 4000, 1.0, 23);
  std::thread writer([&] {
    for (uint64_t key : data.stream) filter.Insert(key);
  });
  writer.join();
  EXPECT_EQ(filter.PendingDeltaOps(), 0u);
  for (size_t i = 0; i < data.keys.size(); ++i) {
    ASSERT_GE(filter.Estimate(data.keys[i]), data.freqs[i]);
  }
  EXPECT_EQ(filter.TotalItems(), data.stream.size());
}

TEST_P(ConcurrentDeltaBackingTest, CrossThreadMidEpochEstimateIsOneSided) {
  // The core one-sided guarantee, deterministically: a writer buffers
  // inserts and parks WITHOUT merging (thresholds disabled); a different
  // thread — whose own buffers are empty — estimates. The pending tally
  // must cover the parked occurrences, so the estimate is >= the true
  // frequency even though no counter carries it yet.
  auto options = MakeDeltaOptions(GetParam(), 2);
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  options.delta.capacity = 1024;
  ConcurrentSbf filter(options);

  constexpr uint64_t kKey = 0xFEEDFACEull;
  constexpr uint64_t kTimes = 37;
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;  // 0: writer buffering, 1: reader may probe, 2: done
  std::thread writer([&] {
    for (uint64_t i = 0; i < kTimes; ++i) filter.Insert(kKey);
    {
      std::lock_guard<std::mutex> lock(mu);
      stage = 1;
    }
    cv.notify_all();
    // Park (keeping the thread alive so the TLS drain cannot run) until
    // the reader finished probing mid-epoch state.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage == 2; });
  });
  std::thread reader([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage == 1; });
    lock.unlock();
    EXPECT_GT(filter.PendingDeltaOps(), 0u);
    EXPECT_GE(filter.Estimate(kKey), kTimes);
    lock.lock();
    stage = 2;
    lock.unlock();
    cv.notify_all();
  });
  writer.join();
  reader.join();
  EXPECT_EQ(filter.PendingDeltaOps(), 0u);
  EXPECT_GE(filter.Estimate(kKey), kTimes);
}

TEST_P(ConcurrentDeltaBackingTest, MergeMidEpochObservesUnflushedDeltas) {
  // Regression for the latent bug this PR fixes: Merge() used to read the
  // operands' counters directly, silently dropping any deltas still
  // buffered mid-epoch. Merging with buffers full must now equal merging
  // the explicitly flushed filters.
  auto options = MakeDeltaOptions(GetParam(), 4);
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  options.delta.capacity = 4096;
  const Multiset left = MakeZipfMultiset(150, 6000, 1.0, 29);
  const Multiset right = MakeZipfMultiset(150, 6000, 1.0, 31);

  // Mid-epoch merge: both operands still hold every insert in buffers.
  ConcurrentSbf a(options), b(options);
  for (uint64_t key : left.stream) a.Insert(key);
  for (uint64_t key : right.stream) b.Insert(key);
  EXPECT_GT(a.PendingDeltaOps() + b.PendingDeltaOps(), 0u);
  ASSERT_TRUE(a.Merge(b).ok());

  // Flushed reference: same streams, explicit epoch boundary, then merge.
  ConcurrentSbf ra(options), rb(options);
  for (uint64_t key : left.stream) ra.Insert(key);
  for (uint64_t key : right.stream) rb.Insert(key);
  ra.Flush();
  rb.Flush();
  ASSERT_TRUE(ra.Merge(rb).ok());

  EXPECT_EQ(a.Serialize(), ra.Serialize());
  EXPECT_EQ(a.TotalItems(), left.stream.size() + right.stream.size());
}

TEST_P(ConcurrentDeltaBackingTest, HealthMidEpochObservesUnflushedDeltas) {
  // Health() must not report an empty filter while every insert sits in a
  // buffer: it drains first, so the fill scan sees the mid-epoch inserts.
  auto options = MakeDeltaOptions(GetParam(), 2);
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  options.delta.capacity = 4096;
  ConcurrentSbf filter(options);
  const Multiset data = MakeZipfMultiset(200, 5000, 1.0, 37);
  for (uint64_t key : data.stream) filter.Insert(key);
  EXPECT_GT(filter.PendingDeltaOps(), 0u);
  const FilterHealth health = filter.Health();
  EXPECT_GT(health.nonzero_counters, 0u);
  EXPECT_GT(health.fill_ratio, 0.0);
  // No writers are racing, so nothing was re-buffered during the drain.
  EXPECT_EQ(health.pending_delta_ops, 0u);
  EXPECT_EQ(filter.PendingDeltaOps(), 0u);
}

TEST_P(ConcurrentDeltaBackingTest, WritersAndReadersRaceMidEpoch) {
  // The TSan stress centerpiece: kWriters re-insert a pre-loaded multiset
  // through the delta path while kReaders hammer estimates. At EVERY
  // observation point an estimate must be >= the pre-loaded baseline
  // frequency (counters plus pending tally never under-report), and the
  // final state must again match the direct path byte for byte.
  const Multiset data = MakeZipfMultiset(256, 12000, 1.0, 41);
  const auto options = MakeDeltaOptions(GetParam(), 8);
  ConcurrentSbf filter(options);
  filter.InsertBatch(data.stream);
  filter.Flush();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t i = (local++ * 31 + static_cast<size_t>(r)) %
                         data.keys.size();
        if (filter.Estimate(data.keys[i]) < data.freqs[i]) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  InsertConcurrently(filter, data);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);

  filter.Flush();
  ConcurrentSbf direct(WithoutDelta(options));
  direct.InsertBatch(data.stream);
  direct.InsertBatch(data.stream);
  EXPECT_EQ(filter.Serialize(), direct.Serialize());
}

INSTANTIATE_TEST_SUITE_P(Backings, ConcurrentDeltaBackingTest,
                         ::testing::Values(CounterBacking::kFixed64,
                                           CounterBacking::kFixed32,
                                           CounterBacking::kCompact,
                                           CounterBacking::kSerialScan),
                         BackingName);

TEST(ConcurrentDeltaTest, LockFreeRemoveCancellationNetsOutInBuffer) {
  // Insert-then-remove of the same occurrences through one thread's buffer
  // nets to zero before any counter is touched; the flushed image equals a
  // filter that saw only the surviving inserts.
  auto options = MakeDeltaOptions(CounterBacking::kFixed64, 4);
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  options.delta.capacity = 4096;
  const Multiset data = MakeZipfMultiset(100, 3000, 1.0, 43);
  ConcurrentSbf buffered(options);
  ConcurrentSbf direct(WithoutDelta(options));
  for (uint64_t key : data.stream) buffered.Insert(key);
  // Remove one occurrence of every key, still buffered.
  for (uint64_t key : data.keys) buffered.Remove(key);
  buffered.Flush();
  direct.InsertBatch(data.stream);
  for (uint64_t key : data.keys) direct.Remove(key);
  EXPECT_EQ(buffered.Serialize(), direct.Serialize());
  EXPECT_EQ(buffered.TotalItems(), data.stream.size() - data.keys.size());
}

TEST(ConcurrentDeltaTest, ClampedBackingRemovesFlushThenApplyDirectly) {
  // On clamped backings removes are order-sensitive (a remove merged ahead
  // of its insert clamps at zero), so Remove() flushes every buffer first
  // and applies directly — including inserts still buffered by OTHER
  // threads, the exact interleaving that used to lose occurrences.
  auto options = MakeDeltaOptions(CounterBacking::kCompact, 4);
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  options.delta.capacity = 4096;
  const Multiset data = MakeZipfMultiset(100, 3000, 1.0, 47);
  ConcurrentSbf buffered(options);
  std::thread writer([&] {
    for (uint64_t key : data.stream) buffered.Insert(key);
  });
  writer.join();  // inserts drained by thread exit
  // Re-buffer a second copy from this thread, then remove mid-epoch: the
  // removes must observe both the drained and the still-buffered copies.
  for (uint64_t key : data.stream) buffered.Insert(key);
  for (uint64_t key : data.keys) buffered.Remove(key);
  buffered.Flush();

  ConcurrentSbf direct(WithoutDelta(options));
  direct.InsertBatch(data.stream);
  direct.InsertBatch(data.stream);
  for (uint64_t key : data.keys) direct.Remove(key);
  EXPECT_EQ(buffered.Serialize(), direct.Serialize());
  EXPECT_EQ(buffered.TotalItems(), 2 * data.stream.size() - data.keys.size());
}

TEST(ConcurrentDeltaTest, MoveCarriesBufferedStateAcrossInstances) {
  // Moving a filter re-points the delta registry: deltas buffered against
  // the source drain into the destination (moves flush first), and new
  // writes through the moved-to instance keep buffering.
  auto options = MakeDeltaOptions(CounterBacking::kFixed64, 2);
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  ConcurrentSbf source(options);
  for (uint64_t key = 1; key <= 64; ++key) source.Insert(key);
  ConcurrentSbf moved(std::move(source));
  EXPECT_TRUE(moved.IsDeltaBuffered());
  for (uint64_t key = 1; key <= 64; ++key) moved.Insert(key);
  moved.Flush();
  for (uint64_t key = 1; key <= 64; ++key) {
    ASSERT_GE(moved.Estimate(key), 2u) << "key " << key;
  }
  EXPECT_EQ(moved.TotalItems(), 128u);
}

TEST(ConcurrentDeltaTest, DeltaDisabledConfigTakesDirectPath) {
  auto options = MakeDeltaOptions(CounterBacking::kFixed64, 4);
  options.delta.enabled = false;
  ConcurrentSbf filter(options);
  EXPECT_FALSE(filter.IsDeltaBuffered());
  filter.Insert(1, 5);
  EXPECT_EQ(filter.PendingDeltaOps(), 0u);
  EXPECT_EQ(filter.Estimate(1), 5u);
  // Flush is a harmless no-op without buffers.
  filter.Flush();
  EXPECT_EQ(filter.Estimate(1), 5u);
}

TEST(ConcurrentDeltaTest, MetricsTrackMergesAndBufferedPeak) {
  auto options = MakeDeltaOptions(CounterBacking::kFixed64, 2);
  options.delta.capacity = 64;
  options.delta.merge_keys = 8;
  ConcurrentSbf filter(options);
  for (uint64_t key = 0; key < 512; ++key) filter.Insert(key);
  filter.Flush();
  const auto totals = filter.metrics().Totals();
  EXPECT_GT(totals.delta_merges, 0u);
  EXPECT_GT(totals.delta_merged_keys, 0u);
  EXPECT_GE(totals.delta_buffered_peak, 8u);
  EXPECT_EQ(totals.inserted_keys, 512u);
}

// The clamping (locked) backings buffer inserts only, and a net that
// would pass 2^64 - 1 merges the epoch instead of wrapping: two inserts of
// one key whose counts sum past 2^64 in one epoch reach the backing as two
// writes, which clamp at its MaxValue() and tally the clamp.
TEST(ConcurrentDeltaTest, LockedBackingNetsSaturateInsteadOfWrapping) {
  constexpr uint64_t kMax = ~uint64_t{0};
  for (const CounterBacking backing :
       {CounterBacking::kCompact, CounterBacking::kSerialScan,
        CounterBacking::kFixed32}) {
    auto options = MakeDeltaOptions(backing, 4);
    options.m = 2400;
    ConcurrentSbf filter(options);
    ASSERT_FALSE(filter.IsLockFree());
    filter.Insert(7, kMax - 40);
    filter.Insert(7, 100);
    const uint64_t max = filter.shard(filter.ShardOf(7)).counters().MaxValue();
    EXPECT_EQ(filter.Estimate(7), max) << CounterBackingName(backing);
    EXPECT_GT(filter.saturation().saturation_clamps, 0u)
        << CounterBackingName(backing);
  }
}

// Across threads: the pending tally a reader adds to a shard minimum
// saturates instead of wrapping, and Flush() applies two threads' nets of
// one key, which together pass 2^64 - 1, so that the backing clamps.
TEST(ConcurrentDeltaTest, CrossThreadCountsPastTwoToTheSixtyFourSaturate) {
  constexpr uint64_t kMax = ~uint64_t{0};
  constexpr uint64_t kKey = 7;
  auto options = MakeDeltaOptions(CounterBacking::kCompact, 4);
  options.m = 2400;
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  ConcurrentSbf filter(options);
  filter.Insert(kKey, 20);
  filter.Flush();

  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;
  const auto advance_to = [&](int next) {
    {
      std::lock_guard<std::mutex> lock(mu);
      stage = next;
    }
    cv.notify_all();
  };
  const auto wait_for = [&](int want) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage == want; });
  };
  // Each writer buffers its insert, then parks (so the thread-exit drain
  // cannot run) until the main thread is done.
  std::thread first([&] {
    filter.Insert(kKey, kMax - 10);
    advance_to(1);
    wait_for(4);
  });
  wait_for(1);
  // 20 flushed plus 2^64 - 11 buffered by another thread.
  EXPECT_EQ(filter.Estimate(kKey), kMax);
  std::thread second([&] {
    wait_for(2);
    filter.Insert(kKey, 100);
    advance_to(3);
    wait_for(4);
  });
  advance_to(2);
  wait_for(3);
  filter.Flush();
  EXPECT_EQ(filter.PendingDeltaOps(), 0u);
  EXPECT_EQ(filter.Estimate(kKey), kMax);
  EXPECT_GT(filter.saturation().saturation_clamps, 0u);
  advance_to(4);
  first.join();
  second.join();
}

// The shard pending tally saturates instead of wrapping: two parked
// threads buffer inserts into one shard whose counts sum past 2^64 - 1.
// The second slice cannot be covered, so it is written directly; a third
// thread's estimate of the first key still covers its parked occurrences,
// and every reservation is released once the writers exit.
TEST(ConcurrentDeltaTest, PendingTallySaturatesAcrossParkedThreads) {
  constexpr uint64_t kMax = ~uint64_t{0};
  auto options = MakeDeltaOptions(CounterBacking::kCompact, 4, /*seed=*/0);
  options.m = 2400;
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  ConcurrentSbf filter(options);
  ASSERT_EQ(filter.ShardOf(7), filter.ShardOf(8));

  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool release = false;
  const auto park = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++parked;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  std::thread first([&] {
    filter.Insert(7, kMax - 40);
    park();
  });
  std::thread second([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return parked == 1; });
    }
    filter.Insert(8, 100);
    park();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == 2; });
  }
  EXPECT_GE(filter.Estimate(7), kMax - 40);
  EXPECT_GE(filter.Estimate(8), 100u);
  EXPECT_GE(filter.PendingDeltaOps(), kMax - 40);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  first.join();
  second.join();
  EXPECT_EQ(filter.PendingDeltaOps(), 0u);
  EXPECT_GE(filter.Estimate(7), kMax - 40);
  EXPECT_GE(filter.Estimate(8), 100u);
}

// The pending total saturates like each shard's tally: one parked thread
// buffered 2^63 occurrences into each of two shards, whose tallies sum to
// 2^64, and PendingDeltaOps() reads 2^64 - 1 rather than a wrapped 0.
TEST(ConcurrentDeltaTest, PendingDeltaOpsSaturatesAcrossShards) {
  constexpr uint64_t kHalf = uint64_t{1} << 63;
  auto options = MakeDeltaOptions(CounterBacking::kCompact, 2);
  options.m = 2400;
  options.delta.merge_keys = 1u << 20;
  options.delta.max_epoch_micros = 0;
  ConcurrentSbf filter(options);
  const uint64_t a = 1;
  uint64_t b = 2;
  while (filter.ShardOf(b) == filter.ShardOf(a)) ++b;

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  std::thread writer([&] {
    filter.Insert(a, kHalf);
    filter.Insert(b, kHalf);
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  EXPECT_EQ(filter.PendingDeltaOps(), ~uint64_t{0});
  EXPECT_GE(filter.Estimate(a), kHalf);
  EXPECT_GE(filter.Estimate(b), kHalf);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  writer.join();
  EXPECT_EQ(filter.PendingDeltaOps(), 0u);
}

// The N recorded in each shard frame embedded in an 'SBcs' frame.
std::vector<uint64_t> FrameShardItems(const std::vector<uint8_t>& frame) {
  auto reader = wire::OpenFrame(frame, wire::kMagicShardedSbf,
                                wire::kFormatVersion, "sharded SBF");
  EXPECT_TRUE(reader.ok());
  if (!reader.ok()) return {};
  wire::Reader& in = reader.value();
  const uint64_t num_shards = in.ReadVarint();
  (void)in.ReadVarint();  // m
  (void)in.ReadU64();     // seed
  std::vector<uint64_t> items;
  for (uint64_t s = 0; s < num_shards; ++s) {
    auto shard = SpectralBloomFilter::Deserialize(in.ReadFrameSpan());
    EXPECT_TRUE(shard.ok()) << "shard " << s;
    if (!shard.ok()) return {};
    items.push_back(shard.value().total_items());
  }
  return items;
}

// Removing occurrences that were never inserted breaks the Remove
// contract, but the item count must still read as an empty filter, not
// ~2^64, on the lock-free arm (fixed64 MS) as on the locked ones (compact
// MS, fixed64 MI), with delta buffering on and off.
TEST(ConcurrentDeltaTest, OverRemoveReadsZeroItemsOnEveryArm) {
  const struct {
    CounterBacking backing;
    SbfPolicy policy;
  } arms[] = {{CounterBacking::kFixed64, SbfPolicy::kMinimumSelection},
              {CounterBacking::kCompact, SbfPolicy::kMinimumSelection},
              {CounterBacking::kFixed64, SbfPolicy::kMinimalIncrease}};
  for (const auto& arm : arms) {
    for (const bool delta : {true, false}) {
      auto options = MakeDeltaOptions(arm.backing, 4);
      options.policy = arm.policy;
      options.delta.enabled = delta;
      ConcurrentSbf filter(options);
      const std::string label =
          std::string(CounterBackingName(arm.backing)) +
          (arm.policy == SbfPolicy::kMinimumSelection ? "/MS" : "/MI") +
          (delta ? " delta" : " direct");
      filter.Remove(1, 5);
      EXPECT_EQ(filter.TotalItems(), 0u) << label;
      EXPECT_EQ(filter.SnapshotShard(filter.ShardOf(1)).total_items(), 0u)
          << label;
      for (const uint64_t items : FrameShardItems(filter.Serialize())) {
        EXPECT_EQ(items, 0u) << label;
      }
    }
  }
}

// A shard's item count is its insert tally minus its remove tally, each
// held at 2^64 - 1: a shard holding 2^63 or more net occurrences reads
// them all (a signed net would read 0), and 2^64 or more saturates.
TEST(ConcurrentDeltaTest, ItemCountReachesTwoToTheSixtyThree) {
  constexpr uint64_t kHalf = uint64_t{1} << 63;
  for (const CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    for (const bool delta : {true, false}) {
      auto options = MakeDeltaOptions(backing, 4);
      options.delta.enabled = delta;
      ConcurrentSbf filter(options);
      const std::string label = std::string(CounterBackingName(backing)) +
                                (delta ? " delta" : " direct");
      filter.Insert(1, kHalf);
      EXPECT_EQ(filter.TotalItems(), kHalf) << label;
      EXPECT_EQ(filter.SnapshotShard(filter.ShardOf(1)).total_items(), kHalf)
          << label;
      uint64_t framed = 0;
      for (const uint64_t items : FrameShardItems(filter.Serialize())) {
        framed += items;
      }
      EXPECT_EQ(framed, kHalf) << label;
      filter.Insert(1, kHalf);
      EXPECT_EQ(filter.TotalItems(), ~uint64_t{0}) << label;
    }
  }
}

// Flush() drains each thread's buffers while its writers keep buffering:
// once the writers join, the item count is the exact net and the frame
// equals a serially built reference byte for byte. Removes ride along on
// the lock-free arm, the only one that buffers them.
TEST(ConcurrentDeltaTest, FlushRacingWritersKeepsExactNet) {
  constexpr int kRacers = 4;
  const Multiset data = MakeZipfMultiset(200, 8000, 1.0, 53);
  for (const CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    auto options = MakeDeltaOptions(backing, 4);
    options.delta.capacity = 64;
    options.delta.merge_keys = 32;
    ConcurrentSbf filter(options);
    ConcurrentSbf reference(WithoutDelta(options));
    const bool removes = filter.IsLockFree();

    const auto starts = SliceStarts(data.stream.size(), kRacers);
    std::atomic<int> running{kRacers};
    std::vector<std::thread> threads;
    for (int w = 0; w < kRacers; ++w) {
      threads.emplace_back([&, w] {
        const std::vector<uint64_t> slice(data.stream.begin() + starts[w],
                                          data.stream.begin() + starts[w + 1]);
        for (size_t i = 0; i < slice.size(); ++i) {
          filter.Insert(slice[i]);
          // Remove every fourth occurrence this thread inserted.
          if (removes && i % 4 == 3) filter.Remove(slice[i]);
        }
        running.fetch_sub(1, std::memory_order_release);
      });
    }
    threads.emplace_back([&] {
      while (running.load(std::memory_order_acquire) > 0) {
        filter.Flush();
        (void)filter.Estimate(data.keys[0]);
      }
    });
    for (auto& t : threads) t.join();

    uint64_t net = 0;
    for (int w = 0; w < kRacers; ++w) {
      for (size_t i = starts[w]; i < starts[w + 1]; ++i) {
        reference.Insert(data.stream[i]);
        ++net;
        if (removes && (i - starts[w]) % 4 == 3) {
          reference.Remove(data.stream[i]);
          --net;
        }
      }
    }
    EXPECT_EQ(filter.TotalItems(), net) << CounterBackingName(backing);
    EXPECT_EQ(filter.PendingDeltaOps(), 0u) << CounterBackingName(backing);
    EXPECT_EQ(filter.Serialize(), reference.Serialize())
        << CounterBackingName(backing);
  }
}

// Pins the per-thread clamp: the default 1024-slot maps shrink only once
// num_shards * capacity * 17 B would pass 4 MiB per writing thread, and
// merge_keys follows at capacity / 2. A writing thread's footprint is its
// keys and nets plus one occupancy bit per slot, counted in whole words.
TEST(ConcurrentDeltaTest, ClampedGeometryAndFootprintPerShardCount) {
  const struct {
    uint32_t num_shards;
    uint32_t capacity;
    uint32_t merge_keys;
  } cases[] = {{1, 1024, 512}, {8, 1024, 512}, {256, 512, 256},
               {4096, 32, 16}};
  for (const auto& c : cases) {
    auto options = MakeDeltaOptions(CounterBacking::kFixed64, c.num_shards);
    options.m = 1 << 16;
    ConcurrentSbf filter(options);
    EXPECT_EQ(filter.options().delta.capacity, c.capacity)
        << "num_shards " << c.num_shards;
    EXPECT_EQ(filter.options().delta.merge_keys, c.merge_keys)
        << "num_shards " << c.num_shards;

    const size_t before = filter.MemoryUsageBits();
    filter.Insert(1);  // registers this thread's DeltaSet
    const size_t set_bits = filter.MemoryUsageBits() - before;
    const size_t shards = c.num_shards;
    const size_t slots = shards * c.capacity;
    const size_t bytes = slots * 2 * sizeof(uint64_t) +
                         shards * DeltaBitmapWords(c.capacity) *
                             sizeof(uint64_t) +
                         shards * (sizeof(DeltaSet::ShardState) +
                                   sizeof(uint64_t) + sizeof(uint32_t));
    EXPECT_EQ(set_bits, 8 * bytes) << "num_shards " << c.num_shards;
  }
}

}  // namespace
}  // namespace sbf
