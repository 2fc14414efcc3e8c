// Shard-contention microbench: isolates WHERE the cycles go when several
// threads hammer the concurrent frontend — metadata coherence traffic vs
// actual counter contention — so a scaling regression in
// bench_concurrent_scaling can be attributed instead of guessed at.
// perf-friendly: each mode is a single tight loop per thread (annotate
// with `perf record -e cache-misses`), emitting one JSON row per
// (mode, threads) cell into BENCH_shard_contention.json.
//
// Modes:
//   counters_shared_line — fetch_adds on adjacent words of ONE cache line
//                          (the worst case padding exists to avoid);
//   counters_padded      — fetch_adds on 64-byte-strided words (what the
//                          per-shard counter arrays actually look like);
//   metadata_shared      — op tallies in an unpadded atomic array (the
//                          false-sharing layout ShardMetrics replaced);
//   metadata_padded      — op tallies through ShardMetrics' padded cells;
//   insert_direct        — ConcurrentSbf inserts, delta buffers off: every
//                          op touches the shard's shared atomics/locks;
//   insert_delta         — same keys through the delta buffers: shared
//                          state is touched once per epoch, not per op;
//   point_window_delta   — one thread, the paper's sliding-window step
//                          (§6.2): Insert, the evicting Remove, then a
//                          point Estimate, through the delta buffers, so
//                          nearly every Estimate drains the thread's own
//                          buffered ops for its shard (read-your-writes);
//   point_window_direct  — the same steps with delta buffers off.
//
// All insert modes route EVERY key to shard 0 of an 8-shard filter — the
// adversarial single-hot-shard trace — so the numbers bound contention,
// not shard parallelism. The point_window modes route naturally (ShardOf)
// and report ns per step; scripts/check_drain.py gates delta against
// direct.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "core/concurrent_sbf.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/zipf.h"

namespace sbf {
namespace {

constexpr size_t kOpsPerThread = 1 << 18;
constexpr size_t kSlots = 8;  // distinct words the threads spread over
// point_window modes: occurrences in the window, and the Zipf(1.0) key
// universe the steps draw from.
constexpr size_t kWindow = 1 << 15;
constexpr uint64_t kWindowUniverse = 1 << 18;

struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};
};

// Runs `threads` workers over `fn(thread_index)`, returns wall seconds.
template <typename Fn>
double RunThreads(int threads, Fn&& fn) {
  Timer wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) workers.emplace_back([&fn, t] { fn(t); });
  for (auto& w : workers) w.join();
  return wall.ElapsedSeconds();
}

void Emit(bench::BenchJson& json, bench::SpeedupBaseline& baselines,
          const std::string& mode, int threads, double wall_seconds) {
  const uint64_t total_ops = kOpsPerThread * static_cast<uint64_t>(threads);
  if (threads == 1) baselines.Set(mode, wall_seconds);
  json.Add("shard_contention",
           {{"mode", mode},
            {"threads", threads},
            {"ops", total_ops},
            {"speedup_vs_1t", baselines.Speedup(mode, wall_seconds)}},
           wall_seconds / static_cast<double>(total_ops) * 1e9,
           static_cast<double>(total_ops) / wall_seconds / 1e6);
}

void BenchCountersSharedLine(bench::BenchJson& json,
                             bench::SpeedupBaseline& baselines, int threads) {
  // kSlots adjacent words: every fetch_add bounces the same line between
  // the contending cores.
  auto words = std::make_unique<std::atomic<uint64_t>[]>(kSlots);
  const double wall = RunThreads(threads, [&](int t) {
    std::atomic<uint64_t>& word = words[static_cast<size_t>(t) % kSlots];
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      word.fetch_add(1, std::memory_order_relaxed);
    }
  });
  Emit(json, baselines, "counters_shared_line", threads, wall);
}

void BenchCountersPadded(bench::BenchJson& json,
                         bench::SpeedupBaseline& baselines, int threads) {
  auto cells = std::make_unique<PaddedCounter[]>(kSlots);
  const double wall = RunThreads(threads, [&](int t) {
    std::atomic<uint64_t>& word = cells[static_cast<size_t>(t) % kSlots].value;
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      word.fetch_add(1, std::memory_order_relaxed);
    }
  });
  Emit(json, baselines, "counters_padded", threads, wall);
}

void BenchMetadataShared(bench::BenchJson& json,
                         bench::SpeedupBaseline& baselines, int threads) {
  // The layout ShardMetrics replaced: per-shard tallies packed back to
  // back, so two shards' counters share a line and independent threads
  // false-share.
  auto tallies = std::make_unique<std::atomic<uint64_t>[]>(kSlots);
  const double wall = RunThreads(threads, [&](int t) {
    const size_t shard = static_cast<size_t>(t) % kSlots;
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      tallies[shard].fetch_add(1, std::memory_order_relaxed);
    }
  });
  Emit(json, baselines, "metadata_shared", threads, wall);
}

void BenchMetadataPadded(bench::BenchJson& json,
                         bench::SpeedupBaseline& baselines, int threads) {
  ShardMetrics metrics(kSlots);
  const double wall = RunThreads(threads, [&](int t) {
    const size_t shard = static_cast<size_t>(t) % kSlots;
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      metrics.RecordInsert(shard, 1);
    }
  });
  Emit(json, baselines, "metadata_padded", threads, wall);
}

void BenchInsert(bench::BenchJson& json, bench::SpeedupBaseline& baselines,
                 int threads, bool delta) {
  ConcurrentSbfOptions options;
  options.m = 1 << 18;
  options.k = 5;
  options.backing = CounterBacking::kFixed64;
  options.num_shards = 8;
  options.seed = 17;
  options.delta.enabled = delta;
  ConcurrentSbf filter(options);

  // Single hot shard: rejection-sample keys until all route to shard 0.
  Xoshiro256 rng(23);
  std::vector<uint64_t> keys;
  keys.reserve(kOpsPerThread);
  while (keys.size() < kOpsPerThread) {
    const uint64_t key = rng.Next();
    if (filter.ShardOf(key) == 0) keys.push_back(key);
  }

  const double wall = RunThreads(threads, [&](int t) {
    // Each thread walks the hot-shard keys at its own offset so the
    // threads collide on the shard, not on one single key's counters.
    const size_t offset = static_cast<size_t>(t) * 7919;
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      filter.Insert(keys[(i + offset) % keys.size()]);
    }
  });
  filter.Flush();
  Emit(json, baselines, delta ? "insert_delta" : "insert_direct", threads,
       wall);
}

void BenchPointWindow(bench::BenchJson& json,
                      bench::SpeedupBaseline& baselines, bool delta) {
  ConcurrentSbfOptions options;
  options.m = 1 << 17;
  options.k = 5;
  options.backing = CounterBacking::kFixed64;
  options.num_shards = 8;
  options.seed = 17;
  options.delta.enabled = delta;
  ConcurrentSbf filter(options);

  // pushed[] is the window FIFO: step t pushes pushed[kWindow + t], evicts
  // pushed[t] and queries queries[t], an occurrence still in the window.
  Xoshiro256 rng(29);
  const ZipfDistribution zipf(kWindowUniverse, 1.0);
  std::vector<uint64_t> pushed(kWindow + kOpsPerThread);
  for (uint64_t& key : pushed) key = zipf.Sample(rng);
  std::vector<uint64_t> queries(kOpsPerThread);
  for (size_t t = 0; t < kOpsPerThread; ++t) {
    queries[t] = pushed[t + 1 + rng.UniformInt(kWindow)];
  }
  for (size_t i = 0; i < kWindow; ++i) filter.Insert(pushed[i]);

  uint64_t sink = 0;
  const double wall = RunThreads(1, [&](int) {
    for (size_t t = 0; t < kOpsPerThread; ++t) {
      filter.Insert(pushed[kWindow + t]);
      filter.Remove(pushed[t]);
      sink += filter.Estimate(queries[t]);
    }
  });
  filter.Flush();
  if (sink == 0) std::fprintf(stderr, "point_window: empty estimates\n");
  Emit(json, baselines, delta ? "point_window_delta" : "point_window_direct",
       1, wall);
}

}  // namespace
}  // namespace sbf

int main() {
  sbf::bench::BenchJson json("BENCH_shard_contention.json");
  json.SetContext(sbf::bench::StandardContext());
  sbf::bench::SpeedupBaseline baselines;
  for (const int threads : {1, 2, 4, 8}) {
    sbf::BenchCountersSharedLine(json, baselines, threads);
    sbf::BenchCountersPadded(json, baselines, threads);
    sbf::BenchMetadataShared(json, baselines, threads);
    sbf::BenchMetadataPadded(json, baselines, threads);
    sbf::BenchInsert(json, baselines, threads, /*delta=*/false);
    sbf::BenchInsert(json, baselines, threads, /*delta=*/true);
  }
  sbf::BenchPointWindow(json, baselines, /*delta=*/false);
  sbf::BenchPointWindow(json, baselines, /*delta=*/true);
  return json.WriteFile() ? 0 : 1;
}
