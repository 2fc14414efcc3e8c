// Thread x shard scaling sweep for the concurrent sharded SBF frontend.
// Emits rows in the shared bench JSON schema (common/bench_json.h), one
// per line on stdout and collected into BENCH_concurrent_scaling.json.
//
// Harness discipline (the part this file exists to get right):
//
//  * Key streams are pre-partitioned into contiguous per-thread slices
//    BEFORE the clock starts, and workers feed raw-pointer chunks straight
//    into InsertBatch/EstimateBatch — no allocation, copying or slicing
//    arithmetic inside the timed region.
//  * Every worker runs its own Timer; the per-thread timings are
//    aggregated after the join (max = critical path, sum = total CPU).
//    The reported wall time spans thread creation through join, so thread
//    startup cost is on the books rather than hidden.
//  * Each (threads, shards) cell reports `speedup_vs_1t` against the
//    1-thread wall time of the same (backing, delta, shards) cell
//    (bench::SpeedupBaseline); scripts/check_scaling.py gates CI on the
//    8-thread fixed64+MS insert cell.
//
// The estimate phase queries a mixed stream: half known (Zipf-drawn) keys,
// half never-inserted probes, interleaved, so the branch profile covers
// both the hit and the early-exit miss path.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "core/concurrent_sbf.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

constexpr size_t kBatchChunk = 4096;

ConcurrentSbfOptions Options(CounterBacking backing, uint32_t shards,
                             bool delta) {
  ConcurrentSbfOptions options;
  options.m = 1 << 20;
  options.k = 5;
  options.backing = backing;
  options.num_shards = shards;
  options.seed = 7;
  options.delta.enabled = delta;
  return options;
}

// Contiguous slice bounds: thread t owns [starts[t], starts[t + 1]).
std::vector<size_t> SliceStarts(size_t n, int threads) {
  std::vector<size_t> starts(threads + 1);
  for (int t = 0; t <= threads; ++t) starts[t] = n * t / threads;
  return starts;
}

// Runs `threads` workers over pre-partitioned slices of `keys`, timing
// each worker independently. `work(begin, end)` processes one chunk.
// Returns wall seconds spanning create -> join; fills `timings`.
template <typename WorkFn>
double RunWorkers(const std::vector<uint64_t>& keys, int threads,
                  std::vector<bench::ThreadTiming>* timings, WorkFn&& work) {
  const std::vector<size_t> starts = SliceStarts(keys.size(), threads);
  timings->assign(threads, {});
  Timer wall;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Timer own;
      const uint64_t* base = keys.data();
      for (size_t at = starts[t]; at < starts[t + 1]; at += kBatchChunk) {
        const size_t stop = std::min(at + kBatchChunk, starts[t + 1]);
        work(base + at, stop - at);
      }
      (*timings)[t].seconds = own.ElapsedSeconds();
      (*timings)[t].ops = starts[t + 1] - starts[t];
    });
  }
  for (auto& w : workers) w.join();
  return wall.ElapsedSeconds();
}

void EmitRow(bench::BenchJson& json, bench::SpeedupBaseline& baselines,
             const std::string& op, CounterBacking backing, bool delta,
             int threads, uint32_t shards, size_t keys, double wall_seconds,
             const std::vector<bench::ThreadTiming>& timings) {
  const std::string cell = op + "/" + CounterBackingName(backing) +
                           (delta ? "/delta" : "/direct") +
                           "/S=" + std::to_string(shards);
  if (threads == 1) baselines.Set(cell, wall_seconds);
  const double mops = static_cast<double>(keys) / wall_seconds / 1e6;
  json.Add(op,
           {{"backing", CounterBackingName(backing)},
            {"delta", delta ? "on" : "off"},
            {"threads", threads},
            {"shards", static_cast<uint64_t>(shards)},
            {"keys", static_cast<uint64_t>(keys)},
            {"thread_seconds_max", bench::MaxSeconds(timings)},
            {"thread_seconds_sum", bench::SumSeconds(timings)},
            {"speedup_vs_1t", baselines.Speedup(cell, wall_seconds)}},
           wall_seconds / static_cast<double>(keys) * 1e9, mops);
}

// Half known keys, half never-inserted probes, interleaved.
std::vector<uint64_t> MixedQueries(const Multiset& data, size_t n,
                                   uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> queries(n);
  for (size_t i = 0; i < n; ++i) {
    queries[i] = (i % 2 == 0)
                     ? data.stream[rng.UniformInt(data.stream.size())]
                     : (rng.Next() | (uint64_t{1} << 63));
  }
  return queries;
}

void Sweep(bench::BenchJson& json, bench::SpeedupBaseline& baselines,
           CounterBacking backing, bool delta, size_t stream_len) {
  const Multiset data =
      MakeZipfMultiset(/*distinct=*/1 << 16, stream_len, 1.0, 11);
  const std::vector<uint64_t> queries =
      MixedQueries(data, stream_len, /*seed=*/13);
  std::vector<bench::ThreadTiming> timings;
  for (const uint32_t shards : {1u, 4u, 16u}) {
    for (const int threads : {1, 2, 4, 8}) {
      ConcurrentSbf filter(Options(backing, shards, delta));
      const double insert_wall = RunWorkers(
          data.stream, threads, &timings,
          [&filter](const uint64_t* chunk, size_t n) {
            filter.InsertBatch(chunk, n);
          });
      EmitRow(json, baselines, "insert_batch", backing, delta, threads,
              shards, data.stream.size(), insert_wall, timings);
      filter.Flush();
      const double estimate_wall = RunWorkers(
          queries, threads, &timings,
          [&filter](const uint64_t* chunk, size_t n) {
            uint64_t out[kBatchChunk];
            filter.EstimateBatch(chunk, n, out);
            uint64_t sink = 0;
            for (size_t i = 0; i < n; ++i) sink += out[i];
            asm volatile("" : : "r"(sink));
          });
      EmitRow(json, baselines, "estimate_batch", backing, delta, threads,
              shards, queries.size(), estimate_wall, timings);
    }
  }
}

}  // namespace
}  // namespace sbf

int main() {
  sbf::bench::BenchJson json("BENCH_concurrent_scaling.json");
  json.SetContext(sbf::bench::StandardContext());
  sbf::bench::SpeedupBaseline baselines;
  // fixed64 exercises the lock-free path — with and without the delta
  // buffers, so the write-combining win is measurable in isolation;
  // compact exercises the striped-lock path.
  sbf::Sweep(json, baselines, sbf::CounterBacking::kFixed64, /*delta=*/true,
             size_t{1} << 21);
  sbf::Sweep(json, baselines, sbf::CounterBacking::kFixed64, /*delta=*/false,
             size_t{1} << 21);
  sbf::Sweep(json, baselines, sbf::CounterBacking::kCompact, /*delta=*/true,
             size_t{1} << 19);
  return json.WriteFile() ? 0 : 1;
}
