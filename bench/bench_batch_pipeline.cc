// Batched vs scalar throughput for the hash-ahead + prefetch pipelines
// (core/batch_kernels.h) across the filter frontends and counter backings.
//
// For each configuration the scalar loop (Insert/Estimate per key) is the
// baseline; the batched run pushes the same keys through
// InsertBatch/EstimateBatch in chunks of the sweep's batch size. Filters
// are sized so the counter array is far larger than L2 (64 MiB for the
// fixed64 configuration) — the regime the pipeline targets, where every
// probe is a likely cache miss and hashing W keys ahead overlaps the
// misses. One more configuration, concurrent_mi_fixed64_s8_dram, is the
// perfbench dram_batch_mi geometry (2^28 fixed64 counters = 2 GiB, MI,
// 8 shards), where each probe is a DRAM miss and, without huge pages, a
// page walk too. Rows land in BENCH_batch_pipeline.json via the shared
// schema (common/bench_json.h); `speedup_vs_scalar` is in params. Every
// cell is the median of five repeats taken round robin across the cells
// of its sweep, with the min and max in its params.
//
// Usage: bench_batch_pipeline [--small]
//   --small: CI smoke configuration (filters fit in cache, seconds of
//   runtime; the speedups are not meaningful at this size; no DRAM row).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "core/concurrent_sbf.h"
#include "core/frequency_filter.h"
#include "core/spectral_bloom_filter.h"
#include "util/random.h"
#include "util/timer.h"

namespace sbf {
namespace {

constexpr size_t kBatchSizes[] = {64, 256, 1024, 4096};

struct Config {
  std::string name;
  uint64_t m;
  std::function<std::unique_ptr<FrequencyFilter>()> make;
};

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed) {
  std::vector<uint64_t> keys(n);
  Xoshiro256 rng(seed);
  for (auto& key : keys) key = rng.Next();
  return keys;
}

double TimeScalarInsert(FrequencyFilter& filter,
                        const std::vector<uint64_t>& keys) {
  Timer timer;
  for (uint64_t key : keys) filter.Insert(key);
  return timer.ElapsedSeconds();
}

double TimeBatchInsert(FrequencyFilter& filter,
                       const std::vector<uint64_t>& keys, size_t batch) {
  Timer timer;
  for (size_t at = 0; at < keys.size(); at += batch) {
    const size_t n = std::min(batch, keys.size() - at);
    filter.InsertBatch(keys.data() + at, n);
  }
  return timer.ElapsedSeconds();
}

double TimeScalarEstimate(const FrequencyFilter& filter,
                          const std::vector<uint64_t>& keys) {
  uint64_t sink = 0;
  Timer timer;
  for (uint64_t key : keys) sink += filter.Estimate(key);
  const double seconds = timer.ElapsedSeconds();
  asm volatile("" : : "r"(sink));
  return seconds;
}

double TimeBatchEstimate(const FrequencyFilter& filter,
                         const std::vector<uint64_t>& keys, size_t batch,
                         std::vector<uint64_t>* out) {
  uint64_t sink = 0;
  Timer timer;
  for (size_t at = 0; at < keys.size(); at += batch) {
    const size_t n = std::min(batch, keys.size() - at);
    filter.EstimateBatch(keys.data() + at, n, out->data());
    sink += (*out)[0];
  }
  const double seconds = timer.ElapsedSeconds();
  asm volatile("" : : "r"(sink));
  return seconds;
}

void Emit(bench::BenchJson& json, const std::string& config,
          const char* op, size_t batch, size_t keys,
          const bench::CellTiming& timing, double scalar_seconds) {
  std::vector<bench::BenchJson::Param> params = {
      {"config", config},
      {"batch", static_cast<uint64_t>(batch)},  // 0 = scalar baseline
      {"keys", static_cast<uint64_t>(keys)},
      {"speedup_vs_scalar", scalar_seconds / timing.median}};
  for (auto& param : bench::SpreadParams(timing, keys)) {
    params.push_back(std::move(param));
  }
  json.Add(op, params, timing.median / static_cast<double>(keys) * 1e9,
           static_cast<double>(keys) / timing.median / 1e6);
}

// Each cell (the scalar baseline and every batch size) is the median of
// five repeats taken round robin across the cells (bench::TimeInterleaved).
void RunConfig(bench::BenchJson& json, const Config& config,
               size_t num_keys) {
  const std::vector<uint64_t> fill = RandomKeys(num_keys, 0xF111);
  const std::vector<uint64_t> queries = RandomKeys(num_keys, 0x9E37);
  std::vector<uint64_t> out(num_keys < 4096 ? 4096 : num_keys);

  // --- estimate: one warm filter, scalar baseline, then the batch sweep.
  // Each filter is dropped before the next is made, so a 2 GiB
  // configuration holds one filter at a time.
  {
    auto filter = config.make();
    filter->InsertBatch(fill.data(), fill.size());
    std::vector<std::function<double()>> cells = {
        [&] { return TimeScalarEstimate(*filter, queries); }};
    for (size_t batch : kBatchSizes) {
      cells.push_back([&, batch] {
        return TimeBatchEstimate(*filter, queries, batch, &out);
      });
    }
    const auto timings = bench::TimeInterleaved(cells);
    Emit(json, config.name, "estimate", 0, queries.size(), timings[0],
         timings[0].median);
    for (size_t b = 0; b < std::size(kBatchSizes); ++b) {
      Emit(json, config.name, "estimate", kBatchSizes[b], queries.size(),
           timings[b + 1], timings[0].median);
    }
  }

  // --- insert: fresh filter per run so every run writes into the same
  // (empty) state.
  std::vector<std::function<double()>> cells = {
      [&] { return TimeScalarInsert(*config.make(), fill); }};
  for (size_t batch : kBatchSizes) {
    cells.push_back([&, batch] {
      auto batch_filter = config.make();
      return TimeBatchInsert(*batch_filter, fill, batch);
    });
  }
  const auto timings = bench::TimeInterleaved(cells);
  Emit(json, config.name, "insert", 0, fill.size(), timings[0],
       timings[0].median);
  for (size_t b = 0; b < std::size(kBatchSizes); ++b) {
    Emit(json, config.name, "insert", kBatchSizes[b], fill.size(),
         timings[b + 1], timings[0].median);
  }
}

SbfOptions Options(uint64_t m, SbfPolicy policy, CounterBacking backing) {
  SbfOptions options;
  options.m = m;
  options.k = 5;
  options.policy = policy;
  options.backing = backing;
  options.seed = 42;
  return options;
}

}  // namespace
}  // namespace sbf

int main(int argc, char** argv) {
  using namespace sbf;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }

  // Large: 2^23 counters (64 MiB of fixed64) — far out of cache, the
  // memory-bound regime the pipeline targets. Small: CI smoke only.
  const uint64_t m = small ? uint64_t{1} << 16 : uint64_t{1} << 23;
  const size_t num_keys = small ? size_t{1} << 15 : size_t{1} << 21;

  std::vector<Config> configs;
  configs.push_back(
      {"sbf_ms_fixed64", m, [m] {
         return std::make_unique<SpectralBloomFilter>(Options(
             m, SbfPolicy::kMinimumSelection, CounterBacking::kFixed64));
       }});
  configs.push_back(
      {"sbf_ms_fixed32", m, [m] {
         return std::make_unique<SpectralBloomFilter>(Options(
             m, SbfPolicy::kMinimumSelection, CounterBacking::kFixed32));
       }});
  configs.push_back(
      {"sbf_mi_fixed64", m, [m] {
         return std::make_unique<SpectralBloomFilter>(Options(
             m, SbfPolicy::kMinimalIncrease, CounterBacking::kFixed64));
       }});
  configs.push_back(
      {"sbf_ms_compact", m, [m] {
         return std::make_unique<SpectralBloomFilter>(Options(
             m, SbfPolicy::kMinimumSelection, CounterBacking::kCompact));
       }});
  configs.push_back(
      {"sbf_ms_serialscan", m, [m] {
         return std::make_unique<SpectralBloomFilter>(Options(
             m, SbfPolicy::kMinimumSelection, CounterBacking::kSerialScan));
       }});
  configs.push_back({"blocked_fixed64_b8", m, [m] {
                       SbfOptions options;
                       options.m = m;
                       options.k = 5;
                       // 8 x 64-bit counters: each key's probes in one
                       // cache line.
                       options.block_size = 8;
                       options.backing = CounterBacking::kFixed64;
                       options.seed = 42;
                       return std::make_unique<SpectralBloomFilter>(options);
                     }});
  // The counting Bloom filter [FCAB98]: 4-bit sticky counters.
  configs.push_back(
      {"cbf_4bit", m, [m] {
         return std::make_unique<SpectralBloomFilter>(Options(
             m, SbfPolicy::kMinimumSelection, CounterBacking::kSticky4));
       }});
  configs.push_back({"concurrent_fixed64_s16", m, [m] {
                       ConcurrentSbfOptions options;
                       options.m = m;
                       options.k = 5;
                       options.backing = CounterBacking::kFixed64;
                       options.num_shards = 16;
                       options.seed = 42;
                       return std::make_unique<ConcurrentSbf>(options);
                     }});
  if (!small) {
    // perfbench's dram_batch_mi filter: 2^28 fixed64 counters (2 GiB, ~7x
    // the L3), MI, 8 shards of 256 MiB, delta merges only at the size
    // threshold.
    constexpr uint64_t kDramM = uint64_t{1} << 28;
    configs.push_back({"concurrent_mi_fixed64_s8_dram", kDramM, [] {
                         ConcurrentSbfOptions options;
                         options.m = kDramM;
                         options.k = 5;
                         options.policy = SbfPolicy::kMinimalIncrease;
                         options.backing = CounterBacking::kFixed64;
                         options.num_shards = 8;
                         options.delta.max_epoch_micros = 0;
                         options.seed = 42;
                         return std::make_unique<ConcurrentSbf>(options);
                       }});
  }

  bench::BenchJson json("BENCH_batch_pipeline.json");
  // Every row carries the active SIMD ISA and build flags: the batched
  // fixed-width paths dispatch to the block kernels, so rows from the
  // generic-only and AVX2 CI legs are different measurements.
  json.SetContext(bench::StandardContext());
  for (const Config& config : configs) {
    std::printf("# %s (m=%llu, keys=%zu)\n", config.name.c_str(),
                static_cast<unsigned long long>(config.m), num_keys);
    RunConfig(json, config, num_keys);
  }
  return json.WriteFile() ? 0 : 1;
}
