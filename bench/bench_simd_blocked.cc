// Per-ISA throughput of the SIMD block kernels (core/simd_kernels.h) on
// the single-cache-line blocked SBF geometries, against the scalar batch
// pipeline as baseline.
//
// For each {regime, geometry, policy} cell the kDisabled run — kernels
// off, the legacy scalar hash-ahead pipeline — is the baseline; the same
// keys then run with each supported ISA forced (generic, AVX2) and
// every row's `speedup_vs_scalar_pipeline` is baseline-seconds / own-
// seconds. Two regimes: `hot` (m = 2^16, counters L2-resident — the
// compute-bound regime where vectorization shows) and `dram` (m = 2^23,
// every block a likely cache miss — the memory-bound regime, where the
// kernels mostly cut instruction count). scripts/check_simd.py gates CI
// on the hot-regime AVX2 estimate rows.
//
// Rows land in BENCH_simd_blocked.json via the shared schema
// (common/bench_json.h): per-row `isa` param + compiler-flag context.
//
// Usage: bench_simd_blocked [--small]
//   --small: CI smoke configuration (hot regime only, fewer keys).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "core/simd_kernels.h"
#include "core/spectral_bloom_filter.h"
#include "util/random.h"
#include "util/timer.h"

namespace sbf {
namespace {

constexpr size_t kBatch = 1024;
// Each measurement is the best of this many timed trials: the min is the
// right estimator under one-sided scheduler/interference noise, and the
// speedup gate (scripts/check_simd.py) needs stable ratios.
constexpr int kTrials = 5;

struct Geometry {
  const char* name;
  CounterBacking backing;
  uint64_t block_size;
};

struct Regime {
  const char* name;
  uint64_t m;
  size_t num_keys;
  int reps;  // timed passes over the key set (hot regime needs several)
};

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed) {
  std::vector<uint64_t> keys(n);
  Xoshiro256 rng(seed);
  for (auto& key : keys) key = rng.Next();
  return keys;
}

SpectralBloomFilter MakeFilter(const Geometry& g, SbfPolicy policy,
                               uint64_t m) {
  SbfOptions options;
  options.m = m;
  options.block_size = g.block_size;
  options.k = 5;
  options.seed = 42;
  options.backing = g.backing;
  options.policy = policy;
  return SpectralBloomFilter(options);
}

// One timed estimate pass (reps sweeps over the key set).
double TimeEstimate(const SpectralBloomFilter& filter,
                    const std::vector<uint64_t>& keys, int reps,
                    std::vector<uint64_t>* out) {
  uint64_t sink = 0;
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (size_t at = 0; at < keys.size(); at += kBatch) {
      const size_t n = std::min(kBatch, keys.size() - at);
      filter.EstimateBatch(keys.data() + at, n, out->data());
      sink += (*out)[0];
    }
  }
  const double seconds = timer.ElapsedSeconds();
  asm volatile("" : : "r"(sink));
  return seconds;
}

// One timed insert pass. Later trials re-insert the same keys on grown
// counters — identical probe work, so passes stay comparable.
double TimeInsert(SpectralBloomFilter& filter,
                  const std::vector<uint64_t>& keys, int reps) {
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (size_t at = 0; at < keys.size(); at += kBatch) {
      const size_t n = std::min(kBatch, keys.size() - at);
      filter.InsertBatch(keys.data() + at, n);
    }
  }
  return timer.ElapsedSeconds();
}

void Emit(bench::BenchJson& json, const char* op, const Regime& regime,
          const Geometry& g, const char* policy, simd::Isa isa,
          double seconds, double scalar_seconds, uint64_t ops) {
  json.Add(op,
           {{"regime", regime.name},
            {"shape", g.name},
            {"policy", policy},
            {"isa", simd::IsaName(isa)},
            {"m", regime.m},
            {"keys", static_cast<uint64_t>(regime.num_keys)},
            {"speedup_vs_scalar_pipeline", scalar_seconds / seconds}},
           seconds / static_cast<double>(ops) * 1e9,
           static_cast<double>(ops) / seconds / 1e6);
}

void RunCell(bench::BenchJson& json, const Regime& regime, const Geometry& g,
             SbfPolicy policy, const std::vector<simd::Isa>& isas) {
  const char* policy_name =
      policy == SbfPolicy::kMinimumSelection ? "ms" : "mi";
  const std::vector<uint64_t> fill = RandomKeys(regime.num_keys, 0xF111);
  const std::vector<uint64_t> queries = RandomKeys(regime.num_keys, 0x9E37);
  std::vector<uint64_t> out(kBatch);
  const uint64_t ops =
      static_cast<uint64_t>(regime.num_keys) * regime.reps;

  // Paired measurement: each trial times every ISA back to back, and each
  // ISA keeps its best trial. Interference that would skew a ratio when
  // baseline and kernel run seconds apart hits adjacent samples instead,
  // and min-of-trials discards it from both sides of the ratio.
  struct IsaRun {
    simd::Isa isa;
    SpectralBloomFilter filter;
    double insert_s = 0.0;
    double estimate_s = 0.0;
  };
  std::vector<IsaRun> runs;
  runs.reserve(isas.size());
  for (simd::Isa isa : isas) {
    runs.push_back({isa, MakeFilter(g, policy, regime.m)});
  }
  for (int trial = 0; trial < kTrials; ++trial) {
    for (IsaRun& run : runs) {
      simd::ForceIsa(run.isa);
      const double s = TimeInsert(run.filter, fill, regime.reps);
      if (trial == 0 || s < run.insert_s) run.insert_s = s;
    }
  }
  for (int trial = 0; trial < kTrials; ++trial) {
    for (IsaRun& run : runs) {
      simd::ForceIsa(run.isa);
      const double s = TimeEstimate(run.filter, queries, regime.reps, &out);
      if (trial == 0 || s < run.estimate_s) run.estimate_s = s;
    }
  }
  // runs[0] is kDisabled: the scalar-pipeline baseline.
  for (const IsaRun& run : runs) {
    Emit(json, "insert", regime, g, policy_name, run.isa, run.insert_s,
         runs[0].insert_s, ops);
    Emit(json, "estimate", regime, g, policy_name, run.isa, run.estimate_s,
         runs[0].estimate_s, ops);
  }
}

}  // namespace
}  // namespace sbf

int main(int argc, char** argv) {
  using namespace sbf;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }

  std::vector<Regime> regimes;
  if (small) {
    regimes.push_back({"hot", uint64_t{1} << 16, size_t{1} << 14, 8});
  } else {
    regimes.push_back({"hot", uint64_t{1} << 16, size_t{1} << 16, 64});
    regimes.push_back({"dram", uint64_t{1} << 23, size_t{1} << 21, 2});
  }

  const Geometry geometries[] = {
      {"fixed64_b8", CounterBacking::kFixed64, 8},
      {"fixed32_b16", CounterBacking::kFixed32, 16},
  };

  // kDisabled (the scalar-pipeline baseline) first, then every variant
  // this build + host can execute.
  std::vector<simd::Isa> isas = {simd::Isa::kDisabled};
  for (simd::Isa isa : {simd::Isa::kGeneric, simd::Isa::kAvx2}) {
    if (simd::IsaSupported(isa)) isas.push_back(isa);
  }

  bench::BenchJson json("BENCH_simd_blocked.json");
  json.SetContext(bench::StandardContext(/*with_isa=*/false));
  for (const Regime& regime : regimes) {
    for (const Geometry& g : geometries) {
      for (SbfPolicy policy :
           {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
        std::printf("# %s %s %s\n", regime.name, g.name,
                    policy == SbfPolicy::kMinimumSelection ? "ms" : "mi");
        RunCell(json, regime, g, policy, isas);
      }
    }
  }
  simd::ForceIsa(simd::BestSupportedIsa());
  return json.WriteFile() ? 0 : 1;
}
