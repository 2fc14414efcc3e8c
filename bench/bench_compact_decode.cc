// Grouped-backing decode economics (the "close the compact-backing gap"
// ROADMAP item): what a compact-backed batch estimate costs now that
// PositionOf is O(1) (sampled prefix offsets plus a short width walk) and
// the batch pipeline prefetches each probe's widths and payload, against
// (a) the current scalar path and (b) a faithful replica of the
// pre-refactor per-access path that re-scanned the group's widths on
// every probe. Also times the full-vector DecodeBlock sweep vs a scalar
// Get sweep and the epoch-apply flush path vs scalar inserts.
//
// Emits BENCH_compact_decode.json; scripts/check_compact.py gates the
// `speedup_vs_per_access` param of the compact batched-estimate row. The
// per-access replica and the batched estimate are timed in kRepetitions
// interleaved pairs and the param is the median of the pair ratios, so a
// burst of host noise in one timing cannot flip the gate.

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bench_json.h"
#include "common/harness.h"
#include "core/spectral_bloom_filter.h"
#include "sai/compact_counter_vector.h"
#include "util/timer.h"

namespace {

using sbf::CompactCounterVector;
using sbf::CounterBacking;
using sbf::Multiset;
using sbf::SbfOptions;
using sbf::SpectralBloomFilter;
using sbf::Timer;
using sbf::bench::BenchJson;

// Keeps the replicated width scans observable so the optimizer cannot
// delete the pre-refactor baseline's extra work.
volatile uint64_t g_sink = 0;

// Interleaved (per-access, batched) timing pairs behind the gated ratio.
constexpr int kRepetitions = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// The pre-refactor per-access estimate: before the sampled prefix-offset
// table, every compact Get(i) re-derived counter i's bit position by
// summing the widths from the group start (O(group_size) per probe). The
// width scan is reproduced against the live layout through the public
// WidthOf accessor, on top of today's Get — the same memory traffic the
// old PositionOf paid — so the artifact keeps an honest baseline even
// after the slow path is gone from the library.
uint64_t PreRefactorEstimate(const SpectralBloomFilter& filter,
                             const CompactCounterVector& cv, uint64_t key) {
  uint64_t positions[sbf::HashFamily::kMaxK];
  filter.Positions(key, positions);
  const size_t group_size = cv.group_size();
  uint64_t best = ~uint64_t{0};
  for (uint32_t j = 0; j < filter.k(); ++j) {
    const size_t i = static_cast<size_t>(positions[j]);
    uint64_t scan = 0;
    for (size_t b = i - i % group_size; b < i; ++b) scan += cv.WidthOf(b);
    g_sink = g_sink + scan;
    best = std::min(best, cv.Get(i));
  }
  return best;
}

SpectralBloomFilter BuildFilter(CounterBacking backing, uint64_t m,
                                const Multiset& data) {
  SbfOptions options;
  options.m = m;
  options.k = 5;
  options.seed = 7;
  options.backing = backing;
  SpectralBloomFilter filter(options);
  for (uint64_t key : data.stream) filter.Insert(key);
  return filter;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }
  const uint64_t n = small ? 2000 : 5000;
  const uint64_t total = small ? 60000 : 250000;
  const int rounds = small ? 20 : 80;
  const uint64_t m = static_cast<uint64_t>(n * 5 / 0.7);

  sbf::bench::PrintHeader(
      "Grouped decode - compact batch estimate vs per-access decode",
      "Zipf 0.8 build, gamma = 0.7, k = 5; estimate sweep over all keys");

  const Multiset data = sbf::MakeZipfMultiset(n, total, 0.8, 0xDECD);
  const size_t q = data.keys.size();
  std::vector<uint64_t> out(q);

  BenchJson json("BENCH_compact_decode.json");
  json.SetContext(sbf::bench::StandardContext(/*with_isa=*/false));

  for (CounterBacking backing :
       {CounterBacking::kCompact, CounterBacking::kFixed64,
        CounterBacking::kSerialScan}) {
    const char* name = sbf::CounterBackingName(backing);
    SpectralBloomFilter filter = BuildFilter(backing, m, data);
    const bool compact = backing == CounterBacking::kCompact;

    // Pre-refactor replica (compact only; the fixed backings never paid a
    // positional scan) and the batched pipeline (hash-ahead + prefetch +
    // early-exit min over Get), timed in interleaved repetitions.
    std::vector<double> per_access_ns;
    std::vector<double> batched_ns;
    std::vector<double> ratios;
    uint64_t per_access_checksum = 0;
    uint64_t batched_checksum = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      if (compact) {
        const auto& cv =
            static_cast<const CompactCounterVector&>(filter.counters());
        per_access_checksum = 0;
        Timer timer;
        for (int r = 0; r < rounds; ++r) {
          for (uint64_t key : data.keys) {
            per_access_checksum += PreRefactorEstimate(filter, cv, key);
          }
        }
        per_access_ns.push_back(timer.ElapsedSeconds() * 1e9 / (rounds * q));
      }
      batched_checksum = 0;
      Timer timer;
      for (int r = 0; r < rounds; ++r) {
        filter.EstimateBatch(data.keys.data(), q, out.data());
        for (size_t i = 0; i < q; ++i) batched_checksum += out[i];
      }
      batched_ns.push_back(timer.ElapsedSeconds() * 1e9 / (rounds * q));
      if (compact) ratios.push_back(per_access_ns.back() / batched_ns.back());
    }
    if (compact) {
      const double ns = Median(per_access_ns);
      json.Add("estimate_per_access_prerefactor",
               {{"backing", name},
                {"checksum", per_access_checksum % 1000003},
                {"repetitions", kRepetitions}},
               ns, 1e3 / ns);
    }

    // Current scalar path (O(1) PositionOf, one virtual Get per probe).
    {
      uint64_t checksum = 0;
      Timer timer;
      for (int r = 0; r < rounds; ++r) {
        for (uint64_t key : data.keys) checksum += filter.Estimate(key);
      }
      const double seconds = timer.ElapsedSeconds();
      json.Add("estimate_scalar",
               {{"backing", name}, {"checksum", checksum % 1000003}},
               seconds * 1e9 / (rounds * q), rounds * q / (seconds * 1e6));
    }

    // The batched row: median ns over the repetitions; for compact, the
    // median per-pair speedup over the per-access replica.
    {
      const double ns = Median(batched_ns);
      std::vector<BenchJson::Param> params = {
          {"backing", name},
          {"checksum", batched_checksum % 1000003},
          {"repetitions", kRepetitions}};
      if (compact) {
        params.emplace_back("speedup_vs_per_access", Median(ratios));
      }
      json.Add("estimate_batched", params, ns, 1e3 / ns);
    }

    // Full-vector sweep: the DecodeBlock chunk walk Total()/serialization
    // use vs one virtual Get per counter.
    {
      const auto& cv = filter.counters();
      uint64_t checksum = 0;
      Timer timer;
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < cv.size(); ++i) checksum += cv.Get(i);
      }
      const double scalar_s = timer.ElapsedSeconds();
      json.Add("sweep_scalar_get",
               {{"backing", name}, {"checksum", checksum % 1000003}},
               scalar_s * 1e9 / (rounds * cv.size()),
               rounds * cv.size() / (scalar_s * 1e6));

      constexpr size_t kChunk = 256;
      uint64_t values[kChunk];
      checksum = 0;
      timer.Restart();
      for (int r = 0; r < rounds; ++r) {
        for (size_t base = 0; base < cv.size(); base += kChunk) {
          const size_t len = std::min(kChunk, cv.size() - base);
          cv.DecodeBlock(base, len, values);
          for (size_t j = 0; j < len; ++j) checksum += values[j];
        }
      }
      const double block_s = timer.ElapsedSeconds();
      json.Add("sweep_decode_block",
               {{"backing", name},
                {"checksum", checksum % 1000003},
                {"speedup_vs_scalar_get", scalar_s / block_s}},
               block_s * 1e9 / (rounds * cv.size()),
               rounds * cv.size() / (block_s * 1e6));
    }

    // The flush path: SpectralBloomFilter::Apply with per-key counts vs a
    // loop of scalar inserts — what the concurrent frontend's shard drain
    // pays per key. Only serial-scan takes a bulk path
    // (SerialScanCounterVector::AddMany: probes clustered by group, one
    // decode + one re-encode per touched group); the other backings run
    // the per-key write body through the batch pipeline.
    {
      std::vector<uint64_t> counts(data.keys.size());
      for (size_t i = 0; i < counts.size(); ++i) counts[i] = 1 + i % 3;
      SpectralBloomFilter scalar_target = filter.CloneEmpty();
      Timer timer;
      for (int r = 0; r < rounds / 4 + 1; ++r) {
        for (size_t i = 0; i < counts.size(); ++i) {
          scalar_target.Insert(data.keys[i], counts[i]);
        }
      }
      const double scalar_s = timer.ElapsedSeconds();
      const uint64_t ops = (rounds / 4 + 1) * counts.size();
      json.Add("flush_insert_scalar", {{"backing", name}},
               scalar_s * 1e9 / ops, ops / (scalar_s * 1e6));

      SpectralBloomFilter batch_target = filter.CloneEmpty();
      timer.Restart();
      for (int r = 0; r < rounds / 4 + 1; ++r) {
        batch_target.Apply(
            {data.keys.data(), counts.size(), 0, false, counts.data()});
      }
      const double batch_s = timer.ElapsedSeconds();
      json.Add("flush_apply_add_batch",
               {{"backing", name},
                {"speedup_vs_scalar_insert", scalar_s / batch_s}},
               batch_s * 1e9 / ops, ops / (batch_s * 1e6));
    }
  }

  return json.WriteFile() ? 0 : 1;
}
