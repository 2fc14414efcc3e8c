// Grouped-backing decode economics (the "close the compact-backing gap"
// ROADMAP item): what a compact-backed batch estimate costs now that
// PositionOf is O(1) (a span header's start plus a register prefix sum of
// its width lanes) and the batch pipeline hints each probe's header,
// against
// (a) the current scalar path and (b) a faithful replica of the
// pre-refactor per-access path that re-scanned the group's widths on
// every probe. Also times the full-vector DecodeBlock sweep vs a scalar
// Get sweep and the epoch-apply flush path vs scalar inserts.
//
// Emits BENCH_compact_decode.json; scripts/check_compact.py gates the
// `speedup_vs_per_access` param of the compact batched-estimate row. Every
// cell is timed in kRepetitions round-robin repeats (the median is the
// row's ns_per_op, with min and max in its params), and every speedup is
// the median of the per-repeat ratios, so a burst of host noise in one
// timing cannot flip the gate.

#include <algorithm>
#include <cstring>
#include <functional>
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

// Round-robin repeats of every cell (bench::TimeInterleaved).
constexpr int kRepetitions = 5;

// Median over the repeats of a's time over b's, repeat by repeat. Each
// pair of cells this is taken over sits side by side in the round-robin,
// so within a repeat the two ran back to back and a burst of host noise
// moves both.
double MedianRatio(const sbf::bench::CellTiming& a,
                   const sbf::bench::CellTiming& b) {
  std::vector<double> ratios;
  for (size_t r = 0; r < a.seconds.size(); ++r) {
    ratios.push_back(a.seconds[r] / b.seconds[r]);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

// The pre-refactor per-access estimate: before the sampled prefix-offset
// table, every compact Get(i) re-derived counter i's bit position by
// summing the byte widths from the group start (O(group_size) per probe).
// The scan runs over `widths`, a plain byte array copied from the live
// layout before timing — the same memory traffic the old PositionOf paid
// on its one-byte-per-counter width array, whatever the library's layout
// is now — on top of today's Get, so the artifact keeps an honest baseline
// after the slow path is gone from the library.
uint64_t PreRefactorEstimate(const SpectralBloomFilter& filter,
                             const CompactCounterVector& cv,
                             const std::vector<uint8_t>& widths,
                             uint64_t key) {
  uint64_t positions[sbf::HashFamily::kMaxK];
  filter.Positions(key, positions);
  const size_t group_size = cv.group_size();
  uint64_t best = ~uint64_t{0};
  for (uint32_t j = 0; j < filter.k(); ++j) {
    const size_t i = static_cast<size_t>(positions[j]);
    uint64_t scan = 0;
    for (size_t b = i - i % group_size; b < i; ++b) scan += widths[b];
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
    const auto& cv = filter.counters();
    std::vector<uint64_t> counts(q);
    for (size_t i = 0; i < q; ++i) counts[i] = 1 + i % 3;
    const int flush_rounds = rounds / 4 + 1;

    // Every cell below is timed in kRepetitions round-robin repeats
    // (bench::TimeInterleaved); each checksum is its cell's last repeat's.
    uint64_t per_access_checksum = 0;
    uint64_t scalar_checksum = 0;
    uint64_t batched_checksum = 0;
    uint64_t get_checksum = 0;
    uint64_t block_checksum = 0;
    std::vector<uint8_t> widths;
    std::vector<std::function<double()>> cells = {
        // The batched pipeline: hash-ahead + prefetch + early-exit min.
        [&] {
          batched_checksum = 0;
          Timer timer;
          for (int r = 0; r < rounds; ++r) {
            filter.EstimateBatch(data.keys.data(), q, out.data());
            for (size_t i = 0; i < q; ++i) batched_checksum += out[i];
          }
          return timer.ElapsedSeconds();
        },
        // The scalar path: one virtual Get per probe.
        [&] {
          scalar_checksum = 0;
          Timer timer;
          for (int r = 0; r < rounds; ++r) {
            for (uint64_t key : data.keys) {
              scalar_checksum += filter.Estimate(key);
            }
          }
          return timer.ElapsedSeconds();
        },
        // Full-vector sweeps: one virtual Get per counter, and the
        // DecodeBlock chunk walk Total()/serialization use.
        [&] {
          get_checksum = 0;
          Timer timer;
          for (int r = 0; r < rounds; ++r) {
            for (size_t i = 0; i < cv.size(); ++i) get_checksum += cv.Get(i);
          }
          return timer.ElapsedSeconds();
        },
        [&] {
          constexpr size_t kChunk = 256;
          uint64_t values[kChunk];
          block_checksum = 0;
          Timer timer;
          for (int r = 0; r < rounds; ++r) {
            for (size_t base = 0; base < cv.size(); base += kChunk) {
              const size_t len = std::min(kChunk, cv.size() - base);
              cv.DecodeBlock(base, len, values);
              for (size_t j = 0; j < len; ++j) block_checksum += values[j];
            }
          }
          return timer.ElapsedSeconds();
        },
        // The flush path: SpectralBloomFilter::Apply with per-key counts
        // vs a loop of scalar inserts — what the concurrent frontend's
        // shard drain pays per key. Only serial-scan takes a bulk path
        // (SerialScanCounterVector::AddMany: probes clustered by group,
        // one decode + one re-encode per touched group); the other
        // backings run the per-key write body through the batch pipeline.
        [&] {
          SpectralBloomFilter target = filter.CloneEmpty();
          Timer timer;
          for (int r = 0; r < flush_rounds; ++r) {
            for (size_t i = 0; i < q; ++i) {
              target.Insert(data.keys[i], counts[i]);
            }
          }
          return timer.ElapsedSeconds();
        },
        [&] {
          SpectralBloomFilter target = filter.CloneEmpty();
          Timer timer;
          for (int r = 0; r < flush_rounds; ++r) {
            target.Apply({data.keys.data(), q, 0, false, counts.data()});
          }
          return timer.ElapsedSeconds();
        }};
    if (compact) {
      // The pre-refactor replica (compact only; the fixed backings never
      // paid a positional scan), right after the batched cell it is
      // compared with.
      const auto& compact_cv = static_cast<const CompactCounterVector&>(cv);
      widths.resize(cv.size());
      for (size_t i = 0; i < cv.size(); ++i) {
        widths[i] = static_cast<uint8_t>(compact_cv.WidthOf(i));
      }
      cells.insert(cells.begin() + 1, [&] {
        per_access_checksum = 0;
        Timer timer;
        for (int r = 0; r < rounds; ++r) {
          for (uint64_t key : data.keys) {
            per_access_checksum +=
                PreRefactorEstimate(filter, compact_cv, widths, key);
          }
        }
        return timer.ElapsedSeconds();
      });
    }
    const auto t = sbf::bench::TimeInterleaved(cells, kRepetitions);
    const size_t rest = compact ? 2 : 1;  // cells after batched/per-access
    const sbf::bench::CellTiming& batched = t[0];
    const sbf::bench::CellTiming& scalar = t[rest];
    const sbf::bench::CellTiming& sweep_get = t[rest + 1];
    const sbf::bench::CellTiming& sweep_block = t[rest + 2];
    const sbf::bench::CellTiming& flush_scalar = t[rest + 3];
    const sbf::bench::CellTiming& flush_batch = t[rest + 4];

    const uint64_t probes = static_cast<uint64_t>(rounds) * q;
    const uint64_t sweeps = static_cast<uint64_t>(rounds) * cv.size();
    const uint64_t flushes = static_cast<uint64_t>(flush_rounds) * q;
    const auto add = [&](const char* row, const sbf::bench::CellTiming& cell,
                         uint64_t ops, std::vector<BenchJson::Param> params) {
      params.insert(params.begin(), {"backing", name});
      for (auto& p : sbf::bench::SpreadParams(cell, ops)) params.push_back(p);
      const double ns = cell.median * 1e9 / static_cast<double>(ops);
      json.Add(row, params, ns, 1e3 / ns);
    };
    if (compact) {
      add("estimate_per_access_prerefactor", t[1], probes,
          {{"checksum", per_access_checksum % 1000003}});
    }
    add("estimate_scalar", scalar, probes,
        {{"checksum", scalar_checksum % 1000003}});
    std::vector<BenchJson::Param> batched_params = {
        {"checksum", batched_checksum % 1000003}};
    if (compact) {
      batched_params.emplace_back("speedup_vs_per_access",
                                  MedianRatio(t[1], batched));
    }
    add("estimate_batched", batched, probes, batched_params);
    add("sweep_scalar_get", sweep_get, sweeps,
        {{"checksum", get_checksum % 1000003}});
    add("sweep_decode_block", sweep_block, sweeps,
        {{"checksum", block_checksum % 1000003},
         {"speedup_vs_scalar_get", MedianRatio(sweep_get, sweep_block)}});
    add("flush_insert_scalar", flush_scalar, flushes, {});
    add("flush_apply_add_batch", flush_batch, flushes,
        {{"speedup_vs_scalar_insert", MedianRatio(flush_scalar, flush_batch)}});
  }

  return json.WriteFile() ? 0 : 1;
}
