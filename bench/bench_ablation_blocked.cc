// Ablation for the external-memory SBF (Section 2.2 / [MW94]): how much
// accuracy does hash-domain segmentation cost as the block shrinks?
//
// Paper claim: "for large enough segments, the difference is negligible".
// We sweep the block size from the whole array down to 64 counters and
// report error ratio and additive error against the unsegmented SBF —
// plus the locality payoff: blocks touched per operation is always 1,
// versus up to k scattered accesses for the flat filter.

#include <vector>

#include "common/harness.h"
#include "core/spectral_bloom_filter.h"

using sbf::ErrorStats;
using sbf::Multiset;
using sbf::SbfOptions;
using sbf::SpectralBloomFilter;
using sbf::TablePrinter;

int main() {
  constexpr uint64_t kM = 8192;
  constexpr uint32_t kK = 5;
  constexpr uint64_t kN = 1000;
  constexpr uint64_t kTotal = 50000;

  sbf::bench::PrintHeader(
      "Ablation - blocked (external-memory) SBF vs block size",
      "m = 8192, k = 5, n = 1000, M = 50000, Zipf 0.5 (gamma = 0.61); "
      "averaged over 5 runs; block = m is the unsegmented filter");

  TablePrinter table({"block size", "blocks", "E_ratio", "E_add",
                      "blocks touched/op"});
  for (uint64_t block_size : {kM, kM / 2, kM / 8, kM / 32, kM / 128}) {
    ErrorStats stats;
    for (int run = 0; run < sbf::bench::kRuns; ++run) {
      const uint64_t seed = 0xB10Cull + run * 37;
      const Multiset data = sbf::MakeZipfMultiset(kN, kTotal, 0.5, seed);
      SbfOptions options;
      options.m = kM;
      options.block_size = block_size;
      options.k = kK;
      options.seed = seed * 3;
      options.backing = sbf::CounterBacking::kFixed64;
      SpectralBloomFilter filter(options);
      for (uint64_t key : data.stream) filter.Insert(key);
      for (size_t i = 0; i < data.keys.size(); ++i) {
        stats.Record(filter.Estimate(data.keys[i]), data.freqs[i]);
      }
    }
    table.AddRow({TablePrinter::FmtInt(block_size),
                  TablePrinter::FmtInt(kM / block_size),
                  TablePrinter::Fmt(stats.ErrorRatio(), 4),
                  TablePrinter::Fmt(stats.AdditiveError(), 2),
                  block_size == kM ? "k (unsegmented)" : "1"});
  }
  table.Print();
  return 0;
}
