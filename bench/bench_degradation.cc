// Degradation study: how accuracy decays as an SBF overfills, how the
// live health verdict (util/health.h) tracks that decay, and what online
// expansion (ExpandTo) buys.
//
// Part 1 sweeps the load (distinct items per counter) at fixed m and
// reports, side by side, the health snapshot's *predicted* error (fill^k,
// the paper's Section 2.1 estimate on observed occupancy) and the
// *measured* error ratio / E_add — the prediction should track the
// measurement closely enough to drive ExpandIfDegraded.
//
// Part 2 takes an overloaded filter, expands it 4x, and feeds both the
// expanded filter and an unexpanded control the same second wave of fresh
// keys: expansion cannot repair the first wave's collisions (the fold
// preserves estimates exactly), but the second wave's error collapses.
//
// Emits BENCH_degradation.json (ns_per_op = per-key Estimate latency).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "common/harness.h"
#include "core/spectral_bloom_filter.h"
#include "util/health.h"
#include "util/metrics.h"
#include "util/table_printer.h"
#include "workload/multiset_stream.h"

namespace {

constexpr uint64_t kM = 8192;
constexpr uint32_t kK = 5;
constexpr double kZipfSkew = 1.0;

double EstimateNsPerOp(const sbf::SpectralBloomFilter& filter,
                       const std::vector<uint64_t>& keys) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t sink = 0;
  for (uint64_t key : keys) sink += filter.Estimate(key);
  const auto stop = std::chrono::steady_clock::now();
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
  // Keep the loop from being optimized away.
  if (sink == ~uint64_t{0}) std::printf("impossible\n");
  return ns / static_cast<double>(keys.size());
}

sbf::SpectralBloomFilter MakeFilter(uint64_t m, uint64_t seed) {
  sbf::SbfOptions options;
  options.m = m;
  options.k = kK;
  options.seed = seed;
  options.backing = sbf::CounterBacking::kFixed64;
  return sbf::SpectralBloomFilter(options);
}

}  // namespace

int main() {
  using sbf::bench::BenchJson;
  sbf::bench::PrintHeader(
      "Degradation - health verdict vs measured error under overload",
      "m = 8192, k = 5, zipf 1.0; predicted fpr = fill^k from Health()");

  BenchJson json("BENCH_degradation.json");
  json.SetContext(sbf::bench::StandardContext());

  // --- Part 1: load sweep --------------------------------------------------
  sbf::TablePrinter table({"distinct", "fill", "pred_fpr", "err_ratio",
                           "E_add", "verdict", "est ns/op"});
  for (const uint64_t distinct : {512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
    sbf::ErrorStats stats;
    sbf::FilterHealth health;
    double ns_per_op = 0.0;
    for (int run = 0; run < sbf::bench::kRuns; ++run) {
      const uint64_t seed = 0x5BF5EEDull + static_cast<uint64_t>(run) * 7919;
      sbf::SpectralBloomFilter filter = MakeFilter(kM, seed);
      const sbf::Multiset data =
          sbf::MakeZipfMultiset(distinct, distinct * 8, kZipfSkew, seed);
      for (uint64_t key : data.stream) filter.Insert(key);
      for (size_t i = 0; i < data.keys.size(); ++i) {
        stats.Record(filter.Estimate(data.keys[i]), data.freqs[i]);
      }
      if (run == 0) health = filter.Health();
      ns_per_op += EstimateNsPerOp(filter, data.keys) / sbf::bench::kRuns;
    }
    table.AddRow({sbf::TablePrinter::FmtInt(distinct),
                  sbf::TablePrinter::Fmt(health.fill_ratio, 4),
                  sbf::TablePrinter::Fmt(health.estimated_fpr, 4),
                  sbf::TablePrinter::Fmt(stats.ErrorRatio(), 4),
                  sbf::TablePrinter::Fmt(stats.AdditiveError(), 2),
                  sbf::HealthStateName(health.state),
                  sbf::TablePrinter::Fmt(ns_per_op, 1)});
    json.Add("degradation/load_sweep",
             {{"distinct", distinct},
              {"fill", health.fill_ratio},
              {"predicted_fpr", health.estimated_fpr},
              {"error_ratio", stats.ErrorRatio()},
              {"e_add", stats.AdditiveError()},
              {"verdict", sbf::HealthStateName(health.state)}},
             ns_per_op, 1e3 / ns_per_op);
  }
  table.Print();

  // --- Part 2: expansion headroom ------------------------------------------
  // Expansion at the moment Health() first says DEGRADED (the designed
  // trigger for ExpandIfDegraded): it cannot repair the first wave's
  // collisions — the fold preserves those estimates bit-for-bit — but the
  // second wave of fresh keys spreads over the grown table.
  sbf::bench::PrintHeader(
      "Degradation - second-wave error with and without ExpandIfDegraded",
      "wave 1: 2048 distinct keys push m = 8192 to DEGRADED; wave 2: 4096 "
      "fresh keys land on the expanded (16384) or the original filter");
  sbf::TablePrinter part2({"filter", "m after", "fill", "pred_fpr",
                           "wave2 err_ratio", "wave2 E_add"});
  for (const bool expand : {false, true}) {
    sbf::ErrorStats wave2;
    sbf::FilterHealth health;
    uint64_t m_after = 0;
    for (int run = 0; run < sbf::bench::kRuns; ++run) {
      const uint64_t seed = 0xD16E5Dull + static_cast<uint64_t>(run) * 104729;
      sbf::SpectralBloomFilter filter = MakeFilter(kM, seed);
      const sbf::Multiset wave1 =
          sbf::MakeZipfMultiset(2048, 2048 * 8, kZipfSkew, seed);
      for (uint64_t key : wave1.stream) filter.Insert(key);
      if (expand) {
        auto expanded = filter.ExpandIfDegraded();
        if (!expanded.ok() || !expanded.value()) return 1;
      }
      m_after = filter.m();
      // Fresh keys disjoint from wave 1 (Multiset keys are dense ranks, so
      // offset far past them).
      const sbf::Multiset raw =
          sbf::MakeZipfMultiset(4096, 4096 * 8, kZipfSkew, seed ^ 0xBEEF);
      constexpr uint64_t kOffset = 1u << 20;
      for (uint64_t key : raw.stream) filter.Insert(key + kOffset);
      for (size_t i = 0; i < raw.keys.size(); ++i) {
        wave2.Record(filter.Estimate(raw.keys[i] + kOffset), raw.freqs[i]);
      }
      if (run == 0) health = filter.Health();
    }
    part2.AddRow({expand ? "expanded 2x" : "control",
                  sbf::TablePrinter::FmtInt(m_after),
                  sbf::TablePrinter::Fmt(health.fill_ratio, 4),
                  sbf::TablePrinter::Fmt(health.estimated_fpr, 4),
                  sbf::TablePrinter::Fmt(wave2.ErrorRatio(), 4),
                  sbf::TablePrinter::Fmt(wave2.AdditiveError(), 2)});
    json.Add("degradation/second_wave",
             {{"filter", expand ? "expanded" : "control"},
              {"m_after", m_after},
              {"fill", health.fill_ratio},
              {"predicted_fpr", health.estimated_fpr},
              {"error_ratio", wave2.ErrorRatio()},
              {"e_add", wave2.AdditiveError()}},
             0.0, 0.0);
  }
  part2.Print();

  return json.WriteFile() ? 0 : 1;
}
