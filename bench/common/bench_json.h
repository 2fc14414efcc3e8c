#ifndef SBF_BENCH_COMMON_BENCH_JSON_H_
#define SBF_BENCH_COMMON_BENCH_JSON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/simd_kernels.h"

namespace sbf::bench {

// Shared result schema for every BENCH_*.json artifact the bench binaries
// emit. Each row is
//
//   {"name": "<kernel>", "params": {...}, "ns_per_op": <double>,
//    "throughput_mops": <double>}
//
// where `name` identifies the measured operation and `params` pins the
// sweep point (backing, batch size, threads, ...). One schema across all
// benchmarks means CI and the EXPERIMENTS.md tables can consume any
// benchmark's artifact with the same parser. Rows are also printed to
// stdout as they are added, so interactive runs stream results.
//
// Context params (SetContext / StandardContext below) are appended to
// every row's params: build- and host-level facts — the active SIMD ISA,
// the compiler and its flags, the host's transparent-huge-page mode — that
// distinguish artifacts produced by different CI legs or hosts of the
// same benchmark.
class BenchJson {
 public:
  // One params entry; values render as JSON strings or numbers.
  struct Param {
    Param(std::string k, const char* v)
        : key(std::move(k)), rendered('"' + std::string(v) + '"') {}
    Param(std::string k, const std::string& v)
        : key(std::move(k)), rendered('"' + v + '"') {}
    Param(std::string k, uint64_t v)
        : key(std::move(k)), rendered(std::to_string(v)) {}
    Param(std::string k, int v)
        : key(std::move(k)), rendered(std::to_string(v)) {}
    Param(std::string k, double v) : key(std::move(k)), rendered(Num(v)) {}

    std::string key;
    std::string rendered;
  };

  // `path` is where WriteFile() lands the artifact (e.g.
  // "BENCH_batch_pipeline.json").
  explicit BenchJson(std::string path) : path_(std::move(path)) {}

  // Params appended to every subsequent row (keys must not collide with
  // per-row params). Typically StandardContext().
  void SetContext(std::vector<Param> context) {
    context_ = std::move(context);
  }

  void Add(const std::string& name, const std::vector<Param>& params,
           double ns_per_op, double throughput_mops) {
    std::string row = "{\"name\":\"" + name + "\",\"params\":{";
    bool first = true;
    const std::vector<Param>* groups[] = {&params, &context_};
    for (const std::vector<Param>* group : groups) {
      for (const Param& param : *group) {
        if (!first) row += ',';
        first = false;
        row += '"' + param.key + "\":" + param.rendered;
      }
    }
    row += "},\"ns_per_op\":" + Num(ns_per_op) +
           ",\"throughput_mops\":" + Num(throughput_mops) + "}";
    std::printf("%s\n", row.c_str());
    std::fflush(stdout);
    rows_.push_back(std::move(row));
  }

  // Writes all accumulated rows as one JSON array. Returns false (and
  // complains on stderr) if the file cannot be written.
  bool WriteFile() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

  const std::string& path() const { return path_; }

 private:
  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
  }

  std::string path_;
  std::vector<Param> context_;
  std::vector<std::string> rows_;
};

// The host's transparent-huge-page mode: the bracketed word of
// /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise" or
// "never"), or "unknown" where that file cannot be read. It says whether
// the MADV_HUGEPAGE advice on DRAM-sized counter arrays
// (util/aligned_alloc.h) could take effect on the host behind a number.
inline std::string ThpMode() {
  std::string mode = "unknown";
  std::FILE* f =
      std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
  if (f == nullptr) return mode;
  char buf[128];
  if (std::fgets(buf, sizeof(buf), f) != nullptr) {
    const std::string line(buf);
    const size_t open = line.find('[');
    const size_t close = line.find(']', open);
    if (close != std::string::npos) {
      mode = line.substr(open + 1, close - open - 1);
    }
  }
  std::fclose(f);
  return mode;
}

// The standard row context: the SIMD ISA the process dispatched to (after
// CPU detection and any SBF_FORCE_ISA override), the compiler identity
// and flags the benchmark was built with (SBF_BENCH_CXX_FLAGS is injected
// by bench/CMakeLists.txt), and the host's THP mode (ThpMode above).
// Benchmarks that sweep ForceIsa() themselves should omit the "isa" entry
// and emit a per-row param instead.
inline std::vector<BenchJson::Param> StandardContext(bool with_isa = true) {
  std::vector<BenchJson::Param> context;
  if (with_isa) {
    context.emplace_back("isa", simd::IsaName(simd::Active().isa));
  }
  context.emplace_back("compiler", __VERSION__);
#ifdef SBF_BENCH_CXX_FLAGS
  context.emplace_back("cxx_flags", SBF_BENCH_CXX_FLAGS);
#else
  context.emplace_back("cxx_flags", "");
#endif
  context.emplace_back("thp", ThpMode());
  return context;
}

// One bench cell's timings: the seconds of each repeat, in run order, and
// their median, min and max.
struct CellTiming {
  std::vector<double> seconds;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Times each cell as the median of `repeats` runs (at least 5), taken
// round robin — cell 0, 1, ..., then cell 0 again — so drift on the host
// over the sweep lands on every cell alike instead of on whichever cell
// ran during it. Each cell runs its own untimed setup and returns the
// seconds of its timed part. Rows record the median as ns_per_op and
// the spread through SpreadParams.
inline std::vector<CellTiming> TimeInterleaved(
    const std::vector<std::function<double()>>& cells, int repeats = 5) {
  repeats = std::max(repeats, 5);
  std::vector<CellTiming> timings(cells.size());
  for (int rep = 0; rep < repeats; ++rep) {
    for (size_t c = 0; c < cells.size(); ++c) {
      timings[c].seconds.push_back(cells[c]());
    }
  }
  for (CellTiming& t : timings) {
    std::vector<double> sorted = t.seconds;
    std::sort(sorted.begin(), sorted.end());
    t.median = sorted[sorted.size() / 2];
    t.min = sorted.front();
    t.max = sorted.back();
  }
  return timings;
}

// The repeat count and the min/max ns per op of a cell that ran `ops`
// operations per repeat.
inline std::vector<BenchJson::Param> SpreadParams(const CellTiming& t,
                                                  uint64_t ops) {
  const double scale = 1e9 / static_cast<double>(ops);
  return {{"repeats", static_cast<uint64_t>(t.seconds.size())},
          {"min_ns_per_op", t.min * scale},
          {"max_ns_per_op", t.max * scale}};
}

// Baseline bookkeeping for scaling sweeps: every multi-threaded bench that
// reports `speedup_vs_1t` records its 1-thread wall time per sweep cell
// here and divides later runs of the same cell by it. Keying by the full
// cell label (e.g. "insert/fixed64/S=16") rather than positionally keeps
// the speedup honest when sweep loops are reordered; scripts/
// check_scaling.py consumes the resulting field to gate perf-smoke CI.
class SpeedupBaseline {
 public:
  // Records `seconds` as the baseline for `cell` (call at threads == 1).
  void Set(const std::string& cell, double seconds) {
    entries_.emplace_back(cell, seconds);
  }

  // Baseline / current: > 1 means faster than one thread. Returns 1.0 for
  // an unknown cell (the 1-thread row itself, by construction).
  double Speedup(const std::string& cell, double seconds) const {
    for (const auto& [key, baseline] : entries_) {
      if (key == cell) return seconds > 0.0 ? baseline / seconds : 0.0;
    }
    return 1.0;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

// One worker's timing of its pre-partitioned slice. Aggregating completed
// per-thread timers after the join (instead of one shared timer read
// inside the loop, or per-chunk vector copies inside the timed region)
// keeps measurement overhead out of the contended path; the max across
// workers approximates the critical path and is what the wall clock
// should roughly reproduce.
struct ThreadTiming {
  double seconds = 0.0;
  uint64_t ops = 0;
};

inline double MaxSeconds(const std::vector<ThreadTiming>& timings) {
  double max_s = 0.0;
  for (const ThreadTiming& t : timings) max_s = std::max(max_s, t.seconds);
  return max_s;
}

inline double SumSeconds(const std::vector<ThreadTiming>& timings) {
  double sum = 0.0;
  for (const ThreadTiming& t : timings) sum += t.seconds;
  return sum;
}

}  // namespace sbf::bench

#endif  // SBF_BENCH_COMMON_BENCH_JSON_H_
