// End-to-end benchmark of libsbf: three single-client closed-loop
// workloads, each run as a series of episodes (set up, replay a fixed
// seeded op stream, check every output). `--trace 0` prints the gating
// end-to-end metrics; `--trace 1` replays the same stream once per layer
// level and prints the layer-peel ledger and per-layer metrics.
//
//   perfbench --workload <durable_ingest|dram_batch_mi|window_point>
//             --seed <n> --seconds <s> --trace <0|1>
//             --store-dir <dir> [--trace-dir <dir>]
//   perfbench --self-test
//
// The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/bench_json.h"
#include "inputs.h"
#include "io/delta_log.h"
#include "io/durable_store.h"
#include "targets.h"
#include "trace.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

// --- workloads -----------------------------------------------------------------

enum class Top { kDurable, kConcurrent, kWindow };

struct Workload {
  std::string name;
  Top top;
  bool point;          // point entry points (one key per call) vs batch
  uint32_t universe;   // distinct keys: ranks 1..universe
  double zipf;
  sbf::ConcurrentSbfOptions filter;
  // E_ratio and E_add are measured over every error_stride-th rank of the
  // universe, present or absent, after the timed phase.
  uint32_t error_stride = 1;
  // Replays of each layer level in a traced run.
  int trace_repeats = 3;
  size_t window = 0;   // window_point only, in occurrences
};

constexpr uint32_t kBatch = 1024;
constexpr uint64_t kFilterSeed = 0x5BF;

// durable_ingest: prefill appends, then timed appends with an estimate
// batch every 4th step and a checkpoint every kDurableCheckpointEvery
// appends; the appends after the last checkpoint are the log tail that
// recovery replays.
constexpr uint32_t kDurablePrefillSteps = 256;
constexpr uint32_t kDurableSteps = 1024;
constexpr uint32_t kDurableCheckpointEvery = 384;
// dram_batch_mi: alternating insert and estimate batches.
constexpr uint32_t kDramSteps = 8192;
// window_point: Push + point Estimate steps after a full-window prefill.
constexpr uint32_t kWindowSteps = 1u << 19;

// Episodes per run: at least kMinEpisodes, then more until --seconds pass.
constexpr int kMinEpisodes = 3;
constexpr int kMaxEpisodes = 64;
// Repetitions of the recovery timings in a traced run.
constexpr int kRecoveryRepeats = 3;
// Largest tracing overhead the ledger accepts, as a share of the untraced
// cost of the same op stream. Pairs of replays on this shared host differ
// by up to ~20% with no tracing at all, so the limit sits well above that.
constexpr double kMaxTraceOverhead = 0.5;

sbf::ConcurrentSbfOptions FilterOptions(uint32_t log2_m, sbf::SbfPolicy policy,
                                        sbf::CounterBacking backing) {
  sbf::ConcurrentSbfOptions o;
  o.m = uint64_t{1} << log2_m;
  o.k = 5;
  o.policy = policy;
  o.backing = backing;
  o.seed = kFilterSeed;
  o.num_shards = 8;
  // Delta-buffer merges happen only at the size threshold and on explicit
  // drains, never on the wall-clock staleness check, so merge counts and
  // the counter state they produce repeat exactly run to run.
  o.delta.max_epoch_micros = 0;
  return o;
}

bool MakeWorkload(const std::string& name, Workload* w) {
  using sbf::CounterBacking;
  using sbf::SbfPolicy;
  if (name == "durable_ingest") {
    *w = Workload{name, Top::kDurable, false, 1u << 20, 1.0,
                  FilterOptions(22, SbfPolicy::kMinimumSelection,
                                CounterBacking::kCompact)};
  } else if (name == "dram_batch_mi") {
    *w = Workload{name, Top::kConcurrent, false, 1u << 24, 0.8,
                  FilterOptions(28, SbfPolicy::kMinimalIncrease,
                                CounterBacking::kFixed64)};
    w->error_stride = 4;
    w->trace_repeats = 2;  // each replay sets up a 2 GiB filter
  } else if (name == "window_point") {
    *w = Workload{name, Top::kWindow, true, 1u << 18, 1.0,
                  FilterOptions(17, SbfPolicy::kMinimumSelection,
                                CounterBacking::kFixed64)};
    w->window = 1u << 15;
  } else {
    return false;
  }
  return true;
}

// --- inputs --------------------------------------------------------------------

struct Inputs {
  uint64_t salt = 0;
  Stream prefill;                 // replayed untimed during setup
  bool prefill_universe = false;  // also insert every universe key once
  Stream timed;
  std::vector<uint32_t> truth;    // exact counts by rank after setup
};

Inputs Generate(const Workload& w, uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  in.salt = Mix(seed ^ 0xB5F0C0FFEEull);
  const ZipfSampler zipf(w.universe, w.zipf);
  std::vector<uint32_t> ranks(kBatch);
  auto batch = [&](Stream& s, Op op) {
    for (uint32_t& r : ranks) r = static_cast<uint32_t>(zipf.Sample(rng));
    s.Add(op, ranks.data(), kBatch, in.salt);
  };
  switch (w.top) {
    case Top::kDurable:
      for (uint32_t i = 0; i < kDurablePrefillSteps; ++i) batch(in.prefill, Op::kInsert);
      for (uint32_t i = 0; i < kDurableSteps; ++i) {
        batch(in.timed, Op::kInsert);
        if (i % 4 == 3) batch(in.timed, Op::kEstimate);
        if ((i + 1) % kDurableCheckpointEvery == 0 && i + 1 < kDurableSteps) {
          in.timed.AddControl(Op::kCheckpoint);
        }
      }
      break;
    case Top::kConcurrent:
      // Every key once loads the 2 GiB filter to 27% of its counters, so
      // its errors are frequent enough to measure.
      in.prefill_universe = true;
      for (uint32_t i = 0; i < kDramSteps; ++i) {
        batch(in.timed, Op::kInsert);
        batch(in.timed, Op::kEstimate);
      }
      break;
    case Top::kWindow: {
      // pushed[] is the window's FIFO over prefill and timed pushes: timed
      // step t evicts pushed[t] and queries a uniformly chosen occurrence
      // still in the window.
      std::vector<uint32_t> pushed;
      pushed.reserve(w.window + kWindowSteps);
      for (size_t i = 0; i < w.window; ++i) {
        const uint32_t r = static_cast<uint32_t>(zipf.Sample(rng));
        pushed.push_back(r);
        in.prefill.Add(Op::kInsert, &r, 1, in.salt);
      }
      for (uint32_t t = 0; t < kWindowSteps; ++t) {
        const uint32_t r = static_cast<uint32_t>(zipf.Sample(rng));
        pushed.push_back(r);
        in.timed.Add(Op::kInsert, &r, 1, in.salt);
        in.timed.Add(Op::kRemove, &pushed[t], 1, in.salt);
        const uint32_t q = pushed[t + 1 + rng.UniformInt(w.window)];
        in.timed.Add(Op::kEstimate, &q, 1, in.salt);
      }
      break;
    }
  }
  in.timed.AddControl(Op::kFlush);

  in.truth.assign(static_cast<size_t>(w.universe) + 1,
                  in.prefill_universe ? 1u : 0u);
  in.truth[0] = 0;
  for (const uint32_t r : in.prefill.ranks) ++in.truth[r];
  return in;
}

// --- replay --------------------------------------------------------------------

// Runs the stream through `t`, writing the estimate steps' outputs to
// `est`. With `steps` attached, every kChunkSteps steps are timed as one
// span.
constexpr uint32_t kChunkSteps = 1024;
void Replay(const Stream& s, Target& t, uint64_t* est,
            Recorder* steps = nullptr) {
  uint32_t in_chunk = 0;
  uint64_t chunk_keys = 0;
  int64_t chunk_start = steps != nullptr ? Ticks() : 0;
  for (const Step& step : s.steps) {
    const uint64_t* keys = s.keys.data() + step.begin;
    switch (step.op) {
      case Op::kInsert: t.Insert(keys, step.n); break;
      case Op::kRemove: t.Remove(keys, step.n); break;
      case Op::kEstimate:
        if (t.Estimate(keys, step.n, est) && est != nullptr) est += step.n;
        break;
      case Op::kCheckpoint: t.Checkpoint(); break;
      case Op::kFlush: t.Flush(); break;
    }
    if (steps == nullptr) continue;
    chunk_keys += step.n;
    if (++in_chunk == kChunkSteps || &step == &s.steps.back()) {
      steps->RecordSteps(in_chunk, chunk_keys, chunk_start, Ticks());
      in_chunk = 0;
      chunk_keys = 0;
      chunk_start = Ticks();
    }
  }
}

void Prefill(const Workload& w, const Inputs& in, Target& t) {
  Replay(in.prefill, t, nullptr);
  if (!in.prefill_universe) return;
  std::vector<uint64_t> keys(kBatch);
  for (uint32_t first = 1; first <= w.universe; first += kBatch) {
    const uint32_t n = std::min(kBatch, w.universe - first + 1);
    for (uint32_t i = 0; i < n; ++i) keys[i] = KeyOf(first + i, in.salt);
    t.Insert(keys.data(), n);
  }
}

uint64_t TimedKeys(const Stream& s) {
  return s.CountKeys(Op::kInsert) + s.CountKeys(Op::kEstimate) +
         s.CountKeys(Op::kRemove);
}

sbf::DurableOptions StoreOptions(const Workload& w) {
  sbf::DurableOptions o;
  o.filter = w.filter;
  // Appends are written to the log but not fsynced one by one; the timed
  // phase ends in one SyncLog(), and each checkpoint fsyncs its file and
  // directory. The store lives in the checkout, on a disk shared with
  // other machines, where a per-append fsync measures the neighbours' I/O
  // rather than the program (see README.md, "Flush policy").
  o.sync_each_append = false;
  return o;
}

std::unique_ptr<Target> MakeTop(const Workload& w, const std::string& dir) {
  switch (w.top) {
    case Top::kDurable:
      return std::make_unique<DurableTarget>(dir, StoreOptions(w));
    case Top::kConcurrent:
      return std::make_unique<ConcurrentTarget>(w.filter, w.point);
    case Top::kWindow:
      return std::make_unique<WindowTarget>(w.filter, w.window);
  }
  return nullptr;
}

// --- checks ----------------------------------------------------------------------

// Checks one level's outputs after its timed replay: every estimate against
// the exact counts, call statuses, structural invariants. Returns the exact
// counts at the end of the stream.
std::vector<uint32_t> VerifyLevel(const Inputs& in, const Target& target,
                                  const std::vector<uint64_t>& est,
                                  bool answered, CheckResult* checks) {
  std::vector<uint32_t> truth = in.truth;
  CheckEstimates(in.timed, answered ? est.data() : nullptr, &truth, nullptr,
                 checks);
  if (target.status_failures() > 0) {
    checks->Fail(target.status_failures(), "calls returned a non-OK status");
  }
  const sbf::Status inv = target.CheckInvariants();
  if (!inv.ok()) checks->Fail(1, "CheckInvariants: " + inv.message());
  return truth;
}

// The paper's section 6.1 errors over a fixed sample of the universe (every
// error_stride-th rank, present or absent), queried after the timed phase
// so that every key is one independent query. Queries only; the sample is
// one-sided-checked like every other estimate.
sbf::ErrorStats MeasureErrors(const Workload& w, const Inputs& in,
                              Target& target,
                              const std::vector<uint32_t>& truth,
                              CheckResult* checks) {
  sbf::ErrorStats errors;
  std::vector<uint64_t> keys, est(kBatch);
  std::vector<uint32_t> ranks;
  for (uint32_t r = 1; r <= w.universe; r += w.error_stride) {
    ranks.push_back(r);
    keys.push_back(KeyOf(r, in.salt));
    if (keys.size() < kBatch && r + w.error_stride <= w.universe) continue;
    target.Estimate(keys.data(), keys.size(), est.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      errors.Record(est[i], truth[ranks[i]]);
      if (est[i] < truth[ranks[i]]) {
        checks->Fail(1, "sampled estimate below its exact count");
      }
    }
    keys.clear();
    ranks.clear();
  }
  return errors;
}

double CountLive(const std::vector<uint32_t>& truth) {
  return static_cast<double>(
      std::count_if(truth.begin(), truth.end(), [](uint32_t c) { return c > 0; }));
}

std::vector<uint64_t> LiveKeys(const std::vector<uint32_t>& truth,
                               uint64_t salt) {
  std::vector<uint64_t> keys;
  for (uint32_t r = 1; r < truth.size(); ++r) {
    if (truth[r] > 0) keys.push_back(KeyOf(r, salt));
  }
  return keys;
}

// Closes and reopens the store; every live key must estimate exactly as it
// did before close, and the recovered filter must pass its audit.
void CheckRecovery(DurableTarget& d, const std::vector<uint64_t>& live,
                   CheckResult* checks) {
  std::vector<uint64_t> before(live.size()), after(live.size());
  d.store().EstimateBatch(live.data(), live.size(), before.data());
  d.Close();
  d.Reopen();
  d.store().EstimateBatch(live.data(), live.size(), after.data());
  CheckRecovered(before, after, checks);
  const sbf::Status inv = d.CheckInvariants();
  if (!inv.ok()) checks->Fail(1, "recovered CheckInvariants: " + inv.message());
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- gating episodes -----------------------------------------------------------

// Times are wall-clock: the client is one thread in a closed loop, so the
// wall time of the timed phase is what it waits for, fsync included. The
// thread's CPU time is kept alongside in the episodes line; on
// durable_ingest the difference is the time spent waiting on the device.
struct Episode {
  double setup_s = 0.0;
  double timed_s = 0.0;
  double timed_cpu_s = 0.0;
  sbf::ErrorStats errors;
  double memory_bits_per_key = 0.0;
  CheckResult checks;
};

Episode RunEpisode(const Workload& w, const Inputs& in, const std::string& dir) {
  Episode e;
  std::filesystem::remove_all(dir);
  std::vector<uint64_t> est(in.timed.CountKeys(Op::kEstimate));

  const int64_t setup_start = NowNs();
  std::unique_ptr<Target> target = MakeTop(w, dir);
  Prefill(w, in, *target);
  e.setup_s = SecondsSince(setup_start);

  const int64_t timed_start = NowNs();
  const int64_t timed_cpu_start = ThreadCpuNs();
  Replay(in.timed, *target, est.data());
  e.timed_s = SecondsSince(timed_start);
  e.timed_cpu_s = CpuSecondsSince(timed_cpu_start);

  const std::vector<uint32_t> truth = VerifyLevel(in, *target, est, true, &e.checks);
  e.errors = MeasureErrors(w, in, *target, truth, &e.checks);
  e.memory_bits_per_key =
      static_cast<double>(target->MemoryBits()) / CountLive(truth);
  if (w.top == Top::kDurable) {
    CheckRecovery(static_cast<DurableTarget&>(*target), LiveKeys(truth, in.salt),
                  &e.checks);
  }
  // The store directory stays until the run ends: deleting files makes the
  // file system discard their blocks while the next episode runs.
  target.reset();
  return e;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

struct Result {
  uint64_t attempted = 0;
  CheckResult checks;
  Metrics metrics;
  std::vector<std::string> extra_lines;  // printed before the result line
};

// Runs episodes until --seconds have passed (at least kMinEpisodes). Every
// episode replays the same stream, so its deterministic outputs must match
// the first episode's exactly.
std::vector<Episode> RunEpisodes(const Workload& w, const Inputs& in,
                                 double seconds, const std::string& store_root,
                                 Result* r) {
  std::vector<Episode> episodes;
  const int64_t start = NowNs();
  while (static_cast<int>(episodes.size()) < kMinEpisodes ||
         (SecondsSince(start) < seconds &&
          static_cast<int>(episodes.size()) < kMaxEpisodes)) {
    const std::string dir =
        store_root + "/episode-" + std::to_string(episodes.size());
    Episode e = RunEpisode(w, in, dir);
    r->attempted += TimedKeys(in.timed);
    r->checks.failed += e.checks.failed;
    for (const std::string& note : e.checks.notes) r->checks.Fail(0, note);
    if (!episodes.empty()) {
      const Episode& first = episodes.front();
      if (e.errors.num_errors() != first.errors.num_errors() ||
          e.errors.AdditiveError() != first.errors.AdditiveError() ||
          e.memory_bits_per_key != first.memory_bits_per_key) {
        r->checks.Fail(1, "episode " + std::to_string(episodes.size()) +
                              " outputs differ from episode 0 at the same seed");
      }
    }
    episodes.push_back(std::move(e));
  }
  return episodes;
}

void GatingRun(const Workload& w, const Inputs& in, double seconds,
               const std::string& store_root, Result* r) {
  const std::vector<Episode> episodes =
      RunEpisodes(w, in, seconds, store_root, r);
  std::vector<double> setup, throughput, cpu_throughput;
  const double keys = static_cast<double>(TimedKeys(in.timed));
  for (const Episode& e : episodes) {
    setup.push_back(e.setup_s);
    throughput.push_back(keys / e.timed_s);
    cpu_throughput.push_back(keys / e.timed_cpu_s);
  }
  const Episode& first = episodes.front();
  r->metrics = {
      {"setup_s", {Median(setup), "s"}},
      {"ops_keys_per_s", {Median(throughput), "keys/s"}},
      {"error_ratio", {first.errors.ErrorRatio(), "ratio"}},
      {"error_add", {first.errors.AdditiveError(), "count"}},
      {"memory_bits_per_key", {first.memory_bits_per_key, "bits/key"}},
  };
  std::string line = "{\"episodes\": " + std::to_string(episodes.size());
  for (const auto& [name, values] :
       {std::pair<const char*, const std::vector<double>*>{"setup_s", &setup},
        {"keys_per_s", &throughput},
        {"cpu_keys_per_s", &cpu_throughput}}) {
    line += std::string(", \"") + name + "\": [";
    for (size_t i = 0; i < values->size(); ++i) {
      line += (i ? ", " : "") + JsonNumber((*values)[i]);
    }
    line += "]";
  }
  r->extra_lines.push_back(line + "}");
}

// --- traced run (layer peel) ---------------------------------------------------

enum class Level {
  kDurable, kWal, kWindow, kConcurrentDelta, kConcurrentDirect, kShards,
  kHash, kCounters
};
const char* LevelName(Level level) {
  switch (level) {
    case Level::kDurable: return "io.durable_store";
    case Level::kWal: return "io.delta_log";
    case Level::kWindow: return "core.sliding_window";
    case Level::kConcurrentDelta: return "core.concurrent_sbf+delta_buffer";
    case Level::kConcurrentDirect: return "core.concurrent_sbf";
    case Level::kShards: return "core.spectral_bloom_filter";
    case Level::kHash: return "hashing.hash_family";
    case Level::kCounters: return "sai.counter_vector";
  }
  return "?";
}

std::vector<Level> LevelsOf(const Workload& w) {
  std::vector<Level> levels;
  if (w.top == Top::kDurable) levels = {Level::kDurable, Level::kWal};
  if (w.top == Top::kWindow) levels = {Level::kWindow};
  levels.push_back(Level::kConcurrentDelta);
  // Delta buffers only engage under Minimum Selection; with them inactive
  // the delta-off level would replay the very same code, so it is skipped
  // and the layer's self cost is zero.
  if (w.filter.delta.enabled &&
      w.filter.policy == sbf::SbfPolicy::kMinimumSelection) {
    levels.push_back(Level::kConcurrentDirect);
  }
  for (Level l : {Level::kShards, Level::kHash, Level::kCounters}) {
    levels.push_back(l);
  }
  return levels;
}

struct LevelResult {
  int64_t root_ns = 0;
  int64_t cpu_ns = 0;  // client-thread CPU time of the replay
  int64_t call_ns = 0;
  // Replay-to-replay noise of this level's cost: the spread (largest minus
  // smallest) of call_ns over its repeated replays, then widened to the
  // run's largest relative spread (see TracedRun).
  double noise_ns = 0.0;
  std::array<CallStats, kNumCalls> stats{};
  size_t memory_bits = 0;

  [[nodiscard]] double Ns(Call c) const {
    return static_cast<double>(stats[static_cast<int>(c)].ns);
  }
};

// Facts only some levels produce.
struct TraceFacts {
  uint64_t disk_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t wal_bytes = 0;
  uint64_t merges = 0;
  uint64_t merged_keys = 0;
  uint64_t buffered_ops = 0;
  double fill_ratio = 0.0;
  double estimated_fpr = 0.0;
  double recover_s = 0.0;
  double read_scan_s = 0.0;
  double decode_s = 0.0;
  double replay_s = 0.0;
};

std::unique_ptr<Target> MakeLevel(const Workload& w, Level level,
                                  const std::string& dir) {
  sbf::ConcurrentSbfOptions direct = w.filter;
  direct.delta.enabled = false;
  switch (level) {
    case Level::kDurable:
    case Level::kWindow:
      return MakeTop(w, dir);
    case Level::kWal:
      std::filesystem::create_directories(dir);
      return std::make_unique<WalTarget>(dir + "/wal.log", w.filter);
    case Level::kConcurrentDelta:
      return std::make_unique<ConcurrentTarget>(w.filter, w.point);
    case Level::kConcurrentDirect:
      return std::make_unique<ConcurrentTarget>(direct, w.point);
    case Level::kShards:
      return std::make_unique<ShardsTarget>(w.filter, w.point);
    case Level::kHash:
      return std::make_unique<HashTarget>(w.filter, w.point);
    case Level::kCounters:
      return std::make_unique<CounterTarget>(w.filter, w.point);
  }
  return nullptr;
}

// Times RecoverStore's pieces on a closed store through their public
// entry points: reading the newest checkpoint and every log and scanning
// the logs; decoding (and auditing) the checkpoint; replaying the log
// records after it (and the final audit).
void TimeRecoveryPieces(const std::string& dir, uint64_t generation,
                        TraceFacts* f) {
  std::vector<double> read_scan, decode, replay;
  for (int rep = 0; rep < kRecoveryRepeats; ++rep) {
    int64_t t = NowNs();
    std::vector<uint8_t> checkpoint;
    if (!sbf::io::ReadFileBytes(sbf::CheckpointPath(dir, generation), &checkpoint)
             .ok()) {
      Die("read checkpoint in " + dir);
    }
    std::vector<std::vector<uint8_t>> logs;  // the scans' spans point here
    std::vector<sbf::io::LogScan> scans;
    std::vector<uint64_t> generations;
    for (uint64_t g = generation >= 1 ? generation - 1 : 0; g <= generation; ++g) {
      std::vector<uint8_t> bytes;
      if (!sbf::io::ReadFileBytes(sbf::WalPath(dir, g), &bytes).ok()) continue;
      auto scan = sbf::io::ScanLog(bytes);
      if (!scan.ok()) Die("scan log in " + dir);
      logs.push_back(std::move(bytes));
      scans.push_back(std::move(scan).value());
      generations.push_back(g);
    }
    read_scan.push_back(SecondsSince(t));

    t = NowNs();
    auto filter = sbf::ConcurrentSbf::Deserialize(checkpoint);
    if (!filter.ok() || !filter.value().CheckInvariants().ok()) {
      Die("decode checkpoint in " + dir);
    }
    sbf::ConcurrentSbf base = std::move(filter).value();
    decode.push_back(SecondsSince(t));

    t = NowNs();
    for (size_t i = 0; i < scans.size(); ++i) {
      if (generations[i] < generation) continue;
      for (const sbf::io::WalRecord& rec : scans[i].records) {
        if (rec.type != sbf::io::WalRecordType::kDeltaBatch) continue;
        if (rec.is_remove) {
          for (const uint64_t key : rec.keys) base.Remove(key, rec.count);
        } else {
          base.InsertBatch(rec.keys.data(), rec.keys.size(), rec.count);
        }
      }
    }
    if (!base.CheckInvariants().ok()) Die("replayed filter fails its audit");
    replay.push_back(SecondsSince(t));
  }
  f->read_scan_s = Median(read_scan);
  f->decode_s = Median(decode);
  f->replay_s = Median(replay);
}

// Level-specific facts, read after the level's timed replay. `before` is
// the filter's operation tally when the timed replay started.
void CollectFacts(Level level, Target& target,
                  const sbf::ShardMetrics::Snapshot& before, TraceFacts* f) {
  switch (level) {
    case Level::kDurable: {
      auto& d = static_cast<DurableTarget&>(target);
      f->disk_bytes = d.DiskBytes();
      f->checkpoints = d.store().Stats().checkpoints_written;
      const uint64_t generation = d.store().generation();
      d.Close();
      std::vector<double> open_s;
      for (int rep = 0; rep < kRecoveryRepeats; ++rep) {
        open_s.push_back(d.Reopen());
        d.Close();
      }
      f->recover_s = Median(open_s);
      TimeRecoveryPieces(d.dir(), generation, f);
      d.Reopen();
      break;
    }
    case Level::kWal:
      f->wal_bytes = static_cast<WalTarget&>(target).bytes_written();
      break;
    case Level::kConcurrentDelta: {
      const sbf::ConcurrentSbf& filter =
          static_cast<ConcurrentTarget&>(target).filter();
      const sbf::ShardMetrics::Snapshot totals = filter.metrics().Totals();
      f->merges = totals.delta_merges - before.delta_merges;
      f->merged_keys = totals.delta_merged_keys - before.delta_merged_keys;
      f->buffered_ops =
          filter.IsDeltaBuffered()
              ? totals.inserted_keys + totals.removed_keys -
                    before.inserted_keys - before.removed_keys
              : 0;
      const sbf::FilterHealth health = filter.Health();
      f->fill_ratio = health.fill_ratio;
      f->estimated_fpr = health.estimated_fpr;
      break;
    }
    default:
      break;
  }
}

void WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<Level>& levels) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) Die("cannot write spans to " + path);
  for (const SpanRecord& s : spans) {
    const char* name = s.call == kRootSpan    ? "level"
                       : s.call == kChunkSpan ? "chunk"
                                              : CallName(static_cast<Call>(s.call));
    std::fprintf(out,
                 "{\"id\": %d, \"parent\": %d, \"level\": \"%s\", \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"calls\": "
                 "%llu, \"keys\": %llu, \"busy_ns\": %lld}\n",
                 s.id, s.parent, LevelName(levels[static_cast<size_t>(s.level)]),
                 name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.calls),
                 static_cast<unsigned long long>(s.keys),
                 static_cast<long long>(s.busy_ns));
  }
  std::fclose(out);
}

void TracedRun(const Workload& w, const Inputs& in, const std::string& store_root,
               const std::string& trace_dir, uint64_t seed, Result* r) {
  const std::vector<Level> levels = LevelsOf(w);
  std::vector<SpanRecord> spans;
  std::map<Level, LevelResult> results;
  TraceFacts facts;
  std::vector<uint32_t> final_truth;
  // One replay of the stream at one level, on a fresh, prefilled target:
  // untraced, with a span per chunk of steps, or with a span per call.
  enum class Pass { kUntraced, kSteps, kCalls };
  int pass_count = 0;
  auto run_pass = [&](size_t i, Pass pass) {
    const Level level = levels[i];
    const std::string dir = store_root + "/pass-" + std::to_string(pass_count++);
    std::unique_ptr<Target> target = MakeLevel(w, level, dir);
    if (level != Level::kHash) Prefill(w, in, *target);

    sbf::ShardMetrics::Snapshot before;
    if (level == Level::kConcurrentDelta) {
      before = static_cast<ConcurrentTarget&>(*target).filter().metrics().Totals();
    }
    std::vector<SpanRecord> untraced_root;
    Recorder rec(static_cast<int16_t>(i), w.point,
                 pass == Pass::kUntraced ? &untraced_root : &spans);
    std::vector<uint64_t> est(in.timed.CountKeys(Op::kEstimate));
    if (pass == Pass::kCalls) target->set_recorder(&rec);
    const int64_t cpu_start = ThreadCpuNs();
    rec.Begin();
    Replay(in.timed, *target, est.data(), pass == Pass::kSteps ? &rec : nullptr);
    rec.End();
    const int64_t cpu_ns = ThreadCpuNs() - cpu_start;
    target->set_recorder(nullptr);

    if (pass != Pass::kUntraced) CollectFacts(level, *target, before, &facts);
    const bool answers = level != Level::kWal && level != Level::kHash;
    std::vector<uint32_t> truth = VerifyLevel(in, *target, est, answers, &r->checks);
    r->attempted += TimedKeys(in.timed);
    if (i == 0) final_truth = std::move(truth);
    LevelResult lr;
    lr.root_ns = rec.RootNs();
    lr.cpu_ns = cpu_ns;
    lr.call_ns = rec.CallNs();
    for (int c = 0; c < kNumCalls; ++c) lr.stats[c] = rec.stats(static_cast<Call>(c));
    lr.memory_bits = target->MemoryBits();
    return lr;
  };
  // Each level is replayed trace_repeats times on fresh targets, and the
  // repeat with the median cost (the lower one of two) stands for it: the
  // speed of one structure moves by 10% and more from one replay to the
  // next on a shared host, and the repeats' spread is kept as the level's
  // noise. The repeats go round the levels in turn, so that a drift of the
  // host's speed during the run spreads over every level alike. Batch
  // calls are long enough to span one by one; point workloads take the
  // ledger from passes timed in chunks of steps, and the per-call split and
  // percentiles from per-call passes. Each of the ledger's own passes of
  // level 0 follows an untraced one; the pair's wall-clock times give the
  // tracing overhead, and the untraced one's CPU time against its
  // wall-clock time the share of it the client spent waiting.
  const Pass ledger_pass = w.point ? Pass::kSteps : Pass::kCalls;
  std::vector<std::vector<LevelResult>> ledger_passes(levels.size());
  std::vector<std::vector<LevelResult>> call_passes(levels.size());
  std::vector<double> untraced_ns, traced_ns, overheads, waits;
  for (int rep = 0; rep < w.trace_repeats; ++rep) {
    for (size_t i = 0; i < levels.size(); ++i) {
      if (w.point) call_passes[i].push_back(run_pass(i, Pass::kCalls));
      const LevelResult untraced_pass =
          i == 0 ? run_pass(i, Pass::kUntraced) : LevelResult{};
      const double untraced = static_cast<double>(untraced_pass.root_ns);
      ledger_passes[i].push_back(run_pass(i, ledger_pass));
      if (i == 0) {
        waits.push_back(1.0 - static_cast<double>(untraced_pass.cpu_ns) / untraced);
        untraced_ns.push_back(untraced);
        traced_ns.push_back(static_cast<double>(ledger_passes[i].back().root_ns));
        overheads.push_back(traced_ns.back() / untraced - 1.0);
      }
    }
  }
  auto median_pass = [](std::vector<LevelResult>& passes) {
    std::sort(passes.begin(), passes.end(),
              [](const LevelResult& a, const LevelResult& b) {
                return a.call_ns < b.call_ns;
              });
    LevelResult median = passes[(passes.size() - 1) / 2];
    median.noise_ns =
        static_cast<double>(passes.back().call_ns - passes.front().call_ns);
    return median;
  };
  // A change of the host's speed during the run moves every level in
  // proportion to its cost, but a level's own two or three repeats can
  // happen to miss it. So each level's noise is the run's largest relative
  // spread over any level, applied to that level's cost.
  double relative_noise = 0.0;
  for (size_t i = 0; i < levels.size(); ++i) {
    LevelResult lr = median_pass(ledger_passes[i]);
    if (w.point) lr.stats = median_pass(call_passes[i]).stats;
    if (lr.call_ns > 0) {
      relative_noise = std::max(
          relative_noise, lr.noise_ns / static_cast<double>(lr.call_ns));
    }
    results[levels[i]] = std::move(lr);
  }
  for (auto& [level, lr] : results) {
    lr.noise_ns = relative_noise * static_cast<double>(lr.call_ns);
  }

  // Layer self costs: each level's cost minus the cost of the levels below
  // it. They telescope to the level-0 cost.
  const LevelResult absent;
  auto has = [&](Level l) { return results.count(l) > 0; };
  auto get = [&](Level l) -> const LevelResult& {
    return has(l) ? results.at(l) : absent;
  };
  auto total = [&](Level l) { return static_cast<double>(get(l).call_ns); };
  auto ns = [&](Level l, Call c) { return get(l).Ns(c); };
  // Without delta buffers the delta-off level is the delta-on one.
  const Level direct =
      has(Level::kConcurrentDirect) ? Level::kConcurrentDirect : Level::kConcurrentDelta;
  auto per = [](double v, double n) { return n > 0 ? v / n : 0.0; };

  const double insert_keys = static_cast<double>(in.timed.CountKeys(Op::kInsert));
  const double estimate_keys = static_cast<double>(in.timed.CountKeys(Op::kEstimate));
  const double remove_keys = static_cast<double>(in.timed.CountKeys(Op::kRemove));
  const double all_keys = static_cast<double>(TimedKeys(in.timed));
  const double appended_keys =
      insert_keys + static_cast<double>(in.prefill.CountKeys(Op::kInsert));
  const double live_keys = CountLive(final_truth);

  // A row is a level's cost minus the levels it is peeled down to; its
  // noise is the sum of those levels' replay-to-replay noise.
  std::vector<LedgerRow> ledger;
  auto row = [&](const char* layer, Level level, std::vector<Level> below) {
    LedgerRow lr{layer, total(level), get(level).noise_ns};
    for (const Level l : below) {
      lr.self_ns -= total(l);
      lr.noise_ns += get(l).noise_ns;
    }
    ledger.push_back(lr);
  };
  if (has(Level::kDurable)) {
    row("io.durable_store", Level::kDurable, {Level::kWal, Level::kConcurrentDelta});
    row("io.delta_log", Level::kWal, {});
  }
  if (has(Level::kWindow)) {
    row("core.sliding_window", Level::kWindow, {Level::kConcurrentDelta});
  }
  if (direct != Level::kConcurrentDelta) {
    row("core.delta_buffer", Level::kConcurrentDelta, {direct});
  }
  row("core.concurrent_sbf", direct, {Level::kShards});
  // The counter level hashes its keys too (see CounterTarget).
  row("core.spectral_bloom_filter", Level::kShards, {Level::kCounters});
  row("hashing.hash_family", Level::kHash, {});
  row("sai.counter_vector", Level::kCounters, {Level::kHash});

  // What the level-0 root span holds beyond its calls is the harness's own
  // time.
  const LevelResult& top = get(levels.front());
  const double root_ns = static_cast<double>(top.root_ns);
  const double unattributed = root_ns - static_cast<double>(top.call_ns);
  const double unattributed_share = unattributed / root_ns;
  const double overhead_share = Median(overheads);

  std::string line = "{\"ledger\": {\"workload\": \"" + w.name +
                     "\", \"level0_ns\": " + JsonNumber(root_ns) +
                     ", \"level0_untraced_ns\": " + JsonNumber(Median(untraced_ns)) +
                     ", \"level0_traced_ns\": " + JsonNumber(Median(traced_ns)) +
                     ", \"rows\": [";
  for (size_t i = 0; i < ledger.size(); ++i) {
    line += std::string(i ? ", " : "") + "{\"layer\": \"" + ledger[i].layer +
            "\", \"self_ns\": " + JsonNumber(ledger[i].self_ns) +
            ", \"share\": " + JsonNumber(ledger[i].self_ns / root_ns) +
            ", \"noise_ns\": " + JsonNumber(ledger[i].noise_ns) +
            ", \"verdict\": \"" + VerdictName(Judge(ledger[i])) + "\"}";
  }
  line += ", {\"layer\": \"unattributed\", \"self_ns\": " +
          JsonNumber(unattributed) + ", \"share\": " +
          JsonNumber(unattributed_share) + "}]}}";
  r->extra_lines.push_back(line);

  // Ledger consistency: no layer may cost less than nothing by more than
  // the noise of the levels it is computed from, and tracing must not
  // distort the stream by more than it is allowed to.
  CheckLedger(ledger, &r->checks);
  if (overhead_share > kMaxTraceOverhead) {
    r->checks.Fail(1, "tracing overhead " + JsonNumber(overhead_share) +
                          " exceeds the stated " + JsonNumber(kMaxTraceOverhead));
  }

  auto calls = [&](Level l, Call c) -> const CallStats& {
    return get(l).stats[static_cast<int>(c)];
  };
  const CallStats& appends = calls(Level::kDurable, Call::kInsert);
  const CallStats& checkpoints = calls(Level::kDurable, Call::kCheckpoint);
  const CallStats& syncs = calls(Level::kWal, Call::kSync);
  auto p99_us = [&](Call c) {
    return Percentile(calls(Level::kConcurrentDelta, c).call_ns, 0.99) / 1e3;
  };
  auto concurrent_self = [&](Call c, double keys) {
    return per(ns(direct, c) - ns(Level::kShards, c), keys);
  };
  auto sbf_self = [&](Call c, double keys) {
    return per(ns(Level::kShards, c) - ns(Level::kCounters, c), keys);
  };
  auto counter_self = [&](Call c) {
    return ns(Level::kCounters, c) - ns(Level::kHash, c);
  };
  const double recover_pieces = facts.read_scan_s + facts.decode_s + facts.replay_s;
  const double delta_memory =
      static_cast<double>(get(Level::kConcurrentDelta).memory_bits) -
      static_cast<double>(get(direct).memory_bits);

  r->metrics = {
      {"io.durable_store.append_ns_per_key",
       {per(ns(Level::kDurable, Call::kInsert) - total(Level::kWal) -
                ns(Level::kConcurrentDelta, Call::kInsert),
            has(Level::kDurable) ? insert_keys : 0.0), "ns/key"}},
      {"io.durable_store.append_p50_us", {Percentile(appends.call_ns, 0.5) / 1e3, "us"}},
      {"io.durable_store.append_p99_us", {Percentile(appends.call_ns, 0.99) / 1e3, "us"}},
      {"io.durable_store.append_p999_us", {Percentile(appends.call_ns, 0.999) / 1e3, "us"}},
      {"io.durable_store.append_samples", {static_cast<double>(appends.calls), "count"}},
      {"io.durable_store.checkpoint_ms",
       {per(static_cast<double>(checkpoints.ns), static_cast<double>(checkpoints.calls)) / 1e6,
        "ms"}},
      {"io.durable_store.checkpoints", {static_cast<double>(facts.checkpoints), "count"}},
      {"io.durable_store.device_wait_share",
       {has(Level::kDurable) ? Median(waits) : 0.0, "ratio"}},
      {"io.durable_store.disk_bytes_per_key",
       {per(static_cast<double>(facts.disk_bytes), appended_keys), "bytes/key"}},
      {"io.delta_log.encode_ns_per_key", {per(ns(Level::kWal, Call::kEncode), insert_keys), "ns/key"}},
      {"io.delta_log.write_ns_per_key", {per(ns(Level::kWal, Call::kWrite), insert_keys), "ns/key"}},
      {"io.delta_log.sync_us_p50", {Percentile(syncs.call_ns, 0.5) / 1e3, "us"}},
      {"io.delta_log.sync_calls", {static_cast<double>(syncs.calls), "count"}},
      {"io.delta_log.bytes_per_key",
       {per(static_cast<double>(facts.wal_bytes), appended_keys), "bytes/key"}},
      {"io.recover.recover_s", {facts.recover_s, "s"}},
      {"io.recover.read_scan_s", {facts.read_scan_s, "s"}},
      {"io.recover.decode_s", {facts.decode_s, "s"}},
      {"io.recover.replay_s", {facts.replay_s, "s"}},
      {"io.recover.unattributed_share",
       {per(facts.recover_s - recover_pieces, facts.recover_s), "ratio"}},
      {"core.sliding_window.ns_per_step",
       {per(total(Level::kWindow) - total(Level::kConcurrentDelta),
            has(Level::kWindow) ? insert_keys : 0.0), "ns/step"}},
      {"core.concurrent_sbf.insert_ns_per_key", {concurrent_self(Call::kInsert, insert_keys), "ns/key"}},
      {"core.concurrent_sbf.estimate_ns_per_key", {concurrent_self(Call::kEstimate, estimate_keys), "ns/key"}},
      {"core.concurrent_sbf.remove_ns_per_key", {concurrent_self(Call::kRemove, remove_keys), "ns/key"}},
      {"core.concurrent_sbf.insert_p99_us", {p99_us(Call::kInsert), "us"}},
      {"core.concurrent_sbf.estimate_p99_us", {p99_us(Call::kEstimate), "us"}},
      {"core.concurrent_sbf.remove_p99_us", {p99_us(Call::kRemove), "us"}},
      {"core.delta_buffer.ns_per_key",
       {per(total(Level::kConcurrentDelta) - total(direct), all_keys),
        "ns/key"}},
      {"core.delta_buffer.merges", {static_cast<double>(facts.merges), "count"}},
      {"core.delta_buffer.merged_keys", {static_cast<double>(facts.merged_keys), "count"}},
      {"core.delta_buffer.coalesce_ratio",
       {facts.buffered_ops > 0
            ? 1.0 - static_cast<double>(facts.merged_keys) /
                        static_cast<double>(facts.buffered_ops)
            : 0.0,
        "ratio"}},
      {"core.delta_buffer.flush_ms", {ns(Level::kConcurrentDelta, Call::kFlush) / 1e6, "ms"}},
      {"core.delta_buffer.memory_bits_per_key", {per(delta_memory, live_keys), "bits/key"}},
      {"core.spectral_bloom_filter.insert_ns_per_key", {sbf_self(Call::kInsert, insert_keys), "ns/key"}},
      {"core.spectral_bloom_filter.estimate_ns_per_key", {sbf_self(Call::kEstimate, estimate_keys), "ns/key"}},
      {"core.spectral_bloom_filter.remove_ns_per_key", {sbf_self(Call::kRemove, remove_keys), "ns/key"}},
      {"hashing.hash_family.ns_per_key", {per(total(Level::kHash), all_keys), "ns/key"}},
      {"sai.counter_vector.get_ns_per_key",
       {per(counter_self(Call::kEstimate), estimate_keys), "ns/key"}},
      {"sai.counter_vector.update_ns_per_key",
       {per(counter_self(Call::kInsert) + counter_self(Call::kRemove),
            insert_keys + remove_keys), "ns/key"}},
      {"util.health.estimated_fpr", {facts.estimated_fpr, "ratio"}},
      {"util.health.fill_ratio", {facts.fill_ratio, "ratio"}},
      {"ledger.unattributed_share", {unattributed_share, "ratio"}},
      {"trace.overhead_share", {overhead_share, "ratio"}},
  };

  std::filesystem::create_directories(trace_dir);
  const std::string path =
      trace_dir + "/" + w.name + "-seed" + std::to_string(seed) + ".spans.jsonl";
  WriteSpans(path, spans, levels);
  r->extra_lines.push_back("{\"spans\": \"" + path + "\", \"count\": " +
                           std::to_string(spans.size()) + "}");
}

// --- host and build context ----------------------------------------------------

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  const size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first, last - first + 1);
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string ContextLine(const Workload& w, uint64_t seed, double seconds,
                        bool trace, const std::string& store_root) {
  std::string line = "{\"context\": {\"workload\": " + Quote(w.name) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"seconds\": " + JsonNumber(seconds) +
                     ", \"trace\": " + (trace ? "1" : "0");
  line += ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  line += ", \"cpu_model\": " + Quote(CpuModel());
  line += ", \"l2_bytes\": " + std::to_string(::sysconf(_SC_LEVEL2_CACHE_SIZE));
  line += ", \"l3_bytes\": " + std::to_string(::sysconf(_SC_LEVEL3_CACHE_SIZE));
  for (const auto& p : sbf::bench::StandardContext()) {
    line += ", " + Quote(p.key) + ": " + p.rendered;
  }
  line += ", \"store_fs\": " + Quote(FilesystemType(store_root));
  line += std::string(", \"flush_policy\": ") +
          (w.top == Top::kDurable
               ? "\"sync_each_append=false: one SyncLog at the end of the timed phase; checkpoints fsync file and directory\""
               : "\"none (no I/O)\"");
  line += ", \"filter\": {\"m\": " + std::to_string(w.filter.m) +
          ", \"k\": " + std::to_string(w.filter.k) + ", \"policy\": " +
          Quote(w.filter.policy == sbf::SbfPolicy::kMinimalIncrease
                    ? "minimal_increase"
                    : "minimum_selection") +
          ", \"backing\": " + Quote(sbf::CounterBackingName(w.filter.backing)) +
          ", \"shards\": " + std::to_string(w.filter.num_shards) +
          ", \"delta_buffers\": " +
          (w.filter.delta.enabled ? "true" : "false") + "}";
  line += ", \"universe\": " + std::to_string(w.universe) +
          ", \"zipf\": " + JsonNumber(w.zipf) + "}}";
  return line;
}

// --- main ----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string store_dir;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") a->workload = value;
    else if (flag == "--seed") a->seed = std::stoull(value);
    else if (flag == "--seconds") a->seconds = std::stod(value);
    else if (flag == "--trace") a->trace = value != "0";
    else if (flag == "--store-dir") a->store_dir = value;
    else if (flag == "--trace-dir") a->trace_dir = value;
    else return false;
  }
  return a->self_test || (!a->workload.empty() && !a->store_dir.empty());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --store-dir <dir> [--trace-dir <dir>]\n"
                 "       perfbench --self-test\n");
    return 2;
  }
  // The checks must catch planted faults before they are trusted.
  if (!SelfTest()) Die("self-test: the output checks missed a planted fault");
  if (args.self_test) {
    std::printf("self-test ok\n");
    return 0;
  }
  Workload w;
  if (!MakeWorkload(args.workload, &w)) Die("unknown workload " + args.workload);

  const std::string store_root =
      args.store_dir + "/" + w.name + "-seed" + std::to_string(args.seed);
  std::filesystem::remove_all(store_root);
  std::filesystem::create_directories(store_root);
  std::printf("%s\n",
              ContextLine(w, args.seed, args.seconds, args.trace, store_root).c_str());
  std::fflush(stdout);

  const Inputs in = Generate(w, args.seed);
  Result r;
  if (args.trace) {
    const std::string trace_dir =
        args.trace_dir.empty() ? args.store_dir + "/traces" : args.trace_dir;
    TracedRun(w, in, store_root, trace_dir, args.seed, &r);
  } else {
    GatingRun(w, in, args.seconds, store_root, &r);
  }
  std::filesystem::remove_all(store_root);

  const uint64_t failed = std::min(r.checks.failed, r.attempted);
  if (!args.trace) {
    r.metrics.push_back(
        {"ok_ops_ratio",
         {static_cast<double>(r.attempted - failed) / static_cast<double>(r.attempted),
          "ratio"}});
  }
  for (const std::string& note : r.checks.notes) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", note.c_str());
  }
  for (const std::string& line : r.extra_lines) std::printf("%s\n", line.c_str());

  const bool correct = r.checks.failed == 0;
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    out += std::string(i ? ", " : "") + Quote(r.metrics[i].first) +
           ": {\"value\": " + JsonNumber(r.metrics[i].second.first) +
           ", \"unit\": " + Quote(r.metrics[i].second.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
