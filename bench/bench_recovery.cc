// Durability economics (DESIGN.md §10): what crash recovery costs as the
// delta WAL grows, and what a checkpoint costs to write. Recovery replays
// the log suffix onto the newest good checkpoint, so its time is linear in
// the records written since that checkpoint — the sweep makes the constant
// visible (records/s replayed) and the checkpoint rows show the compaction
// cost that bounds it. A final pair contrasts recovery of a long
// uncheckpointed log against the same history compacted by one checkpoint:
// the ratio is the argument for the size-triggered background
// checkpointer. The `checkpoint_ingest` row times one checkpoint of a
// loaded filter at the perfbench durable_ingest geometry, with the
// filter's Serialize beside it split into its counter decode and stream
// encode per counter; the `serialize_stage` rows set the library's
// Serialize against a one-thread encode of the same frame, and
// `empty_frame` times the empty filter frame every log header embeds.
//
// Every cell is the median of round-robin repeats (bench::TimeInterleaved)
// with its min/max. Emits BENCH_recovery.json. Numbers are wall-clock file
// I/O and are NOT gated in CI (shared runners' disks are noisy);
// EXPERIMENTS.md quotes a reference transcript.

#include <algorithm>
#include <functional>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_json.h"
#include "hashing/hash.h"
#include "io/durable_store.h"
#include "io/wire.h"
#include "sai/counter_codec.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/zipf.h"

namespace {

using sbf::ConcurrentSbf;
using sbf::Timer;
using sbf::bench::BenchJson;
using sbf::bench::CellTiming;
using sbf::bench::SpreadParams;
using sbf::bench::TimeInterleaved;
using sbf::DurableOptions;
using sbf::DurableSbf;

// A scratch store directory per sweep cell, removed on destruction.
class ScopedDir {
 public:
  ScopedDir() {
    char tmpl[] = "/tmp/sbf_bench_recovery_XXXXXX";
    char* made = mkdtemp(tmpl);
    path_ = made != nullptr ? made : "/tmp/sbf_bench_recovery_fallback";
  }
  ~ScopedDir() { std::system(("rm -rf '" + path_ + "'").c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DurableOptions MakeOptions() {
  DurableOptions options;
  options.filter.m = 1 << 16;
  options.filter.k = 4;
  options.filter.num_shards = 8;
  options.filter.seed = 7;
  // One fsync per append would time the disk, not recovery; batch-sync on
  // close instead (the recovery path being measured is identical).
  options.sync_each_append = false;
  options.checkpoint_log_bytes = 0;  // no size trigger; explicit only
  return options;
}

// Writes `records` delta batches of `batch` keys each and returns the
// final WAL size in bytes.
uint64_t WriteLog(DurableSbf& store, uint64_t records, uint64_t batch) {
  std::vector<uint64_t> keys(batch);
  for (uint64_t r = 0; r < records; ++r) {
    for (uint64_t i = 0; i < batch; ++i) {
      keys[i] = (r * batch + i) * 2654435761u % 1000003;
    }
    if (!store.InsertBatch(keys.data(), keys.size()).ok()) std::abort();
  }
  if (!store.SyncLog().ok()) std::abort();
  return store.Stats().wal_bytes;
}

double TimedReopen(const std::string& dir, const DurableOptions& options,
                   uint64_t expect_replayed) {
  Timer timer;
  auto reopened = DurableSbf::Open(dir, options);
  const double seconds = timer.ElapsedSeconds();
  if (!reopened.ok()) std::abort();
  if (reopened.value()->Stats().replayed_records != expect_replayed) {
    std::abort();
  }
  return seconds;
}

// The frame ConcurrentSbf::Serialize writes, encoded shard by shard on
// the calling thread: the reference its threads must match, and the
// one-thread cost they are measured against.
std::vector<uint8_t> SerialFrame(const ConcurrentSbf& filter) {
  sbf::wire::Writer payload;
  payload.PutVarint(filter.num_shards());
  payload.PutVarint(filter.options().m);
  payload.PutU64(filter.options().seed);
  for (uint32_t s = 0; s < filter.num_shards(); ++s) {
    payload.PutFrame(filter.SnapshotShard(s).Serialize());
  }
  return sbf::wire::SealFrame(sbf::wire::kMagicShardedSbf,
                              sbf::wire::kFormatVersion, std::move(payload));
}

// Seconds of one pass of `fn` over every shard's counters.
template <typename Fn>
double TimeShards(const ConcurrentSbf& filter, Fn&& fn) {
  Timer timer;
  for (uint32_t s = 0; s < filter.num_shards(); ++s) {
    fn(filter.shard(s).counters());
  }
  return timer.ElapsedSeconds();
}

double Ms(double seconds) { return seconds * 1e3; }

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }
  const uint64_t batch = 16;
  std::vector<uint64_t> sweep = small
                                    ? std::vector<uint64_t>{1000, 4000}
                                    : std::vector<uint64_t>{1000, 4000,
                                                            16000, 64000};
  const uint64_t nproc = std::thread::hardware_concurrency();

  BenchJson out("BENCH_recovery.json");
  out.SetContext(sbf::bench::StandardContext(/*with_isa=*/false));

  // Recovery time vs log length: an uncheckpointed store replays every
  // record on reopen (a reopen leaves the store as it found it).
  {
    std::vector<std::unique_ptr<ScopedDir>> dirs;
    std::vector<uint64_t> wal_bytes;
    std::vector<std::function<double()>> cells;
    const DurableOptions options = MakeOptions();
    for (uint64_t records : sweep) {
      dirs.push_back(std::make_unique<ScopedDir>());
      const std::string& path = dirs.back()->path();
      {
        auto store = DurableSbf::Open(path, options);
        if (!store.ok()) std::abort();
        wal_bytes.push_back(WriteLog(*store.value(), records, batch));
      }
      cells.push_back([path, options, records] {
        return TimedReopen(path, options, records);
      });
    }
    const std::vector<CellTiming> timings = TimeInterleaved(cells);
    for (size_t c = 0; c < sweep.size(); ++c) {
      const uint64_t records = sweep[c];
      const double seconds = timings[c].median;
      std::vector<BenchJson::Param> params = {{"records", records},
                                              {"batch", batch},
                                              {"wal_bytes", wal_bytes[c]},
                                              {"recovery_ms", Ms(seconds)}};
      for (auto& p : SpreadParams(timings[c], records)) params.push_back(p);
      out.Add("recover_log_only", params,
              seconds * 1e9 / static_cast<double>(records),
              static_cast<double>(records) / seconds / 1e6);
    }
  }

  // Checkpoint cost at the same sweep points: serialize + tmp write +
  // fsync + rename + log rotation. Each repeat writes its log afresh.
  {
    std::vector<std::function<double()>> cells;
    for (uint64_t records : sweep) {
      cells.push_back([records, batch] {
        ScopedDir dir;
        auto store = DurableSbf::Open(dir.path(), MakeOptions());
        if (!store.ok()) std::abort();
        WriteLog(*store.value(), records, batch);
        Timer timer;
        if (!store.value()->Checkpoint().ok()) std::abort();
        return timer.ElapsedSeconds();
      });
    }
    const std::vector<CellTiming> timings = TimeInterleaved(cells);
    for (size_t c = 0; c < sweep.size(); ++c) {
      const uint64_t records = sweep[c];
      const double seconds = timings[c].median;
      std::vector<BenchJson::Param> params = {
          {"records_compacted", records},
          {"batch", batch},
          {"checkpoint_ms", Ms(seconds)}};
      for (auto& p : SpreadParams(timings[c], records)) params.push_back(p);
      out.Add("checkpoint", params,
              seconds * 1e9 / static_cast<double>(records),
              static_cast<double>(records) / seconds / 1e6);
    }
  }

  // The payoff: the same history with one checkpoint plus a short tail
  // replays only the tail. This ratio is what the size-triggered
  // background checkpointer buys.
  {
    const uint64_t records = sweep.back();
    const uint64_t tail = records / 100;
    ScopedDir dir;
    const DurableOptions options = MakeOptions();
    {
      auto store = DurableSbf::Open(dir.path(), options);
      if (!store.ok()) std::abort();
      WriteLog(*store.value(), records, batch);
      if (!store.value()->Checkpoint().ok()) std::abort();
      WriteLog(*store.value(), tail, batch);
    }
    const CellTiming timing = TimeInterleaved(
        {[&] { return TimedReopen(dir.path(), options, tail); }})[0];
    const double seconds = timing.median;
    std::vector<BenchJson::Param> params = {{"records_total", records + tail},
                                            {"records_replayed", tail},
                                            {"batch", batch},
                                            {"recovery_ms", Ms(seconds)}};
    for (auto& p : SpreadParams(timing, tail)) params.push_back(p);
    out.Add("recover_checkpointed", params,
            seconds * 1e9 / static_cast<double>(tail),
            static_cast<double>(tail) / seconds / 1e6);
  }

  // One checkpoint at the durable_ingest geometry: compact backing,
  // Minimum Selection, k = 5, 8 shards, m = 2^22, loaded with 1280
  // batches of 1024 Zipf(1.0) keys over 2^20 ranks; each checkpoint also
  // rotates the log. Beside it, round robin: the filter's Serialize, the
  // same frame encoded on one thread, each shard's counters decoded
  // (DecodeBlock in the counter stream's 256-counter chunks) and
  // stream-encoded (WriteCounterStream, decode included), and the empty
  // frame of the same options.
  {
    const uint64_t batches = small ? 128 : 1280;
    ScopedDir dir;
    DurableOptions options = MakeOptions();
    options.filter.m = uint64_t{1} << 22;
    options.filter.k = 5;
    options.filter.policy = sbf::SbfPolicy::kMinimumSelection;
    options.filter.backing = sbf::CounterBacking::kCompact;
    options.filter.seed = 0x5BF;
    options.filter.delta.max_epoch_micros = 0;
    auto opened = DurableSbf::Open(dir.path(), options);
    if (!opened.ok()) std::abort();
    DurableSbf& store = *opened.value();
    const sbf::ZipfDistribution zipf(uint64_t{1} << 20, 1.0);
    sbf::Xoshiro256 rng(1);
    std::vector<uint64_t> keys(1024);
    for (uint64_t b = 0; b < batches; ++b) {
      for (uint64_t& key : keys) key = sbf::Mix64(zipf.Sample(rng));
      if (!store.InsertBatch(keys.data(), keys.size()).ok()) std::abort();
    }
    const ConcurrentSbf& filter = store.filter();
    if (filter.Serialize() != SerialFrame(filter)) std::abort();
    const ConcurrentSbf empty(options.filter);
    std::vector<uint64_t> values(256);
    const auto decode = [&values](const sbf::CounterVector& cv) {
      for (size_t base = 0; base < cv.size(); base += values.size()) {
        cv.DecodeBlock(base, std::min(values.size(), cv.size() - base),
                       values.data());
      }
    };
    const auto encode = [](const sbf::CounterVector& cv) {
      sbf::wire::Writer writer;
      sbf::WriteCounterStream(cv, &writer);
    };
    const std::vector<CellTiming> timings = TimeInterleaved(
        {[&] {
           Timer timer;
           const std::vector<uint8_t> frame = filter.Serialize();
           return timer.ElapsedSeconds();
         },
         [&] {
           Timer timer;
           const std::vector<uint8_t> frame = SerialFrame(filter);
           return timer.ElapsedSeconds();
         },
         [&] {
           Timer timer;
           if (!store.Checkpoint().ok()) std::abort();
           return timer.ElapsedSeconds();
         },
         [&] { return TimeShards(filter, decode); },
         [&] { return TimeShards(filter, encode); },
         [&] {
           Timer timer;
           const std::vector<uint8_t> frame = empty.Serialize();
           return timer.ElapsedSeconds();
         }},
        7);
    const CellTiming& serialize = timings[0];
    const CellTiming& serial = timings[1];
    const CellTiming& checkpoint = timings[2];
    const double m = static_cast<double>(options.filter.m);
    const double decode_ns = timings[3].median * 1e9 / m;
    const double stream_ns = timings[4].median * 1e9 / m;
    const uint64_t shards = options.filter.num_shards;
    std::vector<BenchJson::Param> params = {
        {"m", options.filter.m},
        {"shards", shards},
        {"keys", batches * keys.size()},
        {"nproc", nproc},
        {"serialize_ms", Ms(serialize.median)},
        {"checkpoint_ms", Ms(checkpoint.median)},
        {"decode_block_ns_per_counter", decode_ns},
        {"counter_stream_ns_per_counter", stream_ns},
        {"stream_encode_ns_per_counter", stream_ns - decode_ns}};
    for (auto& p : SpreadParams(checkpoint, options.filter.m)) {
      params.push_back(p);
    }
    out.Add("checkpoint_ingest", params, checkpoint.median * 1e9 / m,
            m / (checkpoint.median * 1e6));
    // The encode stages: the one-thread frame is decode (stage 1) and
    // stream encode (stage 2); Serialize adds the shard threads (stage 3).
    const struct {
      const char* stage;
      const CellTiming& timing;
    } stages[] = {{"one_thread", serial}, {"serialize", serialize}};
    for (const auto& row : stages) {
      std::vector<BenchJson::Param> stage_params = {
          {"stage", row.stage},
          {"m", options.filter.m},
          {"shards", shards},
          {"nproc", nproc},
          {"serialize_ms", Ms(row.timing.median)},
          {"speedup_vs_one_thread", serial.median / row.timing.median}};
      for (auto& p : SpreadParams(row.timing, options.filter.m)) {
        stage_params.push_back(p);
      }
      out.Add("serialize_stage", stage_params, row.timing.median * 1e9 / m,
              m / (row.timing.median * 1e6));
    }
    const CellTiming& empty_frame = timings[5];
    std::vector<BenchJson::Param> empty_params = {
        {"m", options.filter.m},
        {"shards", shards},
        {"nproc", nproc},
        {"empty_frame_ms", Ms(empty_frame.median)}};
    for (auto& p : SpreadParams(empty_frame, options.filter.m)) {
      empty_params.push_back(p);
    }
    out.Add("empty_frame", empty_params, empty_frame.median * 1e9 / m,
            m / (empty_frame.median * 1e6));
  }

  return out.WriteFile() ? 0 : 1;
}
