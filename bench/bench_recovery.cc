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
// filter's Serialize alone beside it.
//
// Emits BENCH_recovery.json. Numbers are wall-clock file I/O and are NOT
// gated in CI (shared runners' disks are noisy); EXPERIMENTS.md quotes a
// reference transcript.

#include <algorithm>
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
#include "util/random.h"
#include "util/timer.h"
#include "workload/zipf.h"

namespace {

using sbf::ConcurrentSbfOptions;
using sbf::Timer;
using sbf::bench::BenchJson;
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

  BenchJson out("BENCH_recovery.json");
  out.SetContext(sbf::bench::StandardContext(/*with_isa=*/false));

  // Recovery time vs log length: an uncheckpointed store replays every
  // record on reopen.
  for (uint64_t records : sweep) {
    ScopedDir dir;
    const DurableOptions options = MakeOptions();
    uint64_t wal_bytes = 0;
    {
      auto store = DurableSbf::Open(dir.path(), options);
      if (!store.ok()) std::abort();
      wal_bytes = WriteLog(*store.value(), records, batch);
    }
    const double seconds = TimedReopen(dir.path(), options, records);
    out.Add("recover_log_only",
            {{"records", records},
             {"batch", batch},
             {"wal_bytes", wal_bytes},
             {"recovery_ms", seconds * 1e3}},
            seconds * 1e9 / static_cast<double>(records),
            static_cast<double>(records) / seconds / 1e6);
  }

  // Checkpoint cost at the same sweep points: serialize + tmp write +
  // fsync + rename + log rotation.
  for (uint64_t records : sweep) {
    ScopedDir dir;
    const DurableOptions options = MakeOptions();
    auto store = DurableSbf::Open(dir.path(), options);
    if (!store.ok()) std::abort();
    WriteLog(*store.value(), records, batch);
    Timer timer;
    if (!store.value()->Checkpoint().ok()) std::abort();
    const double seconds = timer.ElapsedSeconds();
    out.Add("checkpoint",
            {{"records_compacted", records},
             {"batch", batch},
             {"checkpoint_ms", seconds * 1e3}},
            seconds * 1e9 / static_cast<double>(records),
            static_cast<double>(records) / seconds / 1e6);
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
    const double seconds = TimedReopen(dir.path(), options, tail);
    out.Add("recover_checkpointed",
            {{"records_total", records + tail},
             {"records_replayed", tail},
             {"batch", batch},
             {"recovery_ms", seconds * 1e3}},
            seconds * 1e9 / static_cast<double>(tail),
            static_cast<double>(tail) / seconds / 1e6);
  }

  // One checkpoint at the durable_ingest geometry: compact backing,
  // Minimum Selection, k = 5, 8 shards, m = 2^22, loaded with 1280
  // batches of 1024 Zipf(1.0) keys over 2^20 ranks. Medians of 5 rounds;
  // each checkpoint also rotates the log.
  {
    constexpr int kRounds = 5;
    const uint64_t batches = small ? 128 : 1280;
    ScopedDir dir;
    DurableOptions options = MakeOptions();
    options.filter.m = uint64_t{1} << 22;
    options.filter.k = 5;
    options.filter.policy = sbf::SbfPolicy::kMinimumSelection;
    options.filter.backing = sbf::CounterBacking::kCompact;
    options.filter.seed = 0x5BF;
    options.filter.delta.max_epoch_micros = 0;
    auto store = DurableSbf::Open(dir.path(), options);
    if (!store.ok()) std::abort();
    const sbf::ZipfDistribution zipf(uint64_t{1} << 20, 1.0);
    sbf::Xoshiro256 rng(1);
    std::vector<uint64_t> keys(1024);
    for (uint64_t b = 0; b < batches; ++b) {
      for (uint64_t& key : keys) key = sbf::Mix64(zipf.Sample(rng));
      if (!store.value()->InsertBatch(keys.data(), keys.size()).ok()) {
        std::abort();
      }
    }
    std::vector<double> serialize_ms, checkpoint_ms;
    for (int round = 0; round < kRounds; ++round) {
      Timer serialize;
      const std::vector<uint8_t> frame = store.value()->filter().Serialize();
      serialize_ms.push_back(serialize.ElapsedSeconds() * 1e3);
      Timer checkpoint;
      if (!store.value()->Checkpoint().ok()) std::abort();
      checkpoint_ms.push_back(checkpoint.ElapsedSeconds() * 1e3);
    }
    std::sort(serialize_ms.begin(), serialize_ms.end());
    std::sort(checkpoint_ms.begin(), checkpoint_ms.end());
    const double median_ms = checkpoint_ms[kRounds / 2];
    const double m = static_cast<double>(options.filter.m);
    out.Add("checkpoint_ingest",
            {{"m", options.filter.m},
             {"shards", uint64_t{options.filter.num_shards}},
             {"keys", batches * keys.size()},
             {"nproc", uint64_t{std::thread::hardware_concurrency()}},
             {"serialize_ms", serialize_ms[kRounds / 2]},
             {"checkpoint_ms", median_ms}},
            median_ms * 1e6 / m, m / (median_ms * 1e3));
  }

  return out.WriteFile() ? 0 : 1;
}
