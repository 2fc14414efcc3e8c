#include "targets.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "core/simd_kernels.h"
#include "sai/compact_counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"

namespace perfbench {

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(1);
}

namespace {

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

std::unique_ptr<sbf::DurableSbf> OpenStore(const std::string& dir,
                                           const sbf::DurableOptions& options) {
  auto opened = sbf::DurableSbf::Open(dir, options);
  if (!opened.ok()) Die("open store " + dir + ": " + opened.status().message());
  return std::move(opened).value();
}

sbf::HashFamily FamilyOf(const sbf::SbfOptions& o) {
  return sbf::HashFamily(o.k, o.m, o.seed, o.hash_kind);
}

// Counters probed per key ahead of the one being updated (the same
// hash-ahead distance the library's batch kernels use).
constexpr size_t kPrefetchAhead = 8;

// Runs `fn` on `cv` as its concrete backing class, so that the probes'
// counter calls devirtualize and inline as they do in the library's batch
// kernels.
template <typename Fn>
void AsBacking(sbf::CounterVector& cv, sbf::CounterBacking backing, Fn&& fn) {
  switch (backing) {
    case sbf::CounterBacking::kFixed64:
    case sbf::CounterBacking::kFixed32:
      fn(static_cast<sbf::FixedWidthCounterVector&>(cv));
      return;
    case sbf::CounterBacking::kCompact:
      fn(static_cast<sbf::CompactCounterVector&>(cv));
      return;
    case sbf::CounterBacking::kSerialScan:
      fn(static_cast<sbf::SerialScanCounterVector&>(cv));
      return;
  }
}

}  // namespace

// --- DurableTarget -----------------------------------------------------------

DurableTarget::DurableTarget(std::string dir, sbf::DurableOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  store_ = OpenStore(dir_, options_);
}

void DurableTarget::Insert(const uint64_t* keys, size_t n) {
  Timed t(rec_, Call::kInsert, n);
  if (!store_->InsertBatch(keys, n).ok()) ++status_failures_;
}

bool DurableTarget::Estimate(const uint64_t* keys, size_t n, uint64_t* out) {
  Timed t(rec_, Call::kEstimate, n);
  store_->EstimateBatch(keys, n, out);
  return true;
}

void DurableTarget::Checkpoint() {
  {
    Timed t(rec_, Call::kCheckpoint, 0);
    if (!store_->Checkpoint().ok()) ++status_failures_;
  }
  // The sealed log of the previous generation and the new checkpoint are
  // now final; both stay on disk until the next rotation retires them.
  const uint64_t g = store_->generation();
  written_bytes_ += FileBytes(sbf::WalPath(dir_, g - 1)) +
                    FileBytes(sbf::CheckpointPath(dir_, g));
}

void DurableTarget::Flush() {
  Timed t(rec_, Call::kFlush, 0);
  if (!store_->SyncLog().ok()) ++status_failures_;
}

sbf::Status DurableTarget::CheckInvariants() const {
  return store_->CheckInvariants();
}

size_t DurableTarget::MemoryBits() const {
  return store_->filter().MemoryUsageBits();
}

double DurableTarget::Reopen() {
  const int64_t start = NowNs();
  store_ = OpenStore(dir_, options_);
  return SecondsSince(start);
}

uint64_t DurableTarget::DiskBytes() const {
  return written_bytes_ +
         FileBytes(sbf::WalPath(dir_, store_->generation()));
}

// --- WalTarget ---------------------------------------------------------------

WalTarget::WalTarget(const std::string& path,
                     const sbf::ConcurrentSbfOptions& filter) {
  const std::vector<uint8_t> empty = sbf::ConcurrentSbf(filter).Serialize();
  auto created = sbf::io::DeltaLogWriter::Create(path, 0, empty,
                                                 /*sync_each_append=*/false);
  if (!created.ok()) Die("create log " + path + ": " + created.status().message());
  writer_ = std::move(created).value();
}

void WalTarget::Insert(const uint64_t* keys, size_t n) {
  std::vector<uint8_t> frame;
  {
    Timed t(rec_, Call::kEncode, n);
    frame = sbf::io::EncodeWalDeltaBatch(next_sequence_++, /*is_remove=*/false,
                                         1, keys, n);
  }
  {
    Timed t(rec_, Call::kWrite, n);
    if (!writer_.Append(frame).ok()) ++status_failures_;
  }
}

void WalTarget::Flush() {
  Timed t(rec_, Call::kSync, 0);
  if (!writer_.Sync().ok()) ++status_failures_;
}

// --- ConcurrentTarget --------------------------------------------------------

ConcurrentTarget::ConcurrentTarget(const sbf::ConcurrentSbfOptions& options,
                                   bool point)
    : filter_(options), point_(point) {}

void ConcurrentTarget::Insert(const uint64_t* keys, size_t n) {
  if (!point_) {
    Timed t(rec_, Call::kInsert, n);
    filter_.InsertBatch(keys, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    Timed t(rec_, Call::kInsert, 1);
    filter_.Insert(keys[i]);
  }
}

void ConcurrentTarget::Remove(const uint64_t* keys, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Timed t(rec_, Call::kRemove, 1);
    filter_.Remove(keys[i]);
  }
}

bool ConcurrentTarget::Estimate(const uint64_t* keys, size_t n, uint64_t* out) {
  if (!point_) {
    Timed t(rec_, Call::kEstimate, n);
    filter_.EstimateBatch(keys, n, out);
    return true;
  }
  for (size_t i = 0; i < n; ++i) {
    Timed t(rec_, Call::kEstimate, 1);
    out[i] = filter_.Estimate(keys[i]);
  }
  return true;
}

void ConcurrentTarget::Flush() {
  Timed t(rec_, Call::kFlush, 0);
  filter_.Flush();
}

// --- WindowTarget ------------------------------------------------------------

namespace {
std::unique_ptr<sbf::FrequencyFilter> MakeInner(
    const sbf::ConcurrentSbfOptions& options, sbf::ConcurrentSbf** inner) {
  auto filter = std::make_unique<sbf::ConcurrentSbf>(options);
  *inner = filter.get();
  return filter;
}
}  // namespace

WindowTarget::WindowTarget(const sbf::ConcurrentSbfOptions& options,
                           size_t window_size)
    : inner_(nullptr), window_(MakeInner(options, &inner_), window_size) {}

void WindowTarget::Insert(const uint64_t* keys, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Timed t(rec_, Call::kInsert, 1);
    window_.Push(keys[i]);
  }
}

bool WindowTarget::Estimate(const uint64_t* keys, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    Timed t(rec_, Call::kEstimate, 1);
    out[i] = window_.Estimate(keys[i]);
  }
  return true;
}

void WindowTarget::Flush() {
  Timed t(rec_, Call::kFlush, 0);
  inner_->Flush();
}

// --- Router ------------------------------------------------------------------

namespace {
sbf::ConcurrentSbfOptions RouterOptions(sbf::ConcurrentSbfOptions options) {
  // ShardOf depends only on the seed and the shard count.
  options.m = options.num_shards;
  options.backing = sbf::CounterBacking::kFixed64;
  options.delta.enabled = false;
  return options;
}
}  // namespace

Router::Router(const sbf::ConcurrentSbfOptions& options)
    : num_shards_(options.num_shards), router_(RouterOptions(options)) {}

void Router::Group(const uint64_t* keys, size_t n) {
  starts.assign(num_shards_ + 1, 0);
  grouped.resize(n);
  order.resize(n);
  std::vector<uint32_t> shard_of(n);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = router_.ShardOf(keys[i]);
    ++starts[shard_of[i] + 1];
  }
  for (uint32_t s = 0; s < num_shards_; ++s) starts[s + 1] += starts[s];
  std::vector<size_t> next(starts.begin(), starts.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const size_t at = next[shard_of[i]]++;
    grouped[at] = keys[i];
    order[at] = static_cast<uint32_t>(i);
  }
}

// --- ShardsTarget ------------------------------------------------------------

ShardsTarget::ShardsTarget(const sbf::ConcurrentSbfOptions& options, bool point)
    : router_(options), point_(point) {
  shards_.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    shards_.emplace_back(sbf::ShardOptions(options, s));
  }
}

void ShardsTarget::Insert(const uint64_t* keys, size_t n) {
  if (point_) {
    for (size_t i = 0; i < n; ++i) {
      sbf::SpectralBloomFilter& shard = shards_[router_.ShardOf(keys[i])];
      Timed t(rec_, Call::kInsert, 1);
      shard.Insert(keys[i]);
    }
    return;
  }
  router_.Group(keys, n);
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    const size_t begin = router_.starts[s], len = router_.starts[s + 1] - begin;
    if (len == 0) continue;
    Timed t(rec_, Call::kInsert, len);
    shards_[s].InsertBatch(router_.grouped.data() + begin, len);
  }
}

void ShardsTarget::Remove(const uint64_t* keys, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    sbf::SpectralBloomFilter& shard = shards_[router_.ShardOf(keys[i])];
    Timed t(rec_, Call::kRemove, 1);
    shard.Remove(keys[i]);
  }
}

bool ShardsTarget::Estimate(const uint64_t* keys, size_t n, uint64_t* out) {
  if (point_) {
    for (size_t i = 0; i < n; ++i) {
      const sbf::SpectralBloomFilter& shard = shards_[router_.ShardOf(keys[i])];
      Timed t(rec_, Call::kEstimate, 1);
      out[i] = shard.Estimate(keys[i]);
    }
    return true;
  }
  router_.Group(keys, n);
  scratch_.resize(n);
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    const size_t begin = router_.starts[s], len = router_.starts[s + 1] - begin;
    if (len == 0) continue;
    Timed t(rec_, Call::kEstimate, len);
    shards_[s].EstimateBatch(router_.grouped.data() + begin, len,
                             scratch_.data() + begin);
  }
  for (size_t j = 0; j < n; ++j) out[router_.order[j]] = scratch_[j];
  return true;
}

sbf::Status ShardsTarget::CheckInvariants() const {
  for (const sbf::SpectralBloomFilter& shard : shards_) {
    sbf::Status status = shard.CheckInvariants();
    if (!status.ok()) return status;
  }
  return sbf::Status::Ok();
}

// --- HashTarget --------------------------------------------------------------

HashTarget::HashTarget(const sbf::ConcurrentSbfOptions& options, bool point)
    : router_(options), point_(point) {
  families_.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    families_.push_back(FamilyOf(sbf::ShardOptions(options, s)));
  }
}

void HashTarget::Hash(Call call, const uint64_t* keys, size_t n) {
  uint64_t pos[sbf::HashFamily::kMaxK];
  if (point_) {
    for (size_t i = 0; i < n; ++i) {
      const sbf::HashFamily& family = families_[router_.ShardOf(keys[i])];
      Timed t(rec_, call, 1);
      family.Positions(keys[i], pos);
      for (uint32_t j = 0; j < family.k(); ++j) sink_ ^= pos[j];
    }
    return;
  }
  router_.Group(keys, n);
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    const size_t begin = router_.starts[s], len = router_.starts[s + 1] - begin;
    if (len == 0) continue;
    const sbf::HashFamily& family = families_[s];
    Timed t(rec_, call, len);
    for (size_t i = begin; i < begin + len; ++i) {
      family.Positions(router_.grouped[i], pos);
      for (uint32_t j = 0; j < family.k(); ++j) sink_ ^= pos[j];
    }
  }
}

// --- CounterTarget -----------------------------------------------------------

CounterTarget::CounterTarget(const sbf::ConcurrentSbfOptions& options,
                             bool point)
    : router_(options),
      backing_(options.backing),
      k_(options.k),
      minimal_increase_(options.policy == sbf::SbfPolicy::kMinimalIncrease),
      early_exit_(point || options.backing == sbf::CounterBacking::kCompact ||
                  options.backing == sbf::CounterBacking::kSerialScan),
      point_(point) {
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    const sbf::SbfOptions shard = sbf::ShardOptions(options, s);
    families_.push_back(FamilyOf(shard));
    counters_.push_back(sbf::MakeCounterVector(shard.backing, shard.m));
  }
}

// Hashes one shard's keys[0..n) and probes their counters in the library
// kernels' schedule: key i+kPrefetchAhead is hashed and its counters
// prefetched right after key i is probed. `probe(cv, pos, i)` handles key
// i at its positions pos[0..k).
template <typename ProbeFn>
void CounterTarget::Pipeline(uint32_t shard, const uint64_t* keys, size_t n,
                             ProbeFn&& probe) {
  const sbf::HashFamily& family = families_[shard];
  AsBacking(*counters_[shard], backing_, [&](auto& cv) {
    // A point call has nothing to prefetch ahead of.
    const bool prefetch = n > 1;
    uint64_t ring[kPrefetchAhead][sbf::HashFamily::kMaxK];
    auto hash = [&](size_t i, uint64_t* pos) {
      family.Positions(keys[i], pos);
      for (uint32_t j = 0; prefetch && j < k_; ++j) cv.PrefetchCounter(pos[j]);
    };
    for (size_t i = 0; i < std::min(n, kPrefetchAhead); ++i) hash(i, ring[i]);
    for (size_t i = 0; i < n; ++i) {
      uint64_t* pos = ring[i % kPrefetchAhead];
      probe(cv, pos, i);
      if (i + kPrefetchAhead < n) hash(i + kPrefetchAhead, pos);
    }
  });
}

void CounterTarget::Update(uint32_t shard, const uint64_t* keys, size_t n,
                           bool remove) {
  Pipeline(shard, keys, n, [&](auto& cv, const uint64_t* p, size_t) {
    if (remove) {
      for (uint32_t j = 0; j < k_; ++j) cv.Decrement(p[j]);
    } else if (minimal_increase_) {
      uint64_t vals[sbf::HashFamily::kMaxK];
      for (uint32_t j = 0; j < k_; ++j) vals[j] = cv.Get(p[j]);
      const uint64_t lifted = *std::min_element(vals, vals + k_) + 1;
      for (uint32_t j = 0; j < k_; ++j) {
        if (vals[j] < lifted) cv.Set(p[j], lifted);
      }
    } else {
      for (uint32_t j = 0; j < k_; ++j) cv.Increment(p[j]);
    }
  });
}

void CounterTarget::Probe(uint32_t shard, const uint64_t* keys, size_t n,
                          uint64_t* out) {
  // A batch over fixed-width counters reads them with the dispatched SIMD
  // gathered min, as the library's EstimateBatch does.
  const sbf::simd::BlockKernels& kn = sbf::simd::Active();
  const bool fixed = backing_ == sbf::CounterBacking::kFixed64 ||
                     backing_ == sbf::CounterBacking::kFixed32;
  if (!point_ && fixed && kn.enabled) {
    const auto gather = backing_ == sbf::CounterBacking::kFixed64
                            ? kn.gather_min64
                            : kn.gather_min32;
    const uint64_t* words =
        static_cast<const sbf::FixedWidthCounterVector&>(*counters_[shard]).words();
    Pipeline(shard, keys, n, [&](const auto&, const uint64_t* p, size_t i) {
      out[i] = gather(words, p, k_);
    });
    return;
  }
  // Otherwise the min of the key's counters, stopping at a zero where the
  // library's probe does.
  Pipeline(shard, keys, n, [&](const auto& cv, const uint64_t* p, size_t i) {
    uint64_t min_value = cv.Get(p[0]);
    for (uint32_t j = 1; j < k_ && (min_value != 0 || !early_exit_); ++j) {
      min_value = std::min(min_value, cv.Get(p[j]));
    }
    out[i] = min_value;
  });
}

void CounterTarget::Insert(const uint64_t* keys, size_t n) {
  if (point_) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t s = router_.ShardOf(keys[i]);
      Timed t(rec_, Call::kInsert, 1);
      Update(s, keys + i, 1, /*remove=*/false);
    }
    return;
  }
  router_.Group(keys, n);
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    const size_t begin = router_.starts[s], len = router_.starts[s + 1] - begin;
    if (len == 0) continue;
    Timed t(rec_, Call::kInsert, len);
    Update(s, router_.grouped.data() + begin, len, /*remove=*/false);
  }
}

void CounterTarget::Remove(const uint64_t* keys, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = router_.ShardOf(keys[i]);
    Timed t(rec_, Call::kRemove, 1);
    Update(s, keys + i, 1, /*remove=*/true);
  }
}

bool CounterTarget::Estimate(const uint64_t* keys, size_t n, uint64_t* out) {
  if (point_) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t s = router_.ShardOf(keys[i]);
      Timed t(rec_, Call::kEstimate, 1);
      Probe(s, keys + i, 1, out + i);
    }
    return true;
  }
  router_.Group(keys, n);
  scratch_.resize(n);
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    const size_t begin = router_.starts[s], len = router_.starts[s + 1] - begin;
    if (len == 0) continue;
    Timed t(rec_, Call::kEstimate, len);
    Probe(s, router_.grouped.data() + begin, len, scratch_.data() + begin);
  }
  for (size_t j = 0; j < n; ++j) out[router_.order[j]] = scratch_[j];
  return true;
}

size_t CounterTarget::MemoryBits() const {
  size_t total = 0;
  for (const auto& cv : counters_) total += cv->MemoryUsageBits();
  return total;
}

}  // namespace perfbench
