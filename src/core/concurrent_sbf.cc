#include "core/concurrent_sbf.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/batch_kernels.h"
#include "hashing/hash.h"
#include "sai/fixed_counter_vector.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/health.h"
#include "util/audit.h"
#include "util/thread_annotations.h"

namespace sbf {
namespace {

constexpr uint32_t kMaxShards = 4096;
constexpr uint64_t kSeedSalt = 0x5BF5AA17C0DEull;
constexpr uint64_t kRouterSalt = 0x5BF707E2D811ull;
// Counters migrated per exclusive-lock acquisition on the locked expansion
// path: small enough that readers interleave between chunks.
constexpr uint64_t kMigrateChunk = 256;
// Keys per delta-batch chunk, each shard's pending tally raised once per
// chunk; also sizes InsertBatch's stack scratch for grouping a chunk.
constexpr size_t kDeltaBatchChunk = 512;
// The epoch staleness clock is consulted once per this many buffered ops.
constexpr uint64_t kClockCheckMask = 63;
// Per-thread delta storage is clamped to this many bytes by shrinking the
// per-shard map capacity (a 4096-shard filter would otherwise cost ~70 MiB
// per writing thread at the default capacity).
constexpr size_t kMaxDeltaBytesPerThread = 4u << 20;
// Clamp budget per delta-map slot: key + net + one byte. A slot costs 16 B
// plus one occupancy bit; the budget keeps the 17 B it had when occupancy
// was a byte, so every shard count keeps the capacity it was clamped to.
constexpr size_t kDeltaSlotBytes = 2 * sizeof(uint64_t) + 1;

// The lock-free arm: relaxed atomic counters and no lock. Minimum
// Selection's adds commute, so 64-bit counters can wrap mod 2^64.
bool LockFreeArm(CounterBacking backing, SbfPolicy policy) {
  return backing == CounterBacking::kFixed64 &&
         policy == SbfPolicy::kMinimumSelection;
}

// A shard's counters inside an expansion window, addressed at the new
// size: counter p reads pending[p] + live[i], i the old counter whose fold
// (FoldedPosition) lands on p. The add wraps like the lock-free counters,
// so a remove landing in pending cancels its insert in live.
template <typename CV>
struct WindowSum {
  static constexpr bool kBranchFreeMin = BranchFreeMin<CV>;
  const CV& live;
  const CV& pending;
  uint64_t unit;
  uint64_t c;
  [[nodiscard]] uint64_t Unfolded(uint64_t p) const {
    return p / unit / c * unit + p % unit;
  }
  [[nodiscard]] uint64_t Get(uint64_t p) const {
    return pending.Get(p) + live.Get(Unfolded(p));
  }
  void PrefetchCounter(uint64_t p) const {
    pending.PrefetchCounter(p);
    live.PrefetchCounter(Unfolded(p));
  }
};

// Raises `tally` by `amount` unless it would pass 2^64 - 1.
bool ReservePending(std::atomic<uint64_t>& tally, uint64_t amount) {
  uint64_t current = tally.load(std::memory_order_relaxed);
  do {
    if (amount > ~uint64_t{0} - current) return false;
  } while (!tally.compare_exchange_weak(current, current + amount,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed));
  return true;
}

// a + b, held at 2^64 - 1 rather than wrapping to an underestimate.
uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return std::min(a, ~uint64_t{0} - b) + b;
}

// a * b, held at 2^64 - 1.
uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product) ? ~uint64_t{0} : product;
}

// Raises an item tally by `amount`, held at 2^64 - 1.
void AddItems(std::atomic<uint64_t>& tally, uint64_t amount) {
  if (amount == 0) return;
  uint64_t current = tally.load(std::memory_order_relaxed);
  while (!tally.compare_exchange_weak(current, SaturatingAdd(current, amount),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

// A shard's N: occurrences inserted minus occurrences removed, clamped at
// zero, so removes of never-inserted occurrences read as an empty shard
// while a shard holding 2^63 or more occurrences still reads them all.
uint64_t ItemsOf(const std::atomic<uint64_t>& inserted,
                 const std::atomic<uint64_t>& removed) {
  const uint64_t in = inserted.load(std::memory_order_relaxed);
  const uint64_t out = removed.load(std::memory_order_relaxed);
  return in > out ? in - out : 0;
}

// Calls fn(live) with a shard's serving filter: read through the atomic
// pointer on the lock-free arm, under the shared lock otherwise.
template <typename Shard, typename Fn>
void ReadLive(bool lock_free, const Shard& shard, Fn&& fn) {
  if (lock_free) {
    fn(*shard.live_ptr.load(std::memory_order_acquire));
    return;
  }
  util::ReaderMutexLock lock(shard.mu);
  fn(*shard.live);
}

bool SameOptions(const ConcurrentSbfOptions& a, const ConcurrentSbfOptions& b) {
  return a.m == b.m && a.k == b.k && a.policy == b.policy &&
         a.backing == b.backing && a.seed == b.seed &&
         a.hash_kind == b.hash_kind && a.num_shards == b.num_shards;
}

// Groups keys[0..n) by destination shard (the CountingSortByShard kernel
// over the given scratch; see there for sizes) and calls
// visit(shard, begin, end) once per touched shard, in first-touch order,
// with [begin, end) its slice of `grouped`. Re-zeroes the cursors it
// consumes, so the scratch is ready for the next call.
template <typename Visit>
void ForEachShardSlice(const ConcurrentSbf& filter, const uint64_t* keys,
                       size_t n, uint64_t* grouped, uint32_t* order,
                       uint32_t* shard_scratch, uint64_t* cursor,
                       uint32_t* touched, Visit&& visit) {
  const uint32_t num_touched = CountingSortByShard(
      keys, n, [&filter](uint64_t key) { return filter.ShardOf(key); },
      grouped, order, shard_scratch, cursor, touched);
  size_t begin = 0;
  for (uint32_t j = 0; j < num_touched; ++j) {
    const uint32_t s = touched[j];
    const size_t end = cursor[s];
    cursor[s] = 0;
    visit(s, begin, end);
    begin = end;
  }
}

// ForEachShardSlice over per-call scratch (allocates). `grouped` receives
// the grouped keys; the returned vector maps each grouped position to its
// input index, for scattering results back into input order.
template <typename Visit>
std::vector<uint32_t> GroupByShard(const ConcurrentSbf& filter,
                                   const uint64_t* keys, size_t n,
                                   std::vector<uint64_t>* grouped,
                                   Visit&& visit) {
  grouped->resize(n);
  std::vector<uint32_t> order(n);
  std::vector<uint32_t> shard_scratch(n);
  std::vector<uint64_t> cursor(filter.num_shards());
  std::vector<uint32_t> touched(filter.num_shards());
  ForEachShardSlice(filter, keys, n, grouped->data(), order.data(),
                    shard_scratch.data(), cursor.data(), touched.data(),
                    visit);
  return order;
}

}  // namespace

SbfOptions ShardOptions(const ConcurrentSbfOptions& options, uint32_t index) {
  SbfOptions shard;
  shard.m = CeilDiv(options.m, options.num_shards);
  shard.k = options.k;
  shard.policy = options.policy;
  shard.backing = options.backing;
  shard.hash_kind = options.hash_kind;
  // Decorrelated per-shard hash functions: shards are independent filters.
  // The seed does not depend on m, so expansion keeps each shard's family.
  shard.seed = Mix64(options.seed ^ (kSeedSalt + index));
  return shard;
}

ConcurrentSbf::ConcurrentSbf(ConcurrentSbfOptions options,
                             std::vector<SpectralBloomFilter> shard_filters)
    : options_(options),
      shard_m_(CeilDiv(options.m, std::max<uint32_t>(options.num_shards, 1))),
      router_salt_(Mix64(options.seed ^ kRouterSalt)),
      lock_free_(LockFreeArm(options.backing, options.policy)),
      delta_active_(options.delta.enabled &&
                    options.policy == SbfPolicy::kMinimumSelection),
      metrics_(options.num_shards) {
  SBF_CHECK_MSG(options_.m >= 1, "ConcurrentSbf needs m >= 1");
  SBF_CHECK_MSG(
      options_.num_shards >= 1 && options_.num_shards <= kMaxShards,
      "ConcurrentSbf needs 1 <= num_shards <= 4096");
  shards_.reserve(options_.num_shards);
  SBF_CHECK(shard_filters.empty() ||
            shard_filters.size() == options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        shard_filters.empty()
            ? SpectralBloomFilter(ShardOptions(options_, s))
            : std::move(shard_filters[s])));
  }
  if (delta_active_) {
    // Sanitize the delta tuning: power-of-two capacity, clamped so one
    // thread's buffers stay within kMaxDeltaBytesPerThread, merge
    // threshold within capacity.
    DeltaBufferOptions& delta = options_.delta;
    uint32_t capacity = 2;
    while (capacity < delta.capacity && capacity < (1u << 30)) capacity <<= 1;
    while (capacity > 2 &&
           static_cast<size_t>(capacity) * options_.num_shards *
                   kDeltaSlotBytes >
               kMaxDeltaBytesPerThread) {
      capacity >>= 1;
    }
    delta.capacity = capacity;
    delta.merge_keys = std::max<uint32_t>(
        1, std::min(delta.merge_keys, std::max<uint32_t>(1, capacity / 2)));
    registry_ = std::make_shared<DeltaRegistry>();
    util::MutexLock lock(registry_->mu);
    registry_->owner = this;
  }
}

ConcurrentSbf::~ConcurrentSbf() { DetachRegistry(); }

ConcurrentSbf::ConcurrentSbf(ConcurrentSbf&& other) noexcept {
  *this = std::move(other);
}

ConcurrentSbf& ConcurrentSbf::operator=(ConcurrentSbf&& other) noexcept {
  if (this == &other) return *this;
  DetachRegistry();
  options_ = std::move(other.options_);
  shard_m_ = other.shard_m_;
  router_salt_ = other.router_salt_;
  lock_free_ = other.lock_free_;
  delta_active_ = other.delta_active_;
  shards_ = std::move(other.shards_);
  metrics_ = std::move(other.metrics_);
  registry_ = std::move(other.registry_);
  other.delta_active_ = false;
  if (registry_ != nullptr) {
    // Buffered deltas reference keys, not positions, so they stay valid
    // across the move; only the drain target changes.
    util::MutexLock lock(registry_->mu);
    registry_->owner = this;
  }
  return *this;
}

void ConcurrentSbf::DetachRegistry() {
  if (registry_ == nullptr) return;
  Flush();
  {
    util::MutexLock lock(registry_->mu);
    registry_->owner = nullptr;
  }
  registry_.reset();
}

uint32_t ConcurrentSbf::ShardOf(uint64_t key) const noexcept {
  // Mixing before the modulo keeps the router independent of the per-shard
  // hash families (which consume the raw key).
  return static_cast<uint32_t>(Mix64(key ^ router_salt_) %
                               options_.num_shards);
}

// Writer side of the expansion-window handshake (DESIGN.md §11): the one
// place a lock-free writer enters and leaves a shard, a Dekker handshake
// with ExpandShard's seq-cst pending publish and refcount drain. Either the
// writer observes the window and writes only pending, or the migrator
// waits for its exit before freezing live.
class ConcurrentSbf::WindowWriter {
 public:
  explicit WindowWriter(Shard& shard) : shard_(shard) {
    shard_.live_writers.fetch_add(1, std::memory_order_seq_cst);
    target_ = shard_.pending_ptr.load(std::memory_order_seq_cst);
    if (target_ != nullptr) {
      // Relaxed exit: this writer writes nothing to live, so there is
      // nothing to publish — the decrement only releases the migrator's
      // drain spin, which re-reads live_writers seq-cst.
      shard_.live_writers.fetch_sub(1, std::memory_order_relaxed);
    } else {
      target_ = shard_.live_ptr.load(std::memory_order_acquire);
      in_live_ = true;
    }
  }
  ~WindowWriter() {
    // Release exit: publishes the live-counter stores to the migrator,
    // whose seq-cst live_writers spin (ExpandShard) is the matching read —
    // the fold must observe every drained writer's counters.
    if (in_live_) shard_.live_writers.fetch_sub(1, std::memory_order_release);
  }
  WindowWriter(const WindowWriter&) = delete;
  WindowWriter& operator=(const WindowWriter&) = delete;

  // The filter to write: pending inside a window, live otherwise.
  [[nodiscard]] SpectralBloomFilter& target() const { return *target_; }

 private:
  Shard& shard_;
  SpectralBloomFilter* target_ = nullptr;
  bool in_live_ = false;
};

void WindowEstimate(const SpectralBloomFilter& live,
                    const SpectralBloomFilter& pending, const uint64_t* keys,
                    size_t n, uint64_t* out) {
  const SbfOptions& options = live.options();
  VisitCounters(
      LockFreeArm(options.backing, options.policy), live, pending,
      [&](const auto& live_cv, const auto& pending_cv) {
        const WindowSum sum{live_cv, pending_cv, ExpansionUnit(options),
                            pending.m() / live.m()};
        MinPipeline(sum, pending, keys, n, out);
      });
}

// --- the per-shard kernels -------------------------------------------------

void ConcurrentSbf::WriteShard(uint32_t shard_index, const SbfWrite& write,
                               DeltaSet* buffer) {
  Shard& shard = *shards_[shard_index];
  if (buffer != nullptr) {
    // Delta-buffered: accumulate into the calling thread's map for this
    // shard. An insert slice first reserves its cover in the shared pending
    // tally, which saturates: a slice it cannot cover merges this thread's
    // epoch and is written directly, so no reservation wraps and each is
    // released once. Removes never raise it (unapplied, they over-report).
    DeltaSet& set = *buffer;
    util::MutexLock lock(set.mu);
    uint64_t cover = 0;
    if (!write.remove &&
        (__builtin_mul_overflow(write.n, write.count, &cover) ||
         !ReservePending(shard.pending_ops, cover))) {
      MergeShardDelta(set, shard_index);
      WriteShard(shard_index, write, /*buffer=*/nullptr);
      return;
    }
    DeltaSet::ShardState& state = set.state(shard_index);
    const uint64_t delta = write.remove ? ~write.count + 1 : write.count;
    // Nets wrap on the lock-free backing, like its counters; the clamping
    // backings buffer inserts only, and their nets must reach the clamp.
    const bool saturate = !lock_free_;
    for (size_t i = 0; i < write.n; ++i) {
      if (!DeltaAccumulate(set.map(shard_index), write.keys[i], delta,
                           saturate, &state.size)) {
        // Map full, or a saturating net would wrap: merge this shard's
        // epoch and retry against the now-empty map (cannot fail twice).
        // This slice's cover then over-covers the merged keys (safe).
        MergeShardDelta(set, shard_index);
        const bool ok = DeltaAccumulate(set.map(shard_index), write.keys[i],
                                        delta, saturate, &state.size);
        SBF_DCHECK(ok);
        (void)ok;
      }
    }
    state.pending_contrib += cover;
    if (write.remove) {
      state.removed_ops =
          SaturatingAdd(state.removed_ops, SaturatingMul(write.n, write.count));
    } else {
      state.inserted_ops = SaturatingAdd(state.inserted_ops, cover);
    }
    if (!state.epoch_open) {
      state.epoch_open = true;
      if (set.options().max_epoch_micros > 0) {
        state.epoch_start = std::chrono::steady_clock::now();
      }
    }
    state.ops_since_merge += static_cast<uint32_t>(write.n);
    if (ShouldMergeEpoch(set, state)) MergeShardDelta(set, shard_index);
    return;
  }
  // An epoch merge's ops were tallied when buffered (ShardState::
  // inserted_ops, removed_ops); the merge adds those tallies itself.
  if (write.counts == nullptr) {
    AddItems(write.remove ? shard.removed_items : shard.inserted_items,
             SaturatingMul(write.n, write.count));
  }
  if (lock_free_) {
    // Relaxed atomic adds; a remove is a wrapping add, so one landing in
    // pending while its paired insert went to live still cancels exactly
    // once the fold adds the filters.
    WindowWriter window(shard);
    AtomicCounters view = AtomicView(window.target());
    WritePipeline(view, window.target(), write);
    return;
  }
  util::WriterMutexLock lock(shard.mu);
  // Inside a window every write lands in pending, where a remove of
  // pre-window occurrences clamps at zero (tallied): a one-sided error.
  // Removes never buffer on this arm, so epoch nets are all inserts.
  (shard.pending ? *shard.pending : *shard.live).Apply(write);
}

void ConcurrentSbf::EstimateShard(uint32_t shard_index, const uint64_t* keys,
                                  size_t n, uint64_t* out) const {
  const Shard& shard = *shards_[shard_index];
  uint64_t buffered = 0;
  if (delta_active_) {
    // Read-your-writes: the calling thread's own buffers for this shard
    // are merged first, so single-threaded use is exactly a plain SBF.
    DrainOwnShard(shard_index);
    // Acquire the pending tally BEFORE probing: pairs with the merge's
    // release decrement, so a reader that sees the lowered tally also sees
    // the applied counters, and the estimate never dips below the flushed
    // + buffered frequency.
    buffered = shard.pending_ops.load(std::memory_order_acquire);
  }
  if (lock_free_) {
    // Pending before live: a reader that observes the window closed loads
    // live after the swap and sees the folded filter. Observing pending
    // after live swapped reads one filter twice: a one-sided overestimate.
    const SpectralBloomFilter* pending =
        shard.pending_ptr.load(std::memory_order_acquire);
    const SpectralBloomFilter& live =
        *shard.live_ptr.load(std::memory_order_acquire);
    if (pending != nullptr) {
      WindowEstimate(live, *pending, keys, n, out);
    } else {
      MinPipeline(AtomicView(live), live, keys, n, out);
    }
  } else {
    util::ReaderMutexLock lock(shard.mu);
    if (shard.pending) {
      WindowEstimate(*shard.live, *shard.pending, keys, n, out);
    } else {
      shard.live->EstimateBatch(keys, n, out);
    }
  }
  if (buffered > 0) {
    for (size_t i = 0; i < n; ++i) out[i] = SaturatingAdd(out[i], buffered);
  }
}

// --- delta-buffer plumbing -------------------------------------------------

DeltaSet* ConcurrentSbf::BufferFor(bool remove) {
  // Clamped backings apply removes directly (see Remove()).
  if (!delta_active_ || (remove && !lock_free_)) return nullptr;
  return ThreadDeltaSet(registry_, options_.num_shards, options_.delta);
}

bool ConcurrentSbf::ShouldMergeEpoch(
    const DeltaSet& set, const DeltaSet::ShardState& state) const {
  const DeltaBufferOptions& opt = set.options();
  if (state.size >= opt.merge_keys) return true;
  if (opt.max_epoch_micros > 0 && state.epoch_open &&
      (state.ops_since_merge & kClockCheckMask) == 0) {
    const auto age = std::chrono::steady_clock::now() - state.epoch_start;
    if (age >= std::chrono::microseconds(opt.max_epoch_micros)) return true;
  }
  return false;
}

void ConcurrentSbf::MergeShardDelta(DeltaSet& set, uint32_t shard_index) {
  DeltaSet::ShardState& state = set.state(shard_index);
  if (state.size == 0 && state.pending_contrib == 0) return;
  Shard& s = *shards_[shard_index];
  if (state.size > 0) {
    metrics_.RecordDeltaBufferedPeak(shard_index, state.size);
    // The drain compacts the map's (key, net) entries in place into a
    // shard-local slice; the write kernel applies it.
    const DeltaMapView map = set.map(shard_index);
    const uint32_t applied = DeltaDrain(map);
    WriteShard(shard_index, {map.keys, applied, 0, false, map.nets},
               /*buffer=*/nullptr);
    AddItems(s.inserted_items, state.inserted_ops);
    AddItems(s.removed_items, state.removed_ops);
    state.size = 0;
    metrics_.RecordDeltaMerge(shard_index, applied);
  }
  // Release the pending tally only after the counters carry the deltas
  // (release pairs with the readers' acquire): a reader that observes the
  // lowered tally also observes the applied counters, so estimates never
  // dip below flushed + buffered.
  if (state.pending_contrib > 0) {
    s.pending_ops.fetch_sub(state.pending_contrib,
                            std::memory_order_release);
    state.pending_contrib = 0;
  }
  state.inserted_ops = 0;
  state.removed_ops = 0;
  state.ops_since_merge = 0;
  state.epoch_open = false;
}

void ConcurrentSbf::DrainOwnShard(uint32_t shard_index) const {
  DeltaSet* set = ThreadDeltaSetIfExists(registry_.get());
  if (set == nullptr) return;
  util::MutexLock lock(set->mu);
  const_cast<ConcurrentSbf*>(this)->MergeShardDelta(*set, shard_index);
}

void ConcurrentSbf::DrainDeltaSet(DeltaSet& set) {
  util::MutexLock lock(set.mu);
  for (uint32_t s = 0; s < options_.num_shards; ++s) MergeShardDelta(set, s);
}

void ConcurrentSbf::Flush() {
  if (!delta_active_ || registry_ == nullptr) return;
  // Thread by thread through the epoch merge: Minimum Selection adds
  // commute, so the flushed counters do not depend on the order.
  util::MutexLock lock(registry_->mu);
  for (const std::shared_ptr<DeltaSet>& set : registry_->sets) {
    DrainDeltaSet(*set);
  }
}

uint64_t ConcurrentSbf::PendingDeltaOps() const noexcept {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total = SaturatingAdd(
        total, shard->pending_ops.load(std::memory_order_relaxed));
  }
  return total;
}

// --- point & batch ops: a point op is a batch of one -----------------------

void ConcurrentSbf::Insert(uint64_t key, uint64_t count) {
  const uint32_t s = ShardOf(key);
  WriteShard(s, {&key, 1, count}, BufferFor(/*remove=*/false));
  metrics_.RecordInsert(s, 1);
}

void ConcurrentSbf::Remove(uint64_t key, uint64_t count) {
  const uint32_t s = ShardOf(key);
  if (delta_active_ && !lock_free_) {
    // Clamped backings make removes order-sensitive: a remove applied
    // before the insert it cancels clamps at zero and loses occurrences.
    // Flushing every buffer first restores the caller's ordering, so the
    // direct remove never clamps; removes are the rare op on the workloads
    // this path serves. Lock-free removes are buffered: counters wrap mod
    // 2^64, so they net out in any order.
    Flush();
  }
  WriteShard(s, {&key, 1, count, /*remove=*/true}, BufferFor(/*remove=*/true));
  metrics_.RecordRemove(s, 1);
}

uint64_t ConcurrentSbf::Estimate(uint64_t key) const {
  const uint32_t s = ShardOf(key);
  metrics_.RecordEstimate(s, 1);
  uint64_t estimate = 0;
  EstimateShard(s, &key, 1, &estimate);
  return estimate;
}

void ConcurrentSbf::InsertBatch(const uint64_t* keys, size_t n,
                                uint64_t count) {
  if (n == 0) return;
  DeltaSet* buffer = BufferFor(/*remove=*/false);
  const auto insert_slice = [this, count, buffer](uint32_t s,
                                                  const uint64_t* slice,
                                                  size_t len) {
    WriteShard(s, {slice, len, count}, buffer);
    metrics_.RecordInsert(s, len);
    metrics_.RecordBatch(s);
  };
  if (buffer == nullptr) {
    std::vector<uint64_t> grouped;
    GroupByShard(*this, keys, n, &grouped,
                 [&](uint32_t s, size_t begin, size_t end) {
                   insert_slice(s, grouped.data() + begin, end - begin);
                 });
    return;
  }
  // Delta path: group chunk by chunk over stack and per-thread scratch
  // (allocation-free), so each shard's pending tally is published once
  // per chunk rather than per key — the buffered ops only need to be
  // covered by the time InsertBatch returns.
  uint64_t grouped[kDeltaBatchChunk];
  uint32_t order[kDeltaBatchChunk];
  uint32_t shard_scratch[kDeltaBatchChunk];
  for (size_t at = 0; at < n; at += kDeltaBatchChunk) {
    ForEachShardSlice(*this, keys + at, std::min(kDeltaBatchChunk, n - at),
                      grouped, order, shard_scratch, buffer->batch_cursor(),
                      buffer->batch_touched(),
                      [&](uint32_t s, size_t begin, size_t end) {
                        insert_slice(s, grouped + begin, end - begin);
                      });
  }
}

void ConcurrentSbf::EstimateBatch(const uint64_t* keys, size_t n,
                                  uint64_t* out) const {
  if (n == 0) return;
  std::vector<uint64_t> grouped;
  std::vector<uint64_t> shard_out(n);
  const std::vector<uint32_t> order =
      GroupByShard(*this, keys, n, &grouped,
                   [&](uint32_t s, size_t begin, size_t end) {
                     metrics_.RecordEstimate(s, end - begin);
                     metrics_.RecordBatch(s);
                     EstimateShard(s, grouped.data() + begin, end - begin,
                                   shard_out.data() + begin);
                   });
  for (size_t i = 0; i < n; ++i) out[order[i]] = shard_out[i];
}

Status ConcurrentSbf::Merge(const ConcurrentSbf& other) {
  if (this == &other) {
    return Status::FailedPrecondition("ConcurrentSbf self-merge not supported");
  }
  if (!SameOptions(options_, other.options_)) {
    return Status::FailedPrecondition(
        "ConcurrentSbf merge requires identical options (shards, m, k, seed, "
        "policy, backing)");
  }
  // Mid-epoch deltas buffered against either operand must be observed:
  // drain both sides before the pointwise add (Flush only mutates counter
  // state, which is what Merge reads — logically const for `other`).
  const_cast<ConcurrentSbf&>(other).Flush();
  Flush();
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    Shard& dst = *shards_[s];
    const Shard& src = *other.shards_[s];
    // The pair guard's std::scoped_lock deadlock-avoidance handles
    // concurrent A.Merge(B) and B.Merge(A).
    util::SharedMutexLockPair locks(dst.mu, src.mu);
    // Pointwise add; atomic on the lock-free arm, so the merge is
    // race-free against concurrent lock-free inserters on either operand.
    VisitCounters(lock_free_, std::as_const(*src.live), *dst.live,
                  [this](const auto& from, auto& to) {
                    AddFolded(from, to, 0, shard_m_, 1, 1);
                  });
    AddItems(dst.inserted_items,
             src.inserted_items.load(std::memory_order_relaxed));
    AddItems(dst.removed_items,
             src.removed_items.load(std::memory_order_relaxed));
  }
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

SpectralBloomFilter ConcurrentSbf::SnapshotShard(size_t i) const {
  const_cast<ConcurrentSbf*>(this)->Flush();
  return CopyShard(i);
}

SpectralBloomFilter ConcurrentSbf::CopyShard(size_t i) const {
  const Shard& shard = *shards_[i];
  SpectralBloomFilter snap = [&]() -> SpectralBloomFilter {
    if (!lock_free_) {
      util::ReaderMutexLock lock(shard.mu);
      return *shard.live;
    }
    const SpectralBloomFilter& live =
        *shard.live_ptr.load(std::memory_order_acquire);
    SpectralBloomFilter copy = live.CloneEmpty();
    VisitCounters(/*atomic=*/true, live, copy,
                  [&live](const auto& from, auto& to) {
                    AddFolded(from, to, 0, live.m(), 1, 1);
                  });
    return copy;
  }();
  snap.set_total_items(ItemsOf(shard.inserted_items, shard.removed_items));
  return snap;
}

std::vector<uint8_t> ConcurrentSbf::EncodeShard(size_t i) const {
  // Lock-free counters are read atomically into a copy; a locked shard
  // is encoded in place under its shared lock.
  if (lock_free_) return CopyShard(i).Serialize();
  const Shard& shard = *shards_[i];
  util::ReaderMutexLock lock(shard.mu);
  return shard.live->SerializeWithItems(
      ItemsOf(shard.inserted_items, shard.removed_items));
}

uint64_t ConcurrentSbf::TotalItems() const {
  const_cast<ConcurrentSbf*>(this)->Flush();
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total = SaturatingAdd(
        total, ItemsOf(shard->inserted_items, shard->removed_items));
  }
  return total;
}

size_t ConcurrentSbf::MemoryUsageBits() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ReadLive(lock_free_, *shard, [&total](const SpectralBloomFilter& live) {
      total += live.MemoryUsageBits();
    });
  }
  if (registry_ != nullptr) {
    util::MutexLock lock(registry_->mu);
    for (const std::shared_ptr<DeltaSet>& set : registry_->sets) {
      util::MutexLock set_lock(set->mu);
      total += set->MemoryBits();
    }
  }
  return total;
}

std::string ConcurrentSbf::Name() const {
  std::string name = "CSBF-";
  name += options_.policy == SbfPolicy::kMinimumSelection ? "MS" : "MI";
  name += "/";
  name += CounterBackingName(options_.backing);
  name += "[S=" + std::to_string(options_.num_shards) + "]";
  if (delta_active_) name += "+delta";
  return name;
}

FilterHealth ConcurrentSbf::Health() const {
  // The fill scan must observe mid-epoch inserts: drain all buffers first,
  // then report anything re-buffered by racing writers in
  // pending_delta_ops.
  const_cast<ConcurrentSbf*>(this)->Flush();
  FilterHealth health;
  health.shard_fill.reserve(options_.num_shards);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ReadLive(lock_free_, *shard, [&](const SpectralBloomFilter& live) {
      const uint64_t m = live.m();
      OccupancyCounts counts;
      VisitCounters(lock_free_, live, [&](const auto& cv) {
        counts = ScanOccupancyOf(cv, m);
      });
      health.counters += m;
      health.nonzero_counters += counts.nonzero;
      health.saturated_counters += counts.saturated;
      const SaturationStats& stats = live.counters().saturation();
      health.saturation_clamps += stats.saturation_clamps;
      health.underflow_clamps += stats.underflow_clamps;
      health.shard_fill.push_back(static_cast<double>(counts.nonzero) /
                                  static_cast<double>(m));
    });
  }
  health.pending_delta_ops = PendingDeltaOps();
  FinalizeHealth(options_.k, options_.health, &health);
  return health;
}

SaturationStats ConcurrentSbf::saturation() const {
  SaturationStats stats;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ReadLive(lock_free_, *shard, [&stats](const SpectralBloomFilter& live) {
      stats += live.counters().saturation();
    });
  }
  return stats;
}

void ConcurrentSbf::ExpandShard(Shard& shard,
                                std::unique_ptr<SpectralBloomFilter> pending) {
  uint64_t old_m = 0;
  uint64_t unit = 0;
  uint64_t c = 0;
  {
    util::WriterMutexLock lock(shard.mu);
    old_m = shard.live->m();
    unit = ExpansionUnit(shard.live->options());
    c = pending->m() / old_m;
    // Open the window: new writers divert to pending, then drain lock-free
    // writers that loaded a null pending and still target live (the
    // seq-cst pair of WindowWriter, DESIGN.md §11 "window handshake").
    shard.pending = std::move(pending);
    shard.pending_ptr.store(shard.pending.get(), std::memory_order_seq_cst);
    while (shard.live_writers.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
  // live is now frozen for writers; fold-add it into pending while readers
  // combine both filters. The locked arm folds in chunks so that readers
  // interleave between lock holds; lock-free readers never take it, so
  // that arm folds in one. So does Minimal Increase: an insert between
  // chunks would lift from an unfolded min, leaving folded counters low.
  const uint64_t chunk =
      lock_free_ || options_.policy == SbfPolicy::kMinimalIncrease
          ? old_m
          : kMigrateChunk;
  for (uint64_t start = 0; start < old_m; start += chunk) {
    util::WriterMutexLock lock(shard.mu);
    const uint64_t end = std::min(old_m, start + chunk);
    VisitCounters(lock_free_, std::as_const(*shard.live), *shard.pending,
                  [&](const auto& from, auto& to) {
                    AddFolded(from, to, start, end, unit, c);
                  });
  }
  util::WriterMutexLock lock(shard.mu);
  shard.pending->mutable_counters().MergeSaturationStats(
      shard.live->counters().saturation());
  // Swap live first, clear pending second (see EstimateShard). The old
  // filter is retired, not freed: lock-free readers may still hold it.
  shard.retired.push_back(std::move(shard.live));
  shard.live = std::move(shard.pending);
  shard.live_ptr.store(shard.live.get(), std::memory_order_release);
  shard.pending_ptr.store(nullptr, std::memory_order_release);
}

Status ConcurrentSbf::ExpandTo(uint64_t new_m) {
  if (new_m == options_.m) return Status::Ok();
  if (new_m < options_.m || new_m % options_.m != 0) {
    return Status::InvalidArgument(
        "ExpandTo needs new_m to be a multiple of the current m");
  }
  const uint64_t c = new_m / options_.m;
  const uint64_t new_shard_m = CeilDiv(new_m, options_.num_shards);
  if (new_shard_m != c * shard_m_) {
    // Rounding would desynchronize per-shard sizes from the fold factor
    // (and from what Deserialize derives).
    return Status::InvalidArgument(
        "ExpandTo needs per-shard sizes to scale by the same factor as m "
        "(pick m divisible by num_shards)");
  }
  // Drain buffered deltas so the fold migrates them; deltas buffered during
  // the expansion re-hash at merge time and land through the window.
  Flush();
  // Allocate every shard's pending filter up front (the only fallible
  // step), so a failure leaves the filter fully unexpanded.
  std::vector<std::unique_ptr<SpectralBloomFilter>> pendings;
  pendings.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    if (fault::ShouldFailAllocation()) {
      return Status::ResourceExhausted(
          "ConcurrentSbf expansion allocation failed at shard " +
          std::to_string(s));
    }
    SbfOptions shard_options = ShardOptions(options_, s);
    shard_options.m = new_shard_m;
    pendings.push_back(std::make_unique<SpectralBloomFilter>(shard_options));
  }
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    ExpandShard(*shards_[s], std::move(pendings[s]));
  }
  options_.m = new_m;
  shard_m_ = new_shard_m;
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

StatusOr<bool> ConcurrentSbf::ExpandIfDegraded() {
  if (Health().state == HealthState::kHealthy) return false;
  Status status = ExpandTo(options_.m * 2);
  if (!status.ok()) return status;
  return true;
}

std::vector<uint8_t> ConcurrentSbf::Serialize() const {
  const_cast<ConcurrentSbf*>(this)->Flush();
  SBF_AUDIT_INVARIANTS(*this);
  // The shard frames are independent: up to one thread per hardware
  // thread (the caller's included) encodes every threads-th shard, and
  // the frames are embedded in shard order after the join. An armed wire
  // fault keeps the encode on the caller, so its draws stay in shard
  // order.
  const uint32_t shards = options_.num_shards;
  const uint32_t threads =
      fault::WireFaultArmed()
          ? 1
          : std::clamp(std::thread::hardware_concurrency(), 1u, shards);
  std::vector<std::vector<uint8_t>> frames(shards);
  const auto encode = [&](uint32_t first) {
    for (uint32_t s = first; s < shards; s += threads) {
      frames[s] = EncodeShard(s);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  for (uint32_t t = 1; t < threads; ++t) workers.emplace_back(encode, t);
  encode(0);
  for (std::thread& worker : workers) worker.join();

  wire::Writer payload;
  payload.PutVarint(options_.num_shards);
  payload.PutVarint(options_.m);
  payload.PutU64(options_.seed);
  for (const std::vector<uint8_t>& frame : frames) payload.PutFrame(frame);
  return wire::SealFrame(wire::kMagicShardedSbf, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<ConcurrentSbf> ConcurrentSbf::Deserialize(wire::ByteSpan bytes) {
  auto reader = wire::OpenFrame(bytes, wire::kMagicShardedSbf,
                                wire::kFormatVersion, "sharded SBF");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  const uint64_t num_shards = in.ReadVarint();
  const uint64_t total_m = in.ReadVarint();
  const uint64_t seed = in.ReadU64();
  if (!in.ok()) return in.status();
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::DataLoss("bad sharded SBF shard count");
  }
  if (total_m < 1) return Status::DataLoss("bad sharded SBF m");

  // Peel the embedded per-shard frames.
  std::vector<SpectralBloomFilter> shard_filters;
  shard_filters.reserve(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    const wire::ByteSpan blob = in.ReadFrameSpan();
    if (!in.ok()) {
      return Status::DataLoss("sharded SBF truncated at shard " +
                              std::to_string(s));
    }
    auto shard = SpectralBloomFilter::Deserialize(blob);
    if (!shard.ok()) return shard.status();
    shard_filters.push_back(std::move(shard).value());
  }
  Status status = in.ExpectEnd("sharded SBF");
  if (!status.ok()) return status;

  // Reconstruct the frontend options from the header + shard 0, then check
  // every shard against the options it must have been built with. This
  // catches blob reordering, shard-count tampering and mixed-backing blobs.
  ConcurrentSbfOptions options;
  options.num_shards = static_cast<uint32_t>(num_shards);
  options.m = total_m;
  options.seed = seed;
  options.k = shard_filters[0].k();
  options.policy = shard_filters[0].options().policy;
  options.backing = shard_filters[0].options().backing;
  options.hash_kind = shard_filters[0].options().hash_kind;
  for (uint64_t s = 0; s < num_shards; ++s) {
    if (!SameSbfOptions(shard_filters[s].options(),
                        ShardOptions(options, static_cast<uint32_t>(s)))) {
      return Status::DataLoss("sharded SBF shard " + std::to_string(s) +
                              " inconsistent with header");
    }
  }

  ConcurrentSbf filter(options, std::move(shard_filters));
  for (uint64_t s = 0; s < num_shards; ++s) {
    Shard& shard = *filter.shards_[s];
    // `filter` is not yet shared, but the lock keeps the guarded access
    // provable (and is free).
    util::WriterMutexLock lock(shard.mu);
    AddItems(shard.inserted_items, shard.live->total_items());
    shard.live->set_total_items(0);
  }
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}


Status ConcurrentSbf::CheckInvariants() const {
  const auto broken = [](const char* what) {
    return Status::FailedPrecondition(std::string("concurrent SBF: ") + what);
  };
  if (shards_.size() != options_.num_shards || options_.num_shards < 1) {
    return broken("shard count disagrees with options");
  }
  if (shard_m_ != CeilDiv(options_.m, options_.num_shards)) {
    return broken("per-shard size disagrees with m / num_shards");
  }
  if (metrics_.num_shards() != options_.num_shards) {
    return broken("metrics shard count disagrees with options");
  }
  if (delta_active_) {
    if (registry_ == nullptr) {
      return broken("delta buffering active but registry missing");
    }
    util::MutexLock lock(registry_->mu);
    if (registry_->owner != this) {
      return broken("delta registry owner link broken");
    }
  }
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    const Shard& shard = *shards_[i];
    // Audit requires quiescence, so the shared lock is uncontended; it
    // makes the live/pending reads provable.
    util::ReaderMutexLock lock(shard.mu);
    if (shard.live == nullptr) return broken("shard has no live filter");
    if (shard.pending != nullptr ||
        shard.pending_ptr.load(std::memory_order_acquire) != nullptr) {
      return broken(
          "shard caught inside an expansion window (audit requires "
          "quiescence)");
    }
    if (shard.live_ptr.load(std::memory_order_acquire) != shard.live.get()) {
      return broken("shard live pointer mirror out of sync");
    }
    if (!SameSbfOptions(shard.live->options(), ShardOptions(options_, i))) {
      return broken(
          "shard filter options disagree with the derived per-shard "
          "options");
    }
    const Status status = shard.live->CheckInvariants();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace sbf
