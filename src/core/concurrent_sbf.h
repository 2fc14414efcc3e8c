#ifndef SBF_CORE_CONCURRENT_SBF_H_
#define SBF_CORE_CONCURRENT_SBF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_buffer.h"
#include "core/frequency_filter.h"
#include "core/spectral_bloom_filter.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sbf {

// Configuration of a ConcurrentSbf. Mirrors SbfOptions plus the shard
// count; `m` is the TOTAL counter budget, split evenly across shards
// (each shard gets ceil(m / num_shards) counters).
struct ConcurrentSbfOptions {
  uint64_t m = 0;           // total counters across all shards (required)
  uint32_t k = 5;           // hash functions per shard
  SbfPolicy policy = SbfPolicy::kMinimumSelection;
  CounterBacking backing = CounterBacking::kCompact;
  uint64_t seed = 0;        // base seed; per-shard seeds are derived
  HashFamily::Kind hash_kind = HashFamily::Kind::kModuloMultiply;
  uint32_t num_shards = 8;  // S independent shards (required >= 1)
  // Verdict thresholds for Health() / ExpandIfDegraded(). Process-local
  // tuning — not serialized.
  HealthThresholds health;
  // Epoch-merged thread-local write buffering (effective only under
  // Minimum Selection; see DeltaBufferOptions). Process-local tuning —
  // not serialized.
  DeltaBufferOptions delta;
};

// Thread-safe sharded frontend over the Spectral Bloom Filter: keys are
// hash-partitioned across S independent shards, each a SpectralBloomFilter
// with its own CounterVector and hash family. Because the partition is by
// key, every key's k counters live in exactly one shard, so each shard is
// a complete SBF over its key subset and the paper's one-sided guarantee
// (Estimate(x) >= f_x, Claims 1/4) holds shard-locally and therefore
// globally.
//
// Structure (see DESIGN.md "Concurrency model"): every operation routes its
// keys to shards — one key via ShardOf for the point ops, a counting sort
// for the batch ops — and hands each shard-local slice to one of two
// per-shard kernels. A point op is a batch of one.
//
//  * The write kernel has three arms. Delta-buffered: the slice accumulates
//    into the calling thread's delta map for the shard (below). Lock-free
//    (kFixed64 backing + Minimum Selection): the filter's own write
//    pipeline and probe body over the AtomicCounters view
//    (core/batch_kernels.h) — relaxed fetch_adds, so a remove is a
//    wrapping add. Locked (every other backing or policy): the shard's
//    exclusive lock around the filter's own batch kernels. Epoch merges
//    feed drained (key, net) slices through the same lock-free and locked
//    arms.
//  * The estimate kernel runs the filter's MinProbe over the atomic view
//    or under the shared lock, combines both filters per probe inside an
//    expansion window (WindowEstimate), and adds the shard's pending-op
//    tally.
//
// The compact backing's push-to-slack expansion moves neighbouring
// counters, so locking finer than a shard is unsound; throughput scales by
// raising num_shards, which is exactly the striping knob. Lock-free
// writers enter and leave a shard through one guard (WindowWriter), the
// writer half of ExpandTo's window handshake. Counters are monotone
// non-decreasing under insert-only load, so a concurrent Estimate is
// always >= the frequency of all *completed* inserts; exact totals require
// quiescence (e.g. joining writers first).
//
// Delta-buffered writes (DESIGN.md "Delta-buffered concurrency"): under
// Minimum Selection (whose increments commute), inserts accumulate into
// per-thread, per-shard open-addressed delta maps and are merged into the
// shard counters on an epoch boundary — a size threshold, a staleness
// threshold, or an explicit Flush(). Removes are buffered too on the
// lock-free backing (its counters wrap mod 2^64, so merge order cannot
// lose occurrences); on clamped backings a remove flushes all buffers and
// then applies directly, because a remove merged ahead of the insert it
// cancels would clamp at zero. Each shard keeps a pending-op tally
// that is raised before an insert is buffered and lowered (release-
// ordered) only after the merge applies it; it saturates, and an insert
// it cannot cover is written directly instead of buffered. Readers return
// shard_min + pending, so estimates never under-report completed inserts
// even mid-epoch — the same one-sided dual-write discipline as ExpandTo's
// expansion window. The calling thread's own buffers are drained before it
// estimates, so single-threaded use remains exactly a plain SBF; thread
// exit drains that thread's buffers, so after a join no deltas are
// outstanding. Whole-filter operations (Serialize, Merge, Health,
// TotalItems, snapshots, expansion) force a full Flush() first. Minimal
// Increase reads counters before lifting them — its updates do not
// commute — so MI filters always bypass the buffers and take the direct
// path.
//
// Memory ordering: counter atomics are std::memory_order_relaxed; the
// pending-op tallies pair an acquire read with a release decrement. The
// filter promises per-counter atomicity and one-sided monotonicity, not
// cross-counter snapshot consistency — the same semantics the one-sided
// error analysis needs. Callers wanting exact equality with a serial
// reference (tests, Serialize) must quiesce writers first; thread join
// provides the needed happens-before edge.
class ConcurrentSbf final : public FrequencyFilter {
 public:
  explicit ConcurrentSbf(ConcurrentSbfOptions options)
      : ConcurrentSbf(options, {}) {}
  ~ConcurrentSbf() override;

  // Moves drain the source's buffered deltas first (cheap when none are
  // outstanding) and re-point its delta registry; like all whole-filter
  // operations they require external synchronization.
  ConcurrentSbf(ConcurrentSbf&& other) noexcept;
  ConcurrentSbf& operator=(ConcurrentSbf&& other) noexcept;

  // --- FrequencyFilter (thread-safe) -------------------------------------

  void Insert(uint64_t key, uint64_t count = 1) override;
  // Same contract as SpectralBloomFilter::Remove: only remove occurrences
  // previously inserted. Under Minimal Increase deletions may create false
  // negatives (the paper's Section 3.2 caveat).
  void Remove(uint64_t key, uint64_t count = 1) override;
  [[nodiscard]] uint64_t Estimate(uint64_t key) const override;
  [[nodiscard]] size_t MemoryUsageBits() const override;
  [[nodiscard]] std::string Name() const override;

  // --- batch API ----------------------------------------------------------

  // Batched ops (FrequencyFilter overrides; the vector conveniences come
  // from the base class). Keys are grouped by destination shard first so
  // each shard's lock is taken once per batch and its keys run through the
  // per-shard hash-ahead + prefetch kernels (SpectralBloomFilter::
  // InsertBatch/EstimateBatch under the lock, windowed atomic pipelines on
  // the lock-free path). On the delta path, batched inserts accumulate
  // into the calling thread's buffers with the pending tally published
  // once per shard per chunk. EstimateBatch fills `out` in input order.
  void InsertBatch(const uint64_t* keys, size_t n,
                   uint64_t count = 1) override;
  void EstimateBatch(const uint64_t* keys, size_t n,
                     uint64_t* out) const override;
  using FrequencyFilter::EstimateBatch;
  using FrequencyFilter::InsertBatch;

  // --- algebra ------------------------------------------------------------

  // Pointwise counter addition of `other` into this filter (multiset
  // union), shard by shard (atomic adds on the lock-free arm). Requires
  // identical options (shards, m, k, seeds, policy, backing). Flushes both
  // operands' delta buffers first so mid-epoch state is never missed. Safe
  // against concurrent operations on both operands; self-merge is rejected.
  Status Merge(const ConcurrentSbf& other);

  // --- serialization ------------------------------------------------------

  // 'SBcs' wire frame (io/wire.h): {varint num_shards, varint m, u64 seed,
  // embedded per-shard SpectralBloomFilter frames}, so distributed
  // consumers (Bloomjoin, iceberg sites) can exchange sharded filters or
  // peel individual shards. Drains all delta buffers once, then encodes
  // the shards on up to min(hardware threads, num_shards) threads it
  // starts and joins before returning (the caller is one of them): a
  // locked shard under its shared lock, a lock-free shard from an atomic
  // copy of its counters. The frame is byte-identical to a one-thread
  // encode. Concurrent writers make the frame a valid interleaving, not a
  // point-in-time image; a frame equal to a serial reference, and
  // expansion, still require quiescence. Delta tuning is process-local
  // and not serialized.
  [[nodiscard]] std::vector<uint8_t> Serialize() const override;
  static StatusOr<ConcurrentSbf> Deserialize(wire::ByteSpan bytes);

  // Audits the sharding layout: shard count and per-shard options (sizes,
  // derived seeds, policy, backing) against options_, no shard caught
  // mid-expansion, the delta registry's ownership link, and every shard
  // filter's own validator. Requires quiescence, like Serialize().
  Status CheckInvariants() const override;

  // --- introspection -------------------------------------------------------

  [[nodiscard]] const ConcurrentSbfOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] uint32_t num_shards() const noexcept {
    return options_.num_shards;
  }
  [[nodiscard]] uint64_t shard_m() const noexcept { return shard_m_; }
  // True when Insert/Remove/Estimate run without taking any lock.
  [[nodiscard]] bool IsLockFree() const noexcept { return lock_free_; }
  // True when writes go through the epoch-merged delta buffers (Minimum
  // Selection with options().delta.enabled).
  [[nodiscard]] bool IsDeltaBuffered() const noexcept {
    return delta_active_;
  }

  // Shard index for a key (the routing function; exposed for tests).
  [[nodiscard]] uint32_t ShardOf(uint64_t key) const noexcept;

  // Net inserted occurrences across all shards: the sum of the per-shard
  // net item tallies, each read as a signed net clamped at zero (removes
  // of never-inserted occurrences read as an empty shard on every arm).
  // The signed read bounds a shard's N below 2^63: a shard holding 2^63 or
  // more net occurrences reads 0. Drains delta buffers first. Exact only
  // when quiescent.
  [[nodiscard]] uint64_t TotalItems() const;

  // Occurrences buffered-or-merging across all shards right now (the sum
  // of the per-shard pending tallies, saturating at 2^64 - 1). Zero when
  // quiescent and flushed.
  [[nodiscard]] uint64_t PendingDeltaOps() const noexcept;

  // Drains every thread's buffered deltas into the shard counters (the
  // explicit epoch boundary): each registered thread's buffers go through
  // the same epoch merge as a size-triggered merge or a thread-exit drain.
  // Minimum Selection adds commute and clamping at the maximum does not
  // depend on their order, so the flushed counters, frames and estimates
  // do not depend on which threads buffered which ops. Only the clamp
  // tallies can: each thread's net that reaches a counter at its maximum
  // tallies its own clamp. Safe under concurrent writers — their new ops
  // simply start the next epoch. No-op when delta buffering is inactive.
  void Flush();

  // Read-only view of one shard's filter. Caller must guarantee quiescence
  // and a prior Flush() (no concurrent writers or expansion) while holding
  // the reference. The quiescence contract replaces the shard lock here —
  // a capability the analysis cannot express (DESIGN.md §11), hence the
  // explicit opt-out.
  [[nodiscard]] const SpectralBloomFilter& shard(size_t i) const
      SBF_NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[i]->live;
  }

  // A consistent copy of shard i (locks the shard; lock-free counters are
  // read atomically). Drains delta buffers first. Safe under concurrent
  // writers.
  [[nodiscard]] SpectralBloomFilter SnapshotShard(size_t i) const;

  // Per-shard operation counters (inserts/removes/estimates/batches plus
  // delta-epoch merge tallies).
  [[nodiscard]] const ShardMetrics& metrics() const noexcept {
    return metrics_;
  }

  // Internal: drains one registered DeltaSet into the shard counters.
  // Run by Flush() for every set and by the thread-exit hook in
  // core/delta_buffer.cc, both under the registry mutex — use Flush()
  // instead.
  void DrainDeltaSet(DeltaSet& set);

  // --- lifecycle: health & online expansion --------------------------------

  // Live health snapshot across all shards: global fill/FPR, summed clamp
  // tallies, plus per-shard fill ratios and their max/mean skew (a skewed
  // router or key distribution degrades one shard long before the global
  // fill shows it). Drains delta buffers first so mid-epoch inserts are
  // visible to the fill scan; ops buffered by still-racing writers after
  // the drain are reported in FilterHealth::pending_delta_ops. Safe under
  // concurrent writers on the lock-free path (counters are read
  // atomically); on the locked path each shard is scanned under its shared
  // lock.
  [[nodiscard]] FilterHealth Health() const override;

  // Combined clamp-event tallies of all shards. The lock-free fast path
  // updates 64-bit counters with raw atomics and cannot clamp (nor tally),
  // so nonzero values only appear for the locked backings.
  [[nodiscard]] SaturationStats saturation() const;

  // Grows the filter to `new_m` total counters, shard at a time, without
  // blocking readers. Drains delta buffers first (buffered keys re-hash at
  // merge time, so deltas buffered *during* the expansion land at the
  // key's new positions via the window protocol). Per shard the protocol
  // opens a dual-write window:
  //
  //   1. An empty `pending` filter of the new shard size is published
  //      (all shards' pendings are allocated up front, so a failed
  //      allocation returns ResourceExhausted with the filter fully
  //      unexpanded).
  //   2. Writers that observe the window route their updates to `pending`
  //      only, at the key's new-size hash positions; in-flight writers
  //      still targeting `live` are drained (lock-free path: a seq-cst
  //      writer refcount; locked path: the shard's exclusive lock).
  //   3. `live` — now frozen — is fold-added into `pending`: old counter
  //      i's value is added onto its c preimage positions (the same
  //      position correspondence as SpectralBloomFilter::ExpandTo), in
  //      chunks, so locked-path readers interleave between chunks and
  //      lock-free readers are never blocked at all. Minimal Increase
  //      shards fold in one chunk: an MI insert must not see a partly
  //      folded `pending`.
  //   4. `pending` becomes `live`; the old filter is retired but kept
  //      alive so unsynchronized lock-free readers can finish against it.
  //
  // Readers inside a window combine both filters per probe
  // (min_j of live[old_j] + pending[new_j]), which never under-reports;
  // during step 3 a probe may transiently double-count a migrated chunk —
  // a one-sided (over) error, gone when the window closes. With quiescent
  // windows the result is bit-identical to expanding each shard serially.
  //
  // Requires new_m to be a multiple of m that keeps per-shard sizes exact
  // multiples (always true when m divides evenly into shards). Merge() and
  // Serialize() require quiescence while an expansion is in progress.
  Status ExpandTo(uint64_t new_m);

  // Doubles m when Health() is kDegraded or kSaturated. Returns whether an
  // expansion happened.
  StatusOr<bool> ExpandIfDegraded();

 private:
  // Per-shard state, laid out so that independently-written hot fields sit
  // on their own cache lines: with S threads hammering S different shards,
  // the only coherence traffic should be the counters those shards
  // actually share (none). The alignas(64) on the struct itself keeps
  // heap-allocated shards line-aligned; each member group below is one
  // 64-byte line. The counter arrays themselves are separate heap
  // allocations owned by the shard's SpectralBloomFilter, so two shards
  // never share a counter line either.
  struct alignas(64) Shard {
    explicit Shard(SpectralBloomFilter filter)
        : live(std::make_unique<SpectralBloomFilter>(std::move(filter))),
          live_ptr(live.get()) {}
    // -- line 0: read-mostly routing state (filter pointers) --------------
    // The serving filter. Lock-free readers/writers go through the atomic
    // mirror `live_ptr`; the unique_ptrs are only touched by the expansion
    // path and whole-filter operations, all under `mu` (quiescence-contract
    // readers like ConcurrentSbf::shard() opt out explicitly).
    std::unique_ptr<SpectralBloomFilter> live SBF_GUARDED_BY(mu);
    // Non-null only inside an expansion's dual-write window.
    std::unique_ptr<SpectralBloomFilter> pending SBF_GUARDED_BY(mu);
    std::atomic<SpectralBloomFilter*> live_ptr;
    std::atomic<SpectralBloomFilter*> pending_ptr{nullptr};
    // -- line 1: lock-free writer drain refcount (hot on every un-buffered
    // lock-free write; the expansion drain barrier, see ExpandTo step 2) --
    alignas(64) mutable std::atomic<uint32_t> live_writers{0};
    // -- line 2: the shard's N, as tallies of the occurrences inserted and
    // removed by every direct write, epoch merge, Merge and Deserialize,
    // each held at 2^64 - 1; N is their difference clamped at zero, and
    // the shard filters' own total_items() is not consulted --------------
    alignas(64) std::atomic<uint64_t> inserted_items{0};
    std::atomic<uint64_t> removed_items{0};
    // -- line 3: occurrences buffered in delta maps (or being merged) but
    // not yet applied to the counters. Raised (by a saturating CAS) before
    // an insert is buffered; lowered with release order only after the
    // merge applies it. Readers acquire-load it and add it to the shard
    // minimum. -------------------------------------------------------------
    alignas(64) mutable std::atomic<uint64_t> pending_ops{0};
    // -- line 4: the shard lock (locked path writers/readers; guards the
    // unique_ptrs) --------------------------------------------------------
    alignas(64) mutable util::SharedMutex mu;
    // -- cold: replaced filters, kept alive for lock-free readers that
    // loaded the old pointer; bounded by the number of expansions ---------
    std::vector<std::unique_ptr<SpectralBloomFilter>> retired
        SBF_GUARDED_BY(mu);
  };
  static_assert(alignof(util::SharedMutex) <= 64,
                "Shard line map assumes <=64-byte mutex alignment");

  // Shards serve `shard_filters` when given (Deserialize's load), else
  // fresh filters.
  ConcurrentSbf(ConcurrentSbfOptions options,
                std::vector<SpectralBloomFilter> shard_filters);

  // Writer side of the expansion-window handshake: the one place a
  // lock-free writer enters and leaves a shard (defined in the .cc).
  class WindowWriter;

  // The per-shard write kernel over a shard-local slice (keys[0..n) all
  // route to one shard). With a `buffer` (the calling thread's DeltaSet,
  // which it locks) the slice is delta-buffered; otherwise it is applied
  // directly — lock-free or under the shard lock, honouring any expansion
  // window. Epoch merges pass their drained nets as write.counts and no
  // buffer; the locked arm hands every slice to SpectralBloomFilter::Apply.
  void WriteShard(uint32_t shard_index, const SbfWrite& write,
                  DeltaSet* buffer);
  // The per-shard estimate kernel: out[i] = the shard's estimate of
  // keys[i] (plus its pending-op tally on the delta path).
  void EstimateShard(uint32_t shard_index, const uint64_t* keys, size_t n,
                     uint64_t* out) const;
  void ExpandShard(Shard& shard, std::unique_ptr<SpectralBloomFilter> pending);
  // SnapshotShard without its Flush: a consistent copy of shard i.
  [[nodiscard]] SpectralBloomFilter CopyShard(size_t i) const;
  // Shard i's frame, as CopyShard(i).Serialize() writes it.
  [[nodiscard]] std::vector<uint8_t> EncodeShard(size_t i) const;

  // --- delta-buffer plumbing (active iff delta_active_) -------------------
  // The calling thread's DeltaSet (created on first use) when an op of
  // this kind is buffered — every insert, and removes only on the wrapping
  // lock-free backing — else null (the direct path).
  DeltaSet* BufferFor(bool remove);
  // Epoch merge: drains `set`'s map for one shard into the shard counters,
  // adds its item tallies to the shard's and releases its pending-tally
  // contribution (a no-op when it has neither). Allocation-free (the
  // epoch-merge hot path) except serial-scan's bulk add
  // (SerialScanCounterVector::AddMany).
  void MergeShardDelta(DeltaSet& set, uint32_t shard_index)
      SBF_REQUIRES(set.mu);
  // Drains the calling thread's buffers for one shard (the
  // read-your-writes half of the discipline; a cheap no-op when empty).
  void DrainOwnShard(uint32_t shard_index) const;
  // True when `state` crossed an epoch boundary (size or staleness).
  bool ShouldMergeEpoch(const DeltaSet& set,
                        const DeltaSet::ShardState& state) const;
  // Detaches registry_ from this instance (drain + null owner); used by
  // the destructor and move operations.
  void DetachRegistry();

  ConcurrentSbfOptions options_;
  uint64_t shard_m_ = 0;      // counters per shard
  uint64_t router_salt_ = 0;  // shard-routing hash salt (derived from seed)
  bool lock_free_ = false;
  bool delta_active_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable ShardMetrics metrics_;
  // Non-null iff delta_active_: every writing thread's buffered deltas.
  std::shared_ptr<DeltaRegistry> registry_;
};

// Per-shard SbfOptions for shard `index` of a sharded filter with the
// given options (exposed for tests and for Deserialize validation).
SbfOptions ShardOptions(const ConcurrentSbfOptions& options, uint32_t index);

// The estimates of keys[0..n) for a shard inside an expansion's dual-write
// window (`pending` is `live`'s c-fold target): MinProbe over pending plus
// the folded live counters, which for quiescent Minimum Selection filters
// equals live.ExpandTo(pending.m()) plus pending's inserts. Lock-free
// shards are read with relaxed atomics; any other shard needs its lock.
void WindowEstimate(const SpectralBloomFilter& live,
                    const SpectralBloomFilter& pending, const uint64_t* keys,
                    size_t n, uint64_t* out);

}  // namespace sbf

#endif  // SBF_CORE_CONCURRENT_SBF_H_
