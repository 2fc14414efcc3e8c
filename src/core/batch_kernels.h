#ifndef SBF_CORE_BATCH_KERNELS_H_
#define SBF_CORE_BATCH_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/sbf_policy.h"
#include "core/spectral_bloom_filter.h"
#include "hashing/hash_family.h"
#include "sai/compact_counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/check.h"
#include "util/prefetch.h"

namespace sbf {

// Keys hashed ahead of the probe cursor in the batched pipelines. At W = 8
// the prefetches of key i+8 have the latency of ~8 keys' worth of hashing
// and probing (>= 100ns at k = 5) to complete — comfortably above DRAM
// latency — while the position ring stays a 4 KiB stack array
// (W * kMaxK * 8 bytes). Larger windows showed no further gain and start
// evicting the probes' own lines on small L1s (see DESIGN.md "Hot path &
// batching").
inline constexpr size_t kBatchWindow = 8;

// Two-stage software pipeline shared by every batched filter kernel
// (tentpole of the batching PR):
//
//   stage 1 (hash):  compute the k positions of key i+W and issue a
//                    prefetch for each position's backing words;
//   stage 2 (probe): read/update the counters of key i, whose prefetch
//                    was issued W keys ago and has had time to complete.
//
// `cv` is the *concrete* (final) counter vector so the probe functor's
// Get/Set/Increment calls devirtualize and inline. `pos_of(key, out)`
// fills out[0..k) (pure — it never reads counters, so hashing ahead of
// in-order probing preserves exact scalar semantics even for duplicate
// keys). `prefetch(cv, pos)` hints the backing words of one key's
// positions. `probe(cv, pos, i)` performs the actual per-key operation,
// in input order.
template <typename CV, typename PosFn, typename PrefetchFn, typename ProbeFn>
inline void BatchPipeline(CV& cv, const uint64_t* keys, size_t n,
                          PosFn&& pos_of, PrefetchFn&& prefetch,
                          ProbeFn&& probe) {
  uint64_t ring[kBatchWindow][HashFamily::kMaxK];
  const size_t head = n < kBatchWindow ? n : kBatchWindow;
  for (size_t i = 0; i < head; ++i) {
    pos_of(keys[i], ring[i]);
    prefetch(cv, ring[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t* pos = ring[i % kBatchWindow];
    probe(cv, pos, i);
    // The slot just probed is the one key i+W lands in.
    const size_t ahead = i + kBatchWindow;
    if (ahead < n) {
      pos_of(keys[ahead], pos);
      prefetch(cv, pos);
    }
  }
}

// Counter types whose Get is a plain load, with no decode or scan, declare
// `static constexpr bool kBranchFreeMin = true`: MinProbe reads all k of
// their probes without an early exit.
template <typename CV>
concept BranchFreeMin = CV::kBranchFreeMin;

// The lock-free arm's counters (ConcurrentSbf over kFixed64 + Minimum
// Selection): the words of a 64-bit FixedWidthCounterVector, where counter
// i is word i, read and written with relaxed std::atomic_ref. Writes wrap
// mod 2^64 and never clamp (so nothing is tallied): a remove is a wrapping
// add, which cancels its insert whichever is applied first. It serves the
// same probe bodies and pipelines as the backings themselves.
class AtomicCounters {
 public:
  static constexpr bool kBranchFreeMin = true;

  // atomic_ref of a const type is C++26; the const_cast is sound because
  // the words always belong to a mutable BitVector.
  explicit AtomicCounters(const FixedWidthCounterVector& cv)
      : words_(const_cast<uint64_t*>(cv.words())) {
    SBF_DCHECK(cv.width_bits() == 64);
  }

  [[nodiscard]] uint64_t Get(size_t i) const noexcept {
    return Word(i).load(std::memory_order_relaxed);
  }
  void Increment(size_t i, uint64_t delta) const noexcept {
    Word(i).fetch_add(delta, std::memory_order_relaxed);
  }
  void Decrement(size_t i, uint64_t delta) const noexcept {
    Word(i).fetch_sub(delta, std::memory_order_relaxed);
  }
  void PrefetchCounter(size_t i) const noexcept {
    SBF_PREFETCH_WRITE(words_ + i);
  }
  void DecodeBlock(size_t first, size_t n, uint64_t* out) const noexcept {
    for (size_t j = 0; j < n; ++j) out[j] = Get(first + j);
  }
  [[nodiscard]] uint64_t MaxValue() const noexcept { return ~uint64_t{0}; }

 private:
  [[nodiscard]] std::atomic_ref<uint64_t> Word(size_t i) const noexcept {
    return std::atomic_ref<uint64_t>(words_[i]);
  }

  uint64_t* words_;
};

// The estimate m_x, min over the k counters at pos[0..k): the one min body
// of every estimate. Branch-free over BranchFreeMin counters: no branch to
// mispredict on mixed known/unknown query sets. On the scan backings it
// stops at the first zero counter, which on sparse filters skips most
// probes, each a scan. Both forms return the same value.
template <typename CV>
inline uint64_t MinProbe(const CV& cv, const uint64_t* pos, uint32_t k) {
  constexpr bool kEarlyExit = !BranchFreeMin<CV>;
  uint64_t min_value = cv.Get(pos[0]);
  for (uint32_t j = 1; j < k; ++j) {
    if constexpr (kEarlyExit) {
      if (min_value == 0) break;
    }
    const uint64_t v = cv.Get(pos[j]);
    min_value = v < min_value ? v : min_value;
  }
  return min_value;
}

// Minimal Increase lift over the k counters at pos[0..k), the paper's
// Section 3.2 batch form: raises the minimal counter(s) by `count` and
// lifts every other counter below m_x + count up to it, which equals
// `count` iterative single insertions. The lift target saturates at 2^64
// (a mod-2^64 wrap would *lower* counters and break the one-sided
// guarantee), tallying the clamp. Narrower backings clamp again, and
// tally, inside Set.
template <typename CV>
inline void MinimalIncreaseProbe(CV& cv, const uint64_t* pos, uint32_t k,
                                 uint64_t count) {
  uint64_t values[HashFamily::kMaxK];
  uint64_t min_value = ~uint64_t{0};
  for (uint32_t j = 0; j < k; ++j) {
    values[j] = cv.Get(pos[j]);
    min_value = values[j] < min_value ? values[j] : min_value;
  }
  uint64_t target = min_value + count;
  if (count > ~uint64_t{0} - min_value) {
    target = ~uint64_t{0};
    cv.MergeSaturationStats({/*saturation_clamps=*/1, 0});
  }
  for (uint32_t j = 0; j < k; ++j) {
    if (values[j] < target) cv.Set(pos[j], target);
  }
}

// The one per-key write body (point ops, batch pipelines, SIMD fallback,
// epoch apply, the lock-free arm): the key's counters at pos[0..k) gain,
// or with `remove` lose, `count` occurrences. MS adds clamp (and tally) in
// Increment; MI adds lift. A remove decrements every probe under both
// policies, clamping at zero (and tallying) in Decrement, so a position
// probed twice is lowered twice: MI counters may hold less than the
// deletions of their keys, which is what makes MI deletions unsound
// (Figure 8). The lock-free counters have no Set: they serve MS only.
template <typename CV>
inline void WriteProbe(CV& cv, const uint64_t* pos, uint32_t k,
                       uint64_t count, SbfPolicy policy, bool remove) {
  if (remove) {
    for (uint32_t j = 0; j < k; ++j) cv.Decrement(pos[j], count);
  } else if (policy == SbfPolicy::kMinimumSelection) {
    for (uint32_t j = 0; j < k; ++j) cv.Increment(pos[j], count);
  } else if constexpr (requires { cv.Set(pos[0], count); }) {
    MinimalIncreaseProbe(cv, pos, k, count);
  }
}

// Stage-1 prefetch functor: one PrefetchCounter hint per position.
struct PrefetchEachPosition {
  uint32_t k;
  template <typename CV>
  void operator()(const CV& cv, const uint64_t* pos) const {
    for (uint32_t j = 0; j < k; ++j) cv.PrefetchCounter(pos[j]);
  }
};

// Dispatch. Every op picks its backing (and a batch its addressing) once
// per call; the per-key bodies above then run devirtualized over the
// concrete backing, from the point ops and the batch pipelines alike. A
// batch changes only the memory schedule (positions hashed kBatchWindow
// keys ahead, counters prefetched), never the result.

template <typename Base, typename T>
using SameConst = std::conditional_t<std::is_const_v<Base>, const T, T>;

// Calls fn(cv) with `cv` downcast to the backing's final type, keeping
// its constness, so the probe functors' counter calls inline.
template <typename Base, typename Fn>
void VisitBacking(CounterBacking backing, Base& cv, Fn&& fn) {
  switch (backing) {
    case CounterBacking::kFixed64:
    case CounterBacking::kFixed32:
    case CounterBacking::kSticky4:
      fn(static_cast<SameConst<Base, FixedWidthCounterVector>&>(cv));
      return;
    case CounterBacking::kCompact:
      fn(static_cast<SameConst<Base, CompactCounterVector>&>(cv));
      return;
    case CounterBacking::kSerialScan:
      fn(static_cast<SameConst<Base, SerialScanCounterVector>&>(cv));
      return;
  }
}

// Stage-1 prefetch for the blocked layout: every probe of a key lands in
// its block, so one hint per block replaces one per position. Fixed-width
// backings recover the block's first word from any position and hint the
// whole block (a second line for blocks wider than 64 bytes); the other
// counter types hint the first probe's word or group.
struct PrefetchBlock {
  uint64_t block_size;
  template <typename CV>
  void operator()(const CV& cv, const uint64_t* pos) const {
    if constexpr (std::is_same_v<CV, FixedWidthCounterVector>) {
      const uint64_t base = pos[0] / block_size * block_size;
      const uint64_t* first = cv.words() + (base * cv.width_bits() >> 6);
      SBF_PREFETCH(first);
      if (block_size * cv.width_bits() > 512) SBF_PREFETCH(first + 8);
    } else {
      cv.PrefetchCounter(pos[0]);
    }
  }
};

// Calls fn(pos_of, prefetch) with the filter's addressing: the stage-1
// position functor and prefetch hint of BatchPipeline. Both compute what
// SpectralBloomFilter::Positions computes, with the layout branch hoisted
// out of the per-key loop.
template <typename Fn>
void WithAddressing(const SpectralBloomFilter& filter, Fn&& fn) {
  const HashFamily& hash = filter.hash();
  const uint32_t k = filter.k();
  const uint64_t block_size = filter.block_size();
  if (block_size == 0) {
    fn([&hash](uint64_t key, uint64_t* pos) { hash.Positions(key, pos); },
       PrefetchEachPosition{k});
    return;
  }
  fn(
      [&filter, &hash, k, block_size](uint64_t key, uint64_t* pos) {
        const uint64_t base = filter.BlockOf(key) * block_size;
        hash.Positions(key, pos);
        for (uint32_t j = 0; j < k; ++j) pos[j] += base;
      },
      PrefetchBlock{block_size});
}

// The write pipeline: `write` through WriteProbe over counters `cv`,
// addressed like `filter` (whose k and policy it takes).
template <typename CV>
void WritePipeline(CV& cv, const SpectralBloomFilter& filter,
                   const SbfWrite& write) {
  const uint32_t k = filter.k();
  const SbfPolicy policy = filter.options().policy;
  // By value, so the probe loop keeps the write's fields in registers
  // rather than reloading them after every counter store.
  const bool remove = write.remove;
  const auto count_of = [counts = write.counts, count = write.count](size_t i) {
    return counts != nullptr ? counts[i] : count;
  };
  WithAddressing(filter, [&](auto pos_of, auto prefetch) {
    BatchPipeline(cv, write.keys, write.n, pos_of, prefetch,
                  [k, policy, remove, count_of](CV& c, const uint64_t* pos,
                                                size_t i) {
                    WriteProbe(c, pos, k, count_of(i), policy, remove);
                  });
  });
}

// The estimate pipeline: out[i] = MinProbe of keys[i] over counters `cv`,
// addressed like `filter`.
template <typename CV>
void MinPipeline(const CV& cv, const SpectralBloomFilter& filter,
                 const uint64_t* keys, size_t n, uint64_t* out) {
  const uint32_t k = filter.k();
  WithAddressing(filter, [&](auto pos_of, auto prefetch) {
    BatchPipeline(cv, keys, n, pos_of, prefetch,
                  [k, out](const CV& c, const uint64_t* pos, size_t i) {
                    out[i] = MinProbe(c, pos, k);
                  });
  });
}

// Adds each counter i in [begin, end) of `from` onto its c preimage
// positions in `to` (FoldedPosition): the one fold body of online
// expansion, and with c = 1 (position i onto i) the pointwise add of a
// merge or a snapshot copy. `from` is read a chunk at a time through
// DecodeBlock, so the grouped backings decode each group once. kOntoZero
// asserts `to` is all zero, where Set equals Increment and skips the read
// (a scan on the grouped backings).
template <bool kOntoZero = false, typename From, typename To>
void AddFolded(const From& from, To& to, uint64_t begin, uint64_t end,
               uint64_t unit, uint64_t c) {
  constexpr uint64_t kChunk = 256;
  uint64_t values[kChunk];
  for (uint64_t base = begin; base < end; base += kChunk) {
    const uint64_t len = end - base < kChunk ? end - base : kChunk;
    from.DecodeBlock(base, len, values);
    for (uint64_t j = 0; j < len; ++j) {
      if (values[j] == 0) continue;
      for (uint64_t rep = 0; rep < c; ++rep) {
        const uint64_t at = FoldedPosition(base + j, unit, c, rep);
        if constexpr (kOntoZero) {
          to.Set(at, values[j]);
        } else {
          to.Increment(at, values[j]);
        }
      }
    }
  }
}

// The AtomicCounters view of a kFixed64 filter, downcast by VisitBacking.
inline AtomicCounters AtomicView(const SpectralBloomFilter& filter) {
  const FixedWidthCounterVector* fixed = nullptr;
  VisitBacking(CounterBacking::kFixed64, filter.counters(),
               [&fixed](const auto& cv) {
                 using CV = std::decay_t<decltype(cv)>;
                 if constexpr (std::is_same_v<CV, FixedWidthCounterVector>) {
                   fixed = &cv;
                 }
               });
  return AtomicCounters(*fixed);
}

// Calls fn(cv) over a filter's counters: its AtomicCounters view when
// `atomic` (the lock-free arm), else its concrete backing.
template <typename Filter, typename Fn>
void VisitCounters(bool atomic, Filter& filter, Fn&& fn) {
  if (atomic) {
    AtomicCounters view = AtomicView(filter);
    fn(view);
  } else if constexpr (std::is_const_v<Filter>) {
    VisitBacking(filter.options().backing, filter.counters(), fn);
  } else {
    VisitBacking(filter.options().backing, filter.mutable_counters(), fn);
  }
}

// The same over two filters of one backing: fn(a's, b's).
template <typename A, typename B, typename Fn>
void VisitCounters(bool atomic, A& a, B& b, Fn&& fn) {
  VisitCounters(atomic, a, [&](auto& a_cv) {
    VisitCounters(atomic, b, [&](auto& b_cv) {
      if constexpr (std::is_same_v<std::decay_t<decltype(a_cv)>,
                                   std::decay_t<decltype(b_cv)>>) {
        fn(a_cv, b_cv);
      }
    });
  });
}

// Counting-sorts `keys` by destination shard into caller-provided scratch
// (ConcurrentSbf's batch grouping step, hoisted here so the sort runs
// allocation-free over reusable buffers) and returns the number t of
// shards the batch touches. After the call, touched[0..t) lists those
// shards in first-touch order and their slices of `grouped` are contiguous
// in that order: shard touched[j]'s keys, in stable input order, are
// grouped[end(j-1) .. end(j)) with end(j) = cursor[touched[j]] and
// end(-1) = 0. `order[i]` is the original index of `grouped[i]` (for
// scattering batch results back to input order). `shard_of(key)` must
// return a shard index below the shard count. Scratch sizes: grouped,
// order and shard_scratch hold n entries; cursor and touched hold one per
// shard. cursor must be all zero on entry; the caller re-zeroes the
// touched entries as it consumes the slices, so per-shard scratch is
// reused without an O(shards) clear.
template <typename ShardFn>
inline uint32_t CountingSortByShard(const uint64_t* keys, size_t n,
                                    ShardFn&& shard_of, uint64_t* grouped,
                                    uint32_t* order, uint32_t* shard_scratch,
                                    uint64_t* cursor, uint32_t* touched) {
  uint32_t num_touched = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = shard_of(keys[i]);
    shard_scratch[i] = s;
    if (cursor[s]++ == 0) touched[num_touched++] = s;
  }
  uint64_t start = 0;
  for (uint32_t j = 0; j < num_touched; ++j) {
    const uint64_t size = cursor[touched[j]];
    cursor[touched[j]] = start;
    start += size;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t at = cursor[shard_scratch[i]]++;
    grouped[at] = keys[i];
    order[at] = static_cast<uint32_t>(i);
  }
  return num_touched;
}

}  // namespace sbf

#endif  // SBF_CORE_BATCH_KERNELS_H_
