#ifndef SBF_CORE_BATCH_KERNELS_H_
#define SBF_CORE_BATCH_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "core/sbf_policy.h"
#include "hashing/hash_family.h"

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

// The estimate m_x, min over the k counters at pos[0..k): the one min body
// of SpectralBloomFilter's point and batch estimates. Branch-free where Get
// is one load (the fixed-width backings, which expose words()): no branch
// to mispredict on mixed known/unknown query sets. On the scan backings it
// stops at the first zero counter, which on sparse filters skips most
// probes, each a scan. Both forms return the same value.
template <typename CV>
inline uint64_t MinProbe(const CV& cv, const uint64_t* pos, uint32_t k) {
  constexpr bool kEarlyExit = !requires(const CV& c) { c.words(); };
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

// The one per-key write body of SpectralBloomFilter (point ops, batch
// pipelines, SIMD fallback, epoch apply): the key's counters at pos[0..k)
// gain, or with `remove` lose, `count` occurrences. MS adds and removes
// clamp (and tally) in Increment/Decrement; MI adds lift. An MI remove
// clamps at zero, untallied, by sequential Get/Set, so a position probed
// twice is lowered twice: MI counters may hold less than the deletions
// of their keys, which is what makes MI deletions unsound (Figure 8).
template <typename CV>
inline void WriteProbe(CV& cv, const uint64_t* pos, uint32_t k,
                       uint64_t count, SbfPolicy policy, bool remove) {
  if (policy == SbfPolicy::kMinimumSelection) {
    for (uint32_t j = 0; j < k; ++j) {
      if (remove) {
        cv.Decrement(pos[j], count);
      } else {
        cv.Increment(pos[j], count);
      }
    }
  } else if (!remove) {
    MinimalIncreaseProbe(cv, pos, k, count);
  } else {
    for (uint32_t j = 0; j < k; ++j) {
      const uint64_t v = cv.Get(pos[j]);
      cv.Set(pos[j], v >= count ? v - count : 0);
    }
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
