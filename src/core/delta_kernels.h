#ifndef SBF_CORE_DELTA_KERNELS_H_
#define SBF_CORE_DELTA_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "hashing/hash.h"
#include "util/check.h"

namespace sbf {

// Allocation-free open-addressed accumulation kernels for the epoch-merged
// delta-buffer write path (core/delta_buffer.h). A delta map aggregates a
// thread's buffered (key -> net occurrence count) updates for one shard;
// the epoch merge drains it into the shard's counters. Both operations run
// on the insert hot path, so — like core/batch_kernels.h — this header is
// linted allocation-free (scripts/sbf_lint.py kernel-allocations rule):
// storage is owned by the caller and viewed through raw pointers.

// View over one shard's delta-map storage: `capacity_mask + 1` slots of
// parallel arrays (key, two's-complement net count) plus an occupancy
// bitmap — slot `at` is live iff bit `at & 63` of word `at >> 6` is set.
// A slot costs 16 B plus one bit. The capacity must be a power of two.
// Nets are uint64_t with wrapping arithmetic so buffered removes (negative
// nets) share the mod-2^64 discipline of the lock-free counter path.
struct DeltaMapView {
  uint64_t* keys;
  uint64_t* nets;
  uint64_t* occupied;  // DeltaBitmapWords(capacity_mask + 1) words
  uint64_t capacity_mask;
};

// Occupancy-bitmap words for a map of `capacity` slots (one word covers
// 64 slots; maps smaller than that still take a whole word).
constexpr size_t DeltaBitmapWords(size_t capacity) {
  return (capacity + 63) / 64;
}

// Accumulates `delta` (wrapping; pass ~count + 1 for a remove of `count`)
// onto `key`'s net, inserting the key with linear probing if absent.
// `*size` counts live slots. Returns false when the map has no free slot
// for a new key, or when `saturate` is set and the net would pass
// 2^64 - 1 (the clamping backings, which buffer inserts only) — either way
// the caller must merge the map and retry (which cannot fail again: a
// drained map is empty).
inline bool DeltaAccumulate(const DeltaMapView& map, uint64_t key,
                            uint64_t delta, bool saturate, uint32_t* size) {
  SBF_DCHECK(map.capacity_mask > 0);
  uint64_t at = Mix64(key) & map.capacity_mask;
  for (uint64_t probes = 0; probes <= map.capacity_mask; ++probes) {
    uint64_t& word = map.occupied[at >> 6];
    const uint64_t bit = uint64_t{1} << (at & 63);
    if ((word & bit) == 0) {
      word |= bit;
      map.keys[at] = key;
      map.nets[at] = delta;
      ++*size;
      return true;
    }
    if (map.keys[at] == key) {
      if (saturate && delta > ~uint64_t{0} - map.nets[at]) return false;
      map.nets[at] += delta;
      return true;
    }
    at = (at + 1) & map.capacity_mask;
  }
  return false;
}

// Drains every live entry in place: the entries with a nonzero net (an
// insert cancelled by a buffered remove nets to zero and is skipped —
// nothing to apply) move to the front of the key/net arrays, the map is
// cleared, and their number n is returned. keys[0..n) and nets[0..n) then
// hold the drained (key, net) pairs until the next accumulate — a
// shard-local slice the caller applies without copying. Order is slot
// order, which makes single-buffer merges deterministic for a
// deterministic insertion history. The walk skips empty bitmap words and
// visits set bits in ascending order, so a drain costs O(capacity / 64 +
// live entries) rather than a scan of every slot. Compacting in place is
// safe because n never passes the slot being visited.
inline uint32_t DeltaDrain(const DeltaMapView& map) {
  uint32_t n = 0;
  const uint64_t words = DeltaBitmapWords(map.capacity_mask + 1);
  for (uint64_t w = 0; w < words; ++w) {
    uint64_t live = map.occupied[w];
    if (live == 0) continue;
    map.occupied[w] = 0;
    do {
      const uint64_t at = (w << 6) | std::countr_zero(live);
      live &= live - 1;
      if (map.nets[at] != 0) {
        map.keys[n] = map.keys[at];
        map.nets[n] = map.nets[at];
        ++n;
      }
    } while (live != 0);
  }
  return n;
}

}  // namespace sbf

#endif  // SBF_CORE_DELTA_KERNELS_H_
