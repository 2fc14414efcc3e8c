// Unit tests for the delta-map accumulate/drain kernels
// (core/delta_kernels.h). The drain walks an occupancy bitmap; these tests
// pin it against a reference copy of the original byte-per-slot scan, so
// the drained (key, net) slice — and with it every merge — is the same
// slice in the same slot order.

#include "core/delta_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace sbf {
namespace {

// Reference kernels: open addressing with one occupancy byte per slot and
// a drain that scans every slot.
struct ByteMap {
  explicit ByteMap(uint32_t slots)
      : keys(slots, 0), nets(slots, 0), used(slots, 0), mask(slots - 1) {}

  bool Accumulate(uint64_t key, uint64_t delta) {
    uint64_t at = Mix64(key) & mask;
    for (uint64_t probes = 0; probes <= mask; ++probes) {
      if (used[at] == 0) {
        used[at] = 1;
        keys[at] = key;
        nets[at] = delta;
        ++size;
        return true;
      }
      if (keys[at] == key) {
        nets[at] += delta;
        return true;
      }
      at = (at + 1) & mask;
    }
    return false;
  }

  uint32_t Drain() {
    uint32_t n = 0;
    for (uint64_t at = 0; at <= mask; ++at) {
      if (used[at] == 0) continue;
      used[at] = 0;
      if (nets[at] != 0) {
        keys[n] = keys[at];
        nets[n] = nets[at];
        ++n;
      }
    }
    size = 0;
    return n;
  }

  std::vector<uint64_t> keys;
  std::vector<uint64_t> nets;
  std::vector<uint8_t> used;
  uint64_t mask;
  uint32_t size = 0;
};

// Storage for the kernels under test, viewed through DeltaMapView.
struct BitmapMap {
  explicit BitmapMap(uint32_t slots)
      : keys(slots, 0), nets(slots, 0), occupied(DeltaBitmapWords(slots), 0),
        capacity(slots) {}

  DeltaMapView view() {
    return DeltaMapView{keys.data(), nets.data(), occupied.data(),
                        capacity - 1};
  }
  bool Accumulate(uint64_t key, uint64_t delta) {
    return DeltaAccumulate(view(), key, delta, /*saturate=*/false, &size);
  }
  uint32_t Drain() {
    size = 0;
    return DeltaDrain(view());
  }
  bool Empty() const {
    for (const uint64_t word : occupied) {
      if (word != 0) return false;
    }
    return true;
  }

  std::vector<uint64_t> keys;
  std::vector<uint64_t> nets;
  std::vector<uint64_t> occupied;
  uint32_t capacity;
  uint32_t size = 0;
};

// Two's-complement delta for removing `count` occurrences.
uint64_t RemoveDelta(uint64_t count) { return ~count + 1; }

// Drains both maps and requires the same (key, net) slice in the same
// order, returning its length.
uint32_t DrainBothAndCompare(BitmapMap& map, ByteMap& ref) {
  const uint32_t n = map.Drain();
  const uint32_t ref_n = ref.Drain();
  EXPECT_EQ(n, ref_n);
  for (uint32_t i = 0; i < n && i < ref_n; ++i) {
    EXPECT_EQ(map.keys[i], ref.keys[i]) << "slot " << i;
    EXPECT_EQ(map.nets[i], ref.nets[i]) << "slot " << i;
  }
  EXPECT_TRUE(map.Empty());
  return n;
}

class DeltaKernelsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DeltaKernelsTest, RandomSequencesMatchByteScanReference) {
  const uint32_t capacity = GetParam();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed * 1000 + capacity);
    BitmapMap map(capacity);
    ByteMap ref(capacity);
    // A key pool about 1.5x the capacity: plenty of repeats, and the map
    // fills up often enough to exercise the full-map path.
    const uint64_t pool = capacity + capacity / 2 + 1;
    uint32_t drained_total = 0;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t key = rng.Next() % pool;
      uint64_t delta;
      switch (rng.Next() % 4) {
        case 0:
          delta = RemoveDelta(1 + rng.Next() % 3);
          break;
        case 1:
          delta = rng.Next();  // arbitrary wrapping delta
          break;
        default:
          delta = 1 + rng.Next() % 3;
          break;
      }
      const bool ok = map.Accumulate(key, delta);
      ASSERT_EQ(ok, ref.Accumulate(key, delta)) << "step " << step;
      ASSERT_EQ(map.size, ref.size);
      if (!ok) {
        // A failed accumulate means every slot is live.
        ASSERT_EQ(map.size, capacity);
        drained_total += DrainBothAndCompare(map, ref);
        ASSERT_TRUE(map.Accumulate(key, delta));
        ASSERT_TRUE(ref.Accumulate(key, delta));
      } else if (rng.Next() % 64 == 0) {
        drained_total += DrainBothAndCompare(map, ref);
      }
    }
    drained_total += DrainBothAndCompare(map, ref);
    EXPECT_GT(drained_total, 0u);
  }
}

TEST_P(DeltaKernelsTest, RepeatedKeysAccumulateAndZeroNetsAreSkipped) {
  const uint32_t capacity = GetParam();
  BitmapMap map(capacity);
  ByteMap ref(capacity);
  const uint32_t keys = capacity / 2;
  for (uint64_t key = 0; key < keys; ++key) {
    for (int rep = 0; rep < 3; ++rep) {
      ASSERT_TRUE(map.Accumulate(key, 2));
      ASSERT_TRUE(ref.Accumulate(key, 2));
    }
    // Cancel every even key to a zero net: live slot, nothing to apply.
    if (key % 2 == 0) {
      ASSERT_TRUE(map.Accumulate(key, RemoveDelta(6)));
      ASSERT_TRUE(ref.Accumulate(key, RemoveDelta(6)));
    }
  }
  EXPECT_EQ(map.size, keys);
  const uint32_t n = DrainBothAndCompare(map, ref);
  EXPECT_EQ(n, keys / 2);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(map.keys[i] % 2, 1u);
    EXPECT_EQ(map.nets[i], 6u);
  }
}

TEST_P(DeltaKernelsTest, DeltasWrapModuloTwoToTheSixtyFour) {
  const uint32_t capacity = GetParam();
  BitmapMap map(capacity);
  ByteMap ref(capacity);
  // A net of -2, and a net of 1 after wrapping past 2^64.
  const uint64_t big = uint64_t{1} << 63;
  const struct {
    uint64_t key;
    uint64_t delta;
  } ops[] = {{7, RemoveDelta(1)}, {7, RemoveDelta(1)}, {9, big},
             {9, big + 1}};
  for (const auto& op : ops) {
    ASSERT_TRUE(map.Accumulate(op.key, op.delta));
    ASSERT_TRUE(ref.Accumulate(op.key, op.delta));
  }
  const uint32_t n = DrainBothAndCompare(map, ref);
  ASSERT_EQ(n, 2u);
  for (uint32_t i = 0; i < n; ++i) {
    if (map.keys[i] == 7) {
      EXPECT_EQ(map.nets[i], RemoveDelta(2));
    } else {
      EXPECT_EQ(map.keys[i], 9u);
      EXPECT_EQ(map.nets[i], 1u);
    }
  }
  // A net that wraps through 2^64 to exactly zero is skipped.
  for (int rep = 0; rep < 2; ++rep) {
    ASSERT_TRUE(map.Accumulate(11, big));
    ASSERT_TRUE(ref.Accumulate(11, big));
  }
  EXPECT_EQ(DrainBothAndCompare(map, ref), 0u);
}

TEST_P(DeltaKernelsTest, FullMapRejectsOnlyNewKeysAndDrainEmptiesIt) {
  const uint32_t capacity = GetParam();
  BitmapMap map(capacity);
  for (uint32_t round = 0; round < 3; ++round) {
    // A drained (or fresh) map takes exactly `capacity` new keys.
    const uint64_t base = uint64_t{round} * capacity * 4;
    for (uint64_t key = base; key < base + capacity; ++key) {
      ASSERT_TRUE(map.Accumulate(key, 1)) << "key " << key;
    }
    EXPECT_EQ(map.size, capacity);
    EXPECT_FALSE(map.Accumulate(base + capacity, 1));
    EXPECT_EQ(map.size, capacity);
    // Keys already present still accumulate into a full map.
    EXPECT_TRUE(map.Accumulate(base, 1));
    EXPECT_EQ(map.Drain(), capacity);
    EXPECT_TRUE(map.Empty());
    EXPECT_EQ(map.Drain(), 0u);
  }
}

TEST_P(DeltaKernelsTest, SaturatingAccumulateRefusesANetThatWouldWrap) {
  BitmapMap map(GetParam());
  constexpr uint64_t kMax = ~uint64_t{0};
  DeltaMapView view = map.view();
  ASSERT_TRUE(DeltaAccumulate(view, 7, kMax - 41, true, &map.size));
  // Up to 2^64 - 1 the net still accumulates...
  ASSERT_TRUE(DeltaAccumulate(view, 7, 41, true, &map.size));
  // ...one more is refused and leaves the net as it was.
  EXPECT_FALSE(DeltaAccumulate(view, 7, 1, true, &map.size));
  EXPECT_EQ(map.size, 1u);
  ASSERT_EQ(map.Drain(), 1u);
  EXPECT_EQ(map.nets[0], kMax);
  // A drained map takes the refused delta as a fresh net.
  EXPECT_TRUE(DeltaAccumulate(map.view(), 7, 100, true, &map.size));
  ASSERT_EQ(map.Drain(), 1u);
  EXPECT_EQ(map.nets[0], 100u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, DeltaKernelsTest,
                         ::testing::Values(2u, 32u, 64u, 128u, 1024u));

}  // namespace
}  // namespace sbf
