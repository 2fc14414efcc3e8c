// ConcurrentSbf::Serialize encodes its shard frames on several threads.
// The frame must be byte for byte the one a single thread writes: the
// header varints, then each shard's SnapshotShard(s).Serialize() embedded
// in shard order, sealed. Race-clean under ThreadSanitizer; with
// SBF_FAULT_INJECTION compiled in, a seeded wire fault must draw in shard
// order, as the one-thread encode does.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_sbf.h"
#include "io/wire.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace sbf {
namespace {

// The one-thread frame: {varint num_shards, varint m, u64 seed, each
// shard's frame}, sealed.
std::vector<uint8_t> SerialReference(const ConcurrentSbf& filter) {
  wire::Writer payload;
  payload.PutVarint(filter.num_shards());
  payload.PutVarint(filter.options().m);
  payload.PutU64(filter.options().seed);
  for (uint32_t s = 0; s < filter.num_shards(); ++s) {
    payload.PutFrame(filter.SnapshotShard(s).Serialize());
  }
  return wire::SealFrame(wire::kMagicShardedSbf, wire::kFormatVersion,
                         std::move(payload));
}

struct Arm {
  const char* name;
  CounterBacking backing;
  bool lock_free;
};

// The lock-free fixed64 Minimum Selection arm and the locked compact arm.
constexpr Arm kArms[] = {{"fixed64", CounterBacking::kFixed64, true},
                         {"compact", CounterBacking::kCompact, false}};

ConcurrentSbfOptions MakeOptions(const Arm& arm, uint32_t shards) {
  ConcurrentSbfOptions options;
  options.m = uint64_t{512} * shards;
  options.k = 4;
  options.policy = SbfPolicy::kMinimumSelection;
  options.backing = arm.backing;
  options.num_shards = shards;
  options.seed = 0x5E71A1 + shards;
  return options;
}

// Inserts from three writer threads (joined, so their buffers drained),
// then buffered inserts, large counts and removes on the calling thread,
// which Serialize must flush itself.
void Load(ConcurrentSbf& filter, uint64_t seed) {
  std::vector<std::thread> writers;
  for (uint64_t t = 0; t < 3; ++t) {
    writers.emplace_back([&filter, seed, t] {
      Xoshiro256 rng(seed * 31 + t);
      for (int i = 0; i < 2000; ++i) filter.Insert(rng.UniformInt(5000));
    });
  }
  for (std::thread& writer : writers) writer.join();
  Xoshiro256 rng(seed);
  for (int i = 0; i < 500; ++i) filter.Insert(rng.UniformInt(5000));
  filter.Insert(7, uint64_t{1} << 40);
  for (int i = 0; i < 100; ++i) filter.Remove(rng.UniformInt(5000) | 1);
}

TEST(ConcurrentSbfSerializeTest, MatchesSerialReference) {
  for (const Arm& arm : kArms) {
    for (const uint32_t shards : {1u, 3u, 8u, 64u}) {
      const std::string what =
          std::string(arm.name) + " S=" + std::to_string(shards);
      ConcurrentSbf filter(MakeOptions(arm, shards));
      ASSERT_EQ(filter.IsLockFree(), arm.lock_free) << what;
      EXPECT_EQ(filter.Serialize(), SerialReference(filter)) << what;

      Load(filter, shards);
      const std::vector<uint8_t> frame = filter.Serialize();
      EXPECT_EQ(filter.PendingDeltaOps(), 0u) << what;
      EXPECT_EQ(frame, SerialReference(filter)) << what;

      auto loaded = ConcurrentSbf::Deserialize(frame);
      ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().message();
      EXPECT_EQ(loaded.value().Serialize(), frame) << what;
    }
  }
}

// An armed wire fault draws once per sealed frame. Serialize keeps those
// draws in shard order, so a seed mutates the same bytes in every run and
// the same bytes as the one-thread encode.
TEST(ConcurrentSbfSerializeTest, SeededWireFaultMutatesTheSameBytes) {
#ifndef SBF_FAULT_INJECTION
  GTEST_SKIP() << "built without SBF_FAULT_INJECTION";
#else
  for (const Arm& arm : kArms) {
    ConcurrentSbf filter(MakeOptions(arm, 8));
    Load(filter, 8);
    const std::vector<uint8_t> clean = filter.Serialize();
    for (const auto kind :
         {fault::WireFault::kBitFlip, fault::WireFault::kTornTail}) {
      fault::Reset();
      fault::ArmWireFault(kind, 2026);
      const std::vector<uint8_t> first = filter.Serialize();
      fault::ArmWireFault(kind, 2026);
      const std::vector<uint8_t> second = filter.Serialize();
      fault::ArmWireFault(kind, 2026);
      const std::vector<uint8_t> serial = SerialReference(filter);
      fault::Reset();
      EXPECT_NE(first, clean) << arm.name;
      EXPECT_EQ(first, second) << arm.name;
      EXPECT_EQ(first, serial) << arm.name;
    }
  }
#endif
}

}  // namespace
}  // namespace sbf
