// Golden-blob guard for the wire format: every frame type is serialized
// from a deterministic, integer-only workload and compared byte-for-byte
// against a blob committed under tests/golden/. Any accidental format
// change — field reordered, width changed, version bumped without a
// migration plan — fails here before it can strand persisted filters.
//
// To regenerate after an *intentional* format change:
//
//   SBF_UPDATE_GOLDEN=1 ./golden_wire_test
//
// and commit the new blobs together with the format change and a
// kFormatVersion bump.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/bloom_filter.h"
#include "core/concurrent_sbf.h"
#include "core/recurring_minimum.h"
#include "core/sliding_window.h"
#include "core/spectral_bloom_filter.h"
#include "core/trapping_rm.h"
#include "db/bloomjoin.h"
#include "io/delta_log.h"
#include "io/filter_codec.h"
#include "io/wire.h"
#include "sai/counter_vector.h"

namespace sbf {
namespace {

using Bytes = std::vector<uint8_t>;

std::string GoldenPath(const std::string& name) {
  return std::string(SBF_GOLDEN_DIR) + "/" + name + ".bin";
}

bool UpdateMode() { return std::getenv("SBF_UPDATE_GOLDEN") != nullptr; }

// In update mode, (re)writes the blob and passes; otherwise the serialized
// bytes must match the committed blob exactly.
void CheckGolden(const std::string& name, const Bytes& bytes) {
  const std::string path = GoldenPath(name);
  if (UpdateMode()) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden blob " << path
                         << " (run with SBF_UPDATE_GOLDEN=1 to create)";
  const Bytes golden((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), golden.size()) << name << " frame size drifted";
  EXPECT_EQ(bytes, golden)
      << name << " wire bytes drifted from tests/golden/" << name << ".bin";
}

// Deterministic integer-only key stream: key i appears (i % 7) + 1 times.
// No floating point or RNG feeds the serialized bytes, so the blobs are
// identical on every platform.
template <typename InsertFn>
void FeedWorkload(uint64_t keys, const InsertFn& insert) {
  for (uint64_t key = 0; key < keys; ++key) {
    insert(key * 2654435761u % 100003, (key % 7) + 1);
  }
}

TEST(GoldenWireTest, FormatVersionIsPinned) {
  // Bumping the wire version is an intentional, reviewed act: it must ship
  // with regenerated golden blobs and reader-side compatibility handling.
  // This assertion is the tripwire CI relies on.
  EXPECT_EQ(wire::kFormatVersion, 1u)
      << "wire format version changed: regenerate tests/golden/ and update "
         "this pin together with the migration plan";
}

TEST(GoldenWireTest, BloomFilterFrame) {
  BloomFilter filter(1024, 4, 7);
  FeedWorkload(300, [&](uint64_t key, uint64_t) { filter.Add(key); });
  CheckGolden("bloom_filter", filter.Serialize());
}

TEST(GoldenWireTest, FixedCounterFrames) {
  for (const auto& [backing, name] :
       {std::pair{CounterBacking::kFixed64, "counters_fixed64"},
        std::pair{CounterBacking::kFixed32, "counters_fixed32"},
        std::pair{CounterBacking::kCompact, "counters_compact"},
        std::pair{CounterBacking::kSerialScan, "counters_serial_scan"}}) {
    auto counters = MakeCounterVector(backing, 200);
    for (size_t i = 0; i < 200; i += 3) counters->Set(i, (i * 11) % 97);
    CheckGolden(name, counters->Serialize());
  }
}

TEST(GoldenWireTest, SbfFrames) {
  for (const auto& [backing, name] :
       {std::pair{CounterBacking::kFixed64, "sbf_fixed64"},
        std::pair{CounterBacking::kCompact, "sbf_compact"}}) {
    SbfOptions options;
    options.m = 700;
    options.k = 4;
    options.seed = 11;
    options.backing = backing;
    SpectralBloomFilter filter(options);
    FeedWorkload(400, [&](uint64_t key, uint64_t n) { filter.Insert(key, n); });
    CheckGolden(name, filter.Serialize());
  }
}

TEST(GoldenWireTest, ShardedSbfFrame) {
  ConcurrentSbfOptions options;
  options.m = 1600;
  options.k = 4;
  options.num_shards = 4;
  options.seed = 13;
  ConcurrentSbf filter(options);
  FeedWorkload(400, [&](uint64_t key, uint64_t n) { filter.Insert(key, n); });
  CheckGolden("sharded_sbf", filter.Serialize());
}

TEST(GoldenWireTest, CountingBloomFrame) {
  // The sticky4 backing writes the 'SBcb' frame of the counting Bloom
  // filter [FCAB98].
  SbfOptions options;
  options.m = 800;
  options.k = 4;
  options.seed = 17;
  options.backing = CounterBacking::kSticky4;
  SpectralBloomFilter filter(options);
  FeedWorkload(300, [&](uint64_t key, uint64_t n) { filter.Insert(key, n); });
  CheckGolden("counting_bloom", filter.Serialize());
}

TEST(GoldenWireTest, BlockedSbfFrame) {
  SbfOptions options;
  options.m = 1024;
  options.block_size = 128;
  options.k = 4;
  options.seed = 19;
  SpectralBloomFilter filter(options);
  FeedWorkload(300, [&](uint64_t key, uint64_t n) { filter.Insert(key, n); });
  CheckGolden("blocked_sbf", filter.Serialize());
}

TEST(GoldenWireTest, BlockedSbfV2Frame) {
  // The 'SBb2' frame: a Minimal Increase blocked filter in the SIMD
  // geometry (fixed64, block_size 8), carrying the policy byte the legacy
  // 'SBbk' frame lacks.
  SbfOptions options;
  options.m = 1024;
  options.block_size = 8;
  options.k = 4;
  options.seed = 19;
  options.backing = CounterBacking::kFixed64;
  options.policy = SbfPolicy::kMinimalIncrease;
  SpectralBloomFilter filter(options);
  FeedWorkload(300, [&](uint64_t key, uint64_t n) { filter.Insert(key, n); });
  CheckGolden("blocked_sbf_v2", filter.Serialize());
}

TEST(GoldenWireTest, RecurringMinimumFrame) {
  RecurringMinimumOptions options;
  options.primary_m = 700;
  options.secondary_m = 180;
  options.k = 4;
  options.seed = 23;
  options.use_marker_filter = true;
  RecurringMinimumSbf filter(options);
  FeedWorkload(400, [&](uint64_t key, uint64_t n) { filter.Insert(key, n); });
  CheckGolden("recurring_minimum", filter.Serialize());
}

TEST(GoldenWireTest, TrappingRmFrame) {
  RecurringMinimumOptions options;
  options.primary_m = 700;
  options.secondary_m = 180;
  options.k = 4;
  options.seed = 29;
  TrappingRmSbf filter(options);
  FeedWorkload(400, [&](uint64_t key, uint64_t n) { filter.Insert(key, n); });
  CheckGolden("trapping_rm", filter.Serialize());
}

TEST(GoldenWireTest, SlidingWindowFrame) {
  SbfOptions options;
  options.m = 500;
  options.k = 4;
  options.seed = 31;
  SlidingWindowFilter window(
      std::make_unique<SpectralBloomFilter>(options), 50);
  FeedWorkload(200, [&](uint64_t key, uint64_t) { window.Push(key); });
  CheckGolden("sliding_window", window.Serialize());
}

TEST(GoldenWireTest, WalFrames) {
  // 'SBwh' / 'SBwr' — the durable store's write-ahead log (io/delta_log.h).
  // The header embeds a deterministic empty sharded filter (the store's
  // configuration); the record is a delta batch over fixed keys.
  ConcurrentSbfOptions options;
  options.m = 1600;
  options.k = 4;
  options.num_shards = 4;
  options.seed = 13;
  const Bytes empty_frame = ConcurrentSbf(options).Serialize();
  CheckGolden("wal_header", io::EncodeWalHeader(3, empty_frame));

  const uint64_t keys[] = {5, 100003, 2654435761u, 0};
  const Bytes record = io::EncodeWalDeltaBatch(/*sequence=*/42,
                                               /*is_remove=*/false,
                                               /*count=*/2, keys, 4);
  CheckGolden("wal_record", record);

  // Byte stability alone could mask a symmetric writer+reader break — the
  // committed record must still decode to the same fields.
  auto decoded = io::DecodeWalRecord(record);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().sequence, 42u);
  EXPECT_EQ(decoded.value().type, io::WalRecordType::kDeltaBatch);
  EXPECT_EQ(decoded.value().keys.size(), 4u);
}

TEST(GoldenWireTest, JoinPartitionFrame) {
  Relation orders("orders");
  FeedWorkload(500, [&](uint64_t key, uint64_t) { orders.Add(key, key); });
  CheckGolden("join_partition", ShipPartition(orders, 900, 4, 37));
}

// Every committed blob must still *load* — byte-stability alone would also
// pass if both writer and reader broke symmetrically, so reconstruct each
// filter blob through the polymorphic codec and re-serialize it.
TEST(GoldenWireTest, GoldenBlobsRoundTripThroughPolymorphicCodec) {
  if (UpdateMode()) GTEST_SKIP() << "blobs are being regenerated";
  for (const std::string name :
       {"sbf_fixed64", "sbf_compact", "sharded_sbf", "counting_bloom",
        "blocked_sbf", "blocked_sbf_v2", "recurring_minimum",
        "trapping_rm"}) {
    std::ifstream in(GoldenPath(name), std::ios::binary);
    ASSERT_TRUE(in.good()) << name;
    const Bytes golden((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    auto filter = DeserializeFilter(golden);
    ASSERT_TRUE(filter.ok()) << name << ": " << filter.status().ToString();
    EXPECT_EQ(filter.value()->Serialize(), golden) << name;
  }
}

}  // namespace
}  // namespace sbf
