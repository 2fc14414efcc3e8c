// Corruption matrix for the SBF_AUDIT validator layer (DESIGN.md §7).
//
// Two angles on every CheckInvariants() implementation:
//
//  1. Soundness — a freshly built, normally exercised structure (and its
//     Serialize→Deserialize round trip) must pass. A validator that cries
//     wolf is worse than no validator: audit builds would abort on healthy
//     filters.
//  2. Sensitivity — a structure corrupted through a channel the validator
//     claims to cover must FAIL, with a status naming the invariant. Each
//     corruption below breaks exactly one documented invariant: the SBF
//     counter-sum lower bound, fixed-width tail padding, Bloom padding
//     bits, a stale rank/select directory.
//
// The statistical rules (counter sum, population bound) are provable only
// while every update went through the public insert paths, so they are
// gated on provenance flags retired by set_total_items()/ExpandTo()/
// Deserialize(). The soundness cases below pin the gating: the retiring
// operations must leave a passing filter, not a false alarm.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bitstream/bit_vector.h"
#include "bitstream/rank_select.h"
#include "core/bloom_filter.h"
#include "core/concurrent_sbf.h"
#include "core/recurring_minimum.h"
#include "core/sliding_window.h"
#include "core/spectral_bloom_filter.h"
#include "core/trapping_rm.h"
#include "io/wire.h"
#include "sai/compact_counter_vector.h"
#include "sai/counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/select_index.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/fault_injection.h"

namespace sbf {
namespace {

SbfOptions MakeSbfOptions(uint64_t m, uint32_t k, CounterBacking backing,
                          uint64_t seed = 7) {
  SbfOptions options;
  options.m = m;
  options.k = k;
  options.backing = backing;
  options.seed = seed;
  return options;
}

// Flips bit `bit` of payload byte `offset` in a sealed wire frame and
// reseals the CRC so the corruption reaches the decoder instead of being
// rejected by the envelope check. This models corruption *before*
// serialization (a scrambled structure written out healthy-looking), the
// exact gap the structural validators exist to close.
std::vector<uint8_t> FlipPayloadBit(std::vector<uint8_t> frame, size_t offset,
                                    int bit) {
  const size_t pos = wire::kFrameHeaderSize + offset;
  EXPECT_LT(pos, frame.size());
  frame[pos] ^= static_cast<uint8_t>(1u << bit);
  const uint32_t crc = wire::Crc32c(frame.data() + wire::kFrameHeaderSize,
                                    frame.size() - wire::kFrameHeaderSize);
  for (int i = 0; i < 4; ++i) {
    frame[16 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return frame;
}

// --- soundness: healthy structures must pass -------------------------------

class CleanBackingTest : public ::testing::TestWithParam<CounterBacking> {};

TEST_P(CleanBackingTest, SbfPassesFreshLoadedAndRoundTripped) {
  SpectralBloomFilter filter(MakeSbfOptions(512, 4, GetParam()));
  EXPECT_TRUE(filter.CheckInvariants().ok());
  for (uint64_t key = 1; key <= 200; ++key) filter.Insert(key, key % 7 + 1);
  EXPECT_TRUE(filter.CheckInvariants().ok());

  auto restored = SpectralBloomFilter::Deserialize(filter.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value().CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(AllBackings, CleanBackingTest,
                         ::testing::Values(CounterBacking::kFixed64,
                                           CounterBacking::kCompact,
                                           CounterBacking::kSerialScan));

TEST(AuditCleanTest, AllFrontendsPass) {
  BloomFilter bloom(1000, 3, 11);
  for (uint64_t key = 0; key < 300; ++key) bloom.Add(key);
  EXPECT_TRUE(bloom.CheckInvariants().ok());

  SbfOptions cbf_options;
  cbf_options.m = 1000;
  cbf_options.k = 4;
  cbf_options.seed = 13;
  cbf_options.backing = CounterBacking::kSticky4;
  SpectralBloomFilter cbf(cbf_options);
  for (uint64_t key = 0; key < 200; ++key) cbf.Insert(key);
  EXPECT_TRUE(cbf.CheckInvariants().ok());

  SbfOptions blocked_options;
  blocked_options.m = 4096;
  blocked_options.block_size = 256;
  blocked_options.k = 4;
  blocked_options.seed = 17;
  SpectralBloomFilter blocked(blocked_options);
  for (uint64_t key = 0; key < 500; ++key) blocked.Insert(key);
  EXPECT_TRUE(blocked.CheckInvariants().ok());

  RecurringMinimumOptions rm_options;
  rm_options.primary_m = 2000;
  rm_options.secondary_m = 1000;
  rm_options.k = 4;
  rm_options.seed = 19;
  rm_options.use_marker_filter = true;
  rm_options.backing = CounterBacking::kFixed64;
  RecurringMinimumSbf rm(rm_options);
  for (uint64_t key = 0; key < 400; ++key) rm.Insert(key % 60);
  EXPECT_TRUE(rm.CheckInvariants().ok());

  rm_options.use_marker_filter = false;
  TrappingRmSbf trapping(rm_options);
  for (uint64_t key = 0; key < 400; ++key) trapping.Insert(key % 60);
  EXPECT_TRUE(trapping.CheckInvariants().ok());

  ConcurrentSbfOptions concurrent_options;
  concurrent_options.m = 8192;
  concurrent_options.k = 4;
  concurrent_options.num_shards = 4;
  concurrent_options.seed = 23;
  concurrent_options.backing = CounterBacking::kFixed64;
  ConcurrentSbf concurrent(concurrent_options);
  for (uint64_t key = 0; key < 500; ++key) concurrent.Insert(key);
  EXPECT_TRUE(concurrent.CheckInvariants().ok());

  SlidingWindowFilter window(
      std::make_unique<SpectralBloomFilter>(
          MakeSbfOptions(4096, 4, CounterBacking::kFixed64)),
      64);
  for (uint64_t key = 0; key < 200; ++key) window.Push(key % 30);
  EXPECT_TRUE(window.CheckInvariants().ok());
}

TEST(AuditCleanTest, IndexStructuresPass) {
  BitVector bits(1000);
  for (size_t i = 0; i < 1000; i += 3) bits.SetBit(i, true);
  RankSelect rank_select(&bits);
  EXPECT_TRUE(rank_select.CheckInvariants().ok());

  SelectIndex index(std::vector<uint32_t>{3, 9, 1, 27, 5});
  EXPECT_TRUE(index.CheckInvariants().ok());
}

// --- sensitivity: each corruption channel must be caught -------------------

// Lowering one counter under an inserted key breaks the Minimum Selection
// identity sum(C) >= k * total_items (every insert adds exactly k to the
// sum when nothing clamps).
TEST(AuditCorruptionTest, SbfSumBoundCatchesLoweredCounter) {
  SpectralBloomFilter filter(
      MakeSbfOptions(512, 4, CounterBacking::kFixed64));
  for (uint64_t key = 1; key <= 100; ++key) filter.Insert(key);
  ASSERT_TRUE(filter.CheckInvariants().ok());

  const uint64_t position = filter.hash().Position(42, 0);
  const uint64_t value = filter.counters().Get(position);
  ASSERT_GE(value, 1u);
  filter.mutable_counters().Set(position, value - 1);

  const Status status = filter.CheckInvariants();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("sum"), std::string::npos)
      << status.message();
}

// Scribbling on the slack bits past m*width in the last backing word
// violates the fixed-width vector's zeroed-tail invariant.
TEST(AuditCorruptionTest, FixedCountersCatchTailScribble) {
  FixedWidthCounterVector counters(10, 5);  // 50 payload bits, 14 slack
  counters.Set(3, 21);
  ASSERT_TRUE(counters.CheckInvariants().ok());

  counters.mutable_words()[0] |= uint64_t{1} << 63;
  EXPECT_FALSE(counters.CheckInvariants().ok());
}

// Mutating the bit vector after directory construction leaves rank/select
// answering for a vector that no longer exists; the replay audit recounts.
TEST(AuditCorruptionTest, RankSelectCatchesStaleDirectory) {
  BitVector bits(2000);
  for (size_t i = 0; i < 2000; i += 5) bits.SetBit(i, true);
  RankSelect rank_select(&bits);
  ASSERT_TRUE(rank_select.CheckInvariants().ok());

  bits.SetBit(1, true);  // was clear: popcount drifts from the directory
  EXPECT_FALSE(rank_select.CheckInvariants().ok());
}

// A padding bit set in the serialized raw words survives the resealed CRC
// but is rejected by the decoder's own padding check — the first line of
// the layered defence (decode-time sanitizing before any validator runs).
TEST(AuditCorruptionTest, DecoderRejectsPaddingBitFlip) {
  BloomFilter bloom(100, 3, 29);  // bits 100..127 of word 1 are padding
  for (uint64_t key = 0; key < 40; ++key) bloom.Add(key);
  const std::vector<uint8_t> frame = bloom.Serialize();
  // Highest bit of the last payload byte = bit 127 of the raw bit words.
  auto restored = BloomFilter::Deserialize(
      FlipPayloadBit(frame, frame.size() - wire::kFrameHeaderSize - 1, 7));
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("padding"), std::string::npos)
      << restored.status().message();
}

// The statistical rules must retire, not misfire, on the operations that
// legitimately void them — the exact false alarms the first audit-mode run
// of the full suite caught: expansion replicates Bloom bits without
// touching num_added, and the trapping frontend's MoveToSecondary lifts
// secondary counters below the k * total_items floor by design.
TEST(AuditCleanTest, ExpandedBloomFilterStillPasses) {
  BloomFilter bloom(100, 3, 29);
  for (uint64_t key = 0; key < 60; ++key) bloom.Add(key);
  ASSERT_TRUE(bloom.ExpandTo(400).ok());
  EXPECT_TRUE(bloom.CheckInvariants().ok());
  for (uint64_t key = 0; key < 60; ++key) EXPECT_TRUE(bloom.Contains(key));
}

TEST(AuditCleanTest, TrappingSecondaryLiftStillPasses) {
  RecurringMinimumOptions options;
  options.primary_m = 600;
  options.secondary_m = 300;
  options.k = 4;
  options.seed = 31;
  options.backing = CounterBacking::kFixed64;
  TrappingRmSbf filter(options);
  // A crowded primary forces single-minimum keys into the secondary via
  // MoveToSecondary's counter lift.
  for (uint64_t key = 0; key < 2000; ++key) filter.Insert(key % 250);
  EXPECT_TRUE(filter.CheckInvariants().ok());

  auto restored = TrappingRmSbf::Deserialize(filter.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value().CheckInvariants().ok());
}

// Differential sweep over the raw-words region of a Bloom frame: every
// single-bit flip (CRC resealed) must land in a lawful outcome — rejected
// by the decoder or decoded into a *structurally valid* filter (different
// membership, same coherent shape). The 28 padding bits guarantee the
// rejected bucket is populated; nothing may decode into a filter the
// validator then disowns.
TEST(AuditCorruptionTest, WordRegionSweepRejectsOrStaysValid) {
  BloomFilter bloom(100, 3, 31);
  for (uint64_t key = 0; key < 40; ++key) bloom.Add(key);
  const std::vector<uint8_t> frame = bloom.Serialize();
  const size_t payload_size = frame.size() - wire::kFrameHeaderSize;
  const size_t words_start = payload_size - 16;  // two 64-bit raw words

  size_t rejected = 0;
  for (size_t offset = words_start; offset < payload_size; ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      auto restored =
          BloomFilter::Deserialize(FlipPayloadBit(frame, offset, bit));
      if (!restored.ok()) {
        ++rejected;
        continue;
      }
      EXPECT_TRUE(restored.value().CheckInvariants().ok());
      EXPECT_EQ(restored.value().m(), 100u);
      EXPECT_EQ(restored.value().k(), 3u);
    }
  }
  // Each of the 28 padding-bit flips (bits 100..127) must be rejected.
  EXPECT_GE(rejected, 28u);
}

// --- fault-injection integration -------------------------------------------

#if defined(SBF_FAULT_INJECTION) && !defined(SBF_AUDIT)
// Deterministic counter flips (the fault_injection_test harness's channel)
// checked against the validator: whenever the injected flips leave the
// counter sum below the Minimum Selection floor, the audit must say so;
// when every flip landed upward, the one-sided validator must stay quiet.
TEST(AuditFaultInjectionTest, ValidatorVerdictMatchesInjectedSum) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    fault::ArmCounterFlips(seed, 16);
    SpectralBloomFilter filter(
        MakeSbfOptions(1024, 4, CounterBacking::kFixed64, seed));
    for (uint64_t key = 1; key <= 300; ++key) filter.Insert(key);
    fault::Reset();

    const bool sum_holds =
        filter.counters().Total() >= uint64_t{4} * filter.total_items();
    EXPECT_EQ(filter.CheckInvariants().ok(), sum_holds) << "seed " << seed;
  }
}
#endif  // SBF_FAULT_INJECTION && !SBF_AUDIT

}  // namespace
}  // namespace sbf
