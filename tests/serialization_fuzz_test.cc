// Robustness of the unified wire format (io/wire.h): deserialization of
// corrupted, truncated or random bytes must fail cleanly with a Status
// (never crash or read out of bounds), valid round-trips must be
// byte-stable and estimate-preserving, and structure-aware mutations —
// payload fields rewritten *with a recomputed CRC*, so the checksum is not
// what saves us — must be rejected by the structural validation paths.
//
// Every FrequencyFilter frontend, every CounterVector backing, the sliding
// window wrapper and the Bloomjoin partition frame are covered.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bloom_filter.h"
#include "core/concurrent_sbf.h"
#include "core/recurring_minimum.h"
#include "core/sliding_window.h"
#include "core/spectral_bloom_filter.h"
#include "core/trapping_rm.h"
#include "db/bloomjoin.h"
#include "io/filter_codec.h"
#include "io/wire.h"
#include "sai/counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "workload/multiset_stream.h"

namespace sbf {
namespace {

constexpr uint64_t kProbeKeys = 10000;  // probe set for estimate equality

using Bytes = std::vector<uint8_t>;
using Decoder = std::function<bool(const Bytes&)>;
using Mutator = std::function<void(Bytes*)>;

// Unseals a valid frame, lets `mutate` rewrite the payload, and re-seals
// it with a recomputed CRC. The result has a pristine envelope, so any
// rejection comes from the structural checks, not the checksum.
Bytes Reframe(const Bytes& frame, const Mutator& mutate) {
  const auto info = wire::ProbeFrame(frame);
  EXPECT_TRUE(info.ok());
  Bytes payload(frame.begin() + wire::kFrameHeaderSize, frame.end());
  mutate(&payload);
  wire::Writer writer;
  writer.PutBytes(payload.data(), payload.size());
  return wire::SealFrame(wire::PeekMagic(frame), info.value().version,
                         std::move(writer));
}

// Every prefix of a frame must be rejected.
void ExpectTruncationsRejected(const Bytes& bytes, const Decoder& decode) {
  for (size_t len = 0; len < bytes.size(); len += 3) {
    Bytes truncated(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(decode(truncated)) << "length " << len;
  }
}

// Any single-byte change anywhere in a frame must be rejected outright:
// header damage fails the envelope checks and payload damage fails the
// CRC, so — unlike the pre-CRC format — there is no "decoded into some
// other valid filter" outcome to tolerate.
void ExpectCorruptionsRejected(const Bytes& bytes, const Decoder& decode,
                               uint64_t seed) {
  Xoshiro256 rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes corrupted = bytes;
    const size_t at = rng.UniformInt(corrupted.size());
    corrupted[at] ^= static_cast<uint8_t>(rng.UniformInt(255) + 1);
    EXPECT_FALSE(decode(corrupted)) << "byte " << at;
  }
}

void ExpectGarbageRejected(const Decoder& decode, uint64_t seed) {
  Xoshiro256 rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage(rng.UniformInt(400));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Next());
    EXPECT_FALSE(decode(garbage)) << "trial " << trial;
  }
}

// Version 0 and any version above kFormatVersion must be rejected. The
// version word is bytes [4,8) of the header (not CRC-covered).
void ExpectVersionDriftRejected(const Bytes& bytes, const Decoder& decode) {
  for (const uint32_t version : {0u, wire::kFormatVersion + 1, 0x7F000000u}) {
    Bytes drifted = bytes;
    for (int b = 0; b < 4; ++b) {
      drifted[4 + b] = static_cast<uint8_t>(version >> (8 * b));
    }
    EXPECT_FALSE(decode(drifted)) << "version " << version;
  }
}

template <typename FilterA, typename FilterB>
void ExpectEqualEstimatesOnProbeSet(const FilterA& a, const FilterB& b) {
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    ASSERT_EQ(a.Estimate(key), b.Estimate(key)) << "key " << key;
  }
}

const std::vector<CounterBacking>& AllBackings() {
  static const std::vector<CounterBacking> backings = {
      CounterBacking::kFixed64, CounterBacking::kFixed32,
      CounterBacking::kCompact, CounterBacking::kSerialScan,
      CounterBacking::kSticky4};
  return backings;
}

// --- counter backings ------------------------------------------------------

bool DecodeCounters(const Bytes& bytes) {
  return DeserializeCounterVector(bytes).ok();
}

std::unique_ptr<CounterVector> MakeLoadedCounters(CounterBacking backing,
                                                  uint64_t seed) {
  auto counters = MakeCounterVector(backing, 300);
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < counters->size(); ++i) {
    if (rng.UniformDouble() < 0.6) counters->Set(i, rng.UniformInt(500));
  }
  return counters;
}

TEST(SerializationFuzzTest, CounterBackingRoundTripIsByteStable) {
  for (const auto backing : AllBackings()) {
    const auto counters = MakeLoadedCounters(backing, 41);
    const Bytes bytes = counters->Serialize();
    auto restored = DeserializeCounterVector(bytes);
    ASSERT_TRUE(restored.ok()) << CounterBackingName(backing);
    ASSERT_EQ(restored.value()->size(), counters->size());
    for (size_t i = 0; i < counters->size(); ++i) {
      ASSERT_EQ(restored.value()->Get(i), counters->Get(i))
          << CounterBackingName(backing) << " index " << i;
    }
    EXPECT_EQ(restored.value()->Total(), counters->Total());
    EXPECT_EQ(restored.value()->Serialize(), bytes)
        << CounterBackingName(backing);
  }
}

TEST(SerializationFuzzTest, CounterBackingTruncationsNeverCrash) {
  for (const auto backing : AllBackings()) {
    ExpectTruncationsRejected(MakeLoadedCounters(backing, 43)->Serialize(),
                              DecodeCounters);
  }
}

TEST(SerializationFuzzTest, CounterBackingCorruptionsAlwaysRejected) {
  for (const auto backing : AllBackings()) {
    ExpectCorruptionsRejected(MakeLoadedCounters(backing, 45)->Serialize(),
                              DecodeCounters, 46);
  }
}

TEST(SerializationFuzzTest, CounterBackingGarbageAndForeignFramesRejected) {
  ExpectGarbageRejected(DecodeCounters, 47);
  // A valid frame of a non-backing type must fail the magic dispatch.
  BloomFilter bloom(128, 3, 1);
  EXPECT_FALSE(DeserializeCounterVector(bloom.Serialize()).ok());
}

TEST(SerializationFuzzTest, CounterBackingVersionDriftRejected) {
  for (const auto backing : AllBackings()) {
    ExpectVersionDriftRejected(MakeLoadedCounters(backing, 49)->Serialize(),
                               DecodeCounters);
  }
}

TEST(SerializationFuzzTest, FixedCounterStructuralMutationsRejected) {
  // 'SBfx' payload: varint m (300: 2 bytes), varint width (64: 1 byte at
  // [2]), u8 sticky at [3], then the packed words.
  const Bytes bytes = MakeLoadedCounters(CounterBacking::kFixed64, 51)
                          ->Serialize();
  for (const uint8_t bad_width : {0, 65, 255}) {
    const Bytes mutated =
        Reframe(bytes, [bad_width](Bytes* p) { (*p)[2] = bad_width; });
    EXPECT_FALSE(DecodeCounters(mutated)) << "width " << int(bad_width);
  }
  // sticky flag must be 0 or 1.
  EXPECT_FALSE(DecodeCounters(Reframe(bytes, [](Bytes* p) { (*p)[3] = 2; })));
  // m = 0 via a non-canonical two-byte varint (0x80 0x00).
  EXPECT_FALSE(DecodeCounters(Reframe(bytes, [](Bytes* p) {
    (*p)[0] = 0x80;
    (*p)[1] = 0x00;
  })));
  // An absurd m claim must fail the size bound, not attempt an allocation.
  EXPECT_FALSE(DecodeCounters(Reframe(bytes, [](Bytes* p) {
    const Bytes huge_m = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
    p->erase(p->begin(), p->begin() + 2);
    p->insert(p->begin(), huge_m.begin(), huge_m.end());
  })));
}

TEST(SerializationFuzzTest, FixedCounterSetPaddingBitsRejected) {
  // m = 100 one-bit counters -> 2 words, 28 padding bits; the final
  // payload byte is the top of word 1, entirely padding.
  FixedWidthCounterVector bits(100, 1);
  for (size_t i = 0; i < 100; i += 3) bits.Set(i, 1);
  const Bytes bytes = bits.Serialize();
  ASSERT_TRUE(DecodeCounters(bytes));
  const Bytes mutated =
      Reframe(bytes, [](Bytes* p) { p->back() |= 0x80; });
  EXPECT_FALSE(DecodeCounters(mutated));
}

TEST(SerializationFuzzTest, CounterTotalMatchesManualSum) {
  // Total() goes through DecodeBlock chunks; it must agree with a per-index
  // virtual-Get sum on every backing, including a non-multiple-of-chunk
  // size.
  for (const auto backing : AllBackings()) {
    const auto counters = MakeLoadedCounters(backing, 53);
    uint64_t manual = 0;
    for (size_t i = 0; i < counters->size(); ++i) manual += counters->Get(i);
    EXPECT_EQ(counters->Total(), manual) << CounterBackingName(backing);
  }
}

// --- counters at 2^64 - 1 -------------------------------------------------

// A counter saturated at 2^64 - 1 travels as the 65-bit Elias-delta code
// of 2^64. Before that code existed, the value wrapped to code(0) and the
// frame could not be written or read back.
constexpr uint64_t kFullCounter = ~uint64_t{0};

TEST(SerializationFuzzTest, FullWidthCountersRoundTripOnGroupedBackings) {
  for (const auto backing :
       {CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    SbfOptions options;
    options.m = 600;
    options.k = 4;
    options.backing = backing;
    SpectralBloomFilter filter(options);
    filter.Insert(7, kFullCounter - 40);
    filter.Insert(7, 100);  // clamps at 2^64 - 1
    filter.Insert(8, 3);
    ASSERT_EQ(filter.Estimate(7), kFullCounter);
    const Bytes bytes = filter.Serialize();
    EXPECT_LT(bytes.size(), 1024u) << CounterBackingName(backing);
    auto restored = SpectralBloomFilter::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << CounterBackingName(backing) << ": "
                               << restored.status().message();
    EXPECT_EQ(restored.value().Estimate(7), kFullCounter);
    EXPECT_EQ(restored.value().Serialize(), bytes);
    ExpectEqualEstimatesOnProbeSet(filter, restored.value());
  }
}

TEST(SerializationFuzzTest, FullWidthCountersRoundTripSharded) {
  ConcurrentSbfOptions options;
  options.m = 2400;
  options.k = 4;
  options.num_shards = 4;
  options.backing = CounterBacking::kCompact;
  ConcurrentSbf filter(options);
  // Flushed apart: the delta buffer sums counts of one key before they
  // reach the shard, and this test is about the frame, not that sum.
  filter.Insert(7, kFullCounter - 40);
  filter.Flush();
  filter.Insert(7, 100);  // clamps at 2^64 - 1
  filter.Insert(8, 3);
  ASSERT_EQ(filter.Estimate(7), kFullCounter);
  const Bytes bytes = filter.Serialize();
  auto restored = ConcurrentSbf::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().Estimate(7), kFullCounter);
  EXPECT_EQ(restored.value().Serialize(), bytes);
  ExpectEqualEstimatesOnProbeSet(filter, restored.value());
}

TEST(SerializationFuzzTest, LengthSixtyFiveCodewordNeedsZeroPayload) {
  // One compact counter at 2^64 - 1: the stream is gamma(65) (13 bits)
  // and 64 zero payload bits, the last two words of the payload. Any
  // non-zero payload bit makes the codeword name a value past 2^64.
  auto counters = MakeCounterVector(CounterBacking::kCompact, 1);
  counters->Set(0, kFullCounter);
  const Bytes bytes = counters->Serialize();
  auto restored = DeserializeCounterVector(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value()->Get(0), kFullCounter);
  for (const size_t bit : {13u, 40u, 63u, 64u, 76u}) {
    const Bytes crafted = Reframe(bytes, [bit](Bytes* p) {
      const size_t words_at = p->size() - 16;
      (*p)[words_at + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    });
    EXPECT_EQ(DeserializeCounterVector(crafted).status().code(),
              Status::Code::kDataLoss)
        << "payload bit " << bit;
  }
}

// A compact-counter frame around a hand-built counter stream: m counters,
// the stream's declared bit count, and whatever words follow it.
Bytes CompactFrameWithStream(uint64_t m, uint64_t stream_bits,
                             const std::vector<uint64_t>& words) {
  wire::Writer payload;
  payload.PutVarint(m);
  payload.PutVarint(32);                  // group size
  payload.PutU64(0x3FE0000000000000ull);  // slack 0.5
  payload.PutVarint(stream_bits);
  payload.PutWords(words.data(), words.size());
  return wire::SealFrame(wire::kMagicCompactCounters, wire::kFormatVersion,
                         std::move(payload));
}

// Malformed streams reach the bounded delta decoder past an intact CRC;
// each must come back as a clean DataLoss.
TEST(SerializationFuzzTest, BoundedDecoderRejectsMalformedStreams) {
  const auto expect_data_loss = [](const Bytes& frame, const char* what) {
    EXPECT_EQ(DeserializeCounterVector(frame).status().code(),
              Status::Code::kDataLoss)
        << what;
  };
  // Sanity: one counter of 2^64 - 1, gamma(65) = 6 zeros, 1, "000001",
  // then 64 zero bits, decodes.
  const uint64_t gamma65 = (uint64_t{1} << 6) | (uint64_t{1} << 12);
  ASSERT_TRUE(DeserializeCounterVector(CompactFrameWithStream(1, 77, {gamma65, 0}))
                  .ok());
  // A gamma prefix of 7 or more zeros names a length past 65.
  for (const uint32_t zeros : {7u, 8u, 20u, 63u}) {
    expect_data_loss(
        CompactFrameWithStream(1, 64, {uint64_t{1} << zeros}),
        ("gamma prefix of " + std::to_string(zeros) + " zeros").c_str());
  }
  expect_data_loss(CompactFrameWithStream(1, 64, {0}), "all-zero word");
  // Length 66: gamma(66) = 6 zeros, 1, "000010".
  expect_data_loss(
      CompactFrameWithStream(
          1, 78, {(uint64_t{1} << 6) | (uint64_t{1} << 11), 0}),
      "length 66");
  // Length 65 with any nonzero payload bit names a value past 2^64.
  for (const uint32_t bit : {13u, 40u, 63u, 64u, 76u}) {
    std::vector<uint64_t> words = {gamma65, 0};
    words[bit / 64] |= uint64_t{1} << (bit % 64);
    expect_data_loss(CompactFrameWithStream(1, 77, words),
                     "nonzero payload after length 65");
  }
  // Sixty 1-bit zero counters, then a codeword whose gamma prefix "0001"
  // ends the stream: its length bits and payload run into the guard words.
  expect_data_loss(CompactFrameWithStream(
                       61, 64, {LowMask(60) | (uint64_t{1} << 63)}),
                   "last codeword runs into the guard words");
  // The declared bit count needs two words; the payload holds one.
  expect_data_loss(CompactFrameWithStream(1, 65, {1}), "truncated final word");
  // A codeword that ends past the declared bit count.
  expect_data_loss(CompactFrameWithStream(1, 3, {0b0100}), "overrun");
}

// --- flat SBF --------------------------------------------------------------

bool DecodeSbf(const Bytes& bytes) {
  return SpectralBloomFilter::Deserialize(bytes).ok();
}

SpectralBloomFilter MakeLoadedSbf(CounterBacking backing, uint64_t seed) {
  SbfOptions options;
  options.m = 500;
  options.k = 4;
  options.seed = seed;
  options.backing = backing;
  SpectralBloomFilter filter(options);
  const Multiset data = MakeZipfMultiset(150, 4000, 1.0, seed);
  for (uint64_t key : data.stream) filter.Insert(key);
  return filter;
}

TEST(SerializationFuzzTest, SbfRoundTripIsByteStableAcrossBackings) {
  for (const auto backing : AllBackings()) {
    const auto filter = MakeLoadedSbf(backing, 1);
    const Bytes bytes = filter.Serialize();
    auto restored = SpectralBloomFilter::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << CounterBackingName(backing);
    EXPECT_EQ(restored.value().Serialize(), bytes)
        << CounterBackingName(backing);
    ExpectEqualEstimatesOnProbeSet(filter, restored.value());
  }
}

TEST(SerializationFuzzTest, SbfTruncationsNeverCrash) {
  ExpectTruncationsRejected(
      MakeLoadedSbf(CounterBacking::kCompact, 2).Serialize(), DecodeSbf);
}

TEST(SerializationFuzzTest, SbfSingleByteCorruptionsAlwaysRejected) {
  ExpectCorruptionsRejected(
      MakeLoadedSbf(CounterBacking::kFixed64, 3).Serialize(), DecodeSbf, 5);
}

TEST(SerializationFuzzTest, SbfRandomGarbageRejected) {
  ExpectGarbageRejected(DecodeSbf, 7);
}

TEST(SerializationFuzzTest, SbfVersionDriftRejected) {
  ExpectVersionDriftRejected(
      MakeLoadedSbf(CounterBacking::kCompact, 8).Serialize(), DecodeSbf);
}

TEST(SerializationFuzzTest, SbfStructuralHeaderMutationsRejected) {
  // 'SBsf' payload: varint m (500: 2 bytes), varint k at [2], u8 policy at
  // [3], u8 backing at [4], u8 hash kind at [5], u64 seed, varint total,
  // embedded counter frame. Each mutation below re-seals with a valid CRC,
  // so only the header validation can reject it.
  const Bytes bytes = MakeLoadedSbf(CounterBacking::kFixed64, 9).Serialize();
  const auto mutated_at = [&bytes](size_t index, uint8_t value) {
    return Reframe(bytes, [index, value](Bytes* p) { (*p)[index] = value; });
  };
  // m = 0 (non-canonical varint spelling keeps the field width).
  EXPECT_FALSE(DecodeSbf(Reframe(bytes, [](Bytes* p) {
    (*p)[0] = 0x80;
    (*p)[1] = 0x00;
  })));
  // m disagreeing with the embedded counter vector's size.
  EXPECT_FALSE(DecodeSbf(Reframe(bytes, [](Bytes* p) {
    (*p)[0] = 0xF5;  // 501 instead of 500
    (*p)[1] = 0x03;
  })));
  EXPECT_FALSE(DecodeSbf(mutated_at(2, 0)));     // k = 0
  EXPECT_FALSE(DecodeSbf(mutated_at(2, 65)));    // k > 64
  EXPECT_FALSE(DecodeSbf(mutated_at(3, 2)));     // unknown policy
  EXPECT_FALSE(DecodeSbf(mutated_at(4, 9)));     // unknown backing
  EXPECT_FALSE(DecodeSbf(mutated_at(5, 7)));     // unknown hash kind
  // Backing byte claiming kCompact over an embedded fixed64 frame: the
  // frame parses, but MatchesBacking must notice the lie (a wrong static
  // downcast in the batch kernels would otherwise be UB).
  EXPECT_FALSE(DecodeSbf(
      mutated_at(4, static_cast<uint8_t>(CounterBacking::kCompact))));
}

TEST(SerializationFuzzTest, SbfFrameWithStickyBackingByteRejected) {
  // A sticky4 filter has exactly one encoding, 'SBcb': an 'SBsf' header
  // carrying backing byte 4 is rejected even over a genuine sticky4
  // counter frame.
  SbfOptions options;
  options.m = 500;
  options.k = 4;
  options.backing = CounterBacking::kSticky4;
  const Bytes sticky_counters = MakeCounterVector(options.backing, 500)
                                    ->Serialize();
  wire::Writer payload;
  payload.PutVarint(options.m);
  payload.PutVarint(options.k);
  payload.PutU8(0);  // Minimum Selection
  payload.PutU8(static_cast<uint8_t>(CounterBacking::kSticky4));
  payload.PutU8(0);  // kModuloMultiply
  payload.PutU64(options.seed);
  payload.PutVarint(0);  // total items
  payload.PutFrame(sticky_counters);
  const Bytes frame = wire::SealFrame(wire::kMagicSbf, wire::kFormatVersion,
                                      std::move(payload));
  const auto loaded = SpectralBloomFilter::Deserialize(frame);
  EXPECT_EQ(loaded.status().code(), Status::Code::kDataLoss);
}

// --- sharded (ConcurrentSbf) -----------------------------------------------

bool DecodeSharded(const Bytes& bytes) {
  return ConcurrentSbf::Deserialize(bytes).ok();
}

ConcurrentSbf MakeLoadedShardedSbf(CounterBacking backing, uint64_t seed) {
  ConcurrentSbfOptions options;
  options.m = 2000;
  options.k = 4;
  options.num_shards = 4;
  options.seed = seed;
  options.backing = backing;
  ConcurrentSbf filter(options);
  const Multiset data = MakeZipfMultiset(150, 4000, 1.0, seed);
  filter.InsertBatch(data.stream);
  return filter;
}

TEST(SerializationFuzzTest, ShardedRoundTripIsByteStableAcrossBackings) {
  for (const auto backing : AllBackings()) {
    const auto filter = MakeLoadedShardedSbf(backing, 21);
    const Bytes bytes = filter.Serialize();
    auto restored = ConcurrentSbf::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << CounterBackingName(backing);
    EXPECT_EQ(restored.value().Serialize(), bytes)
        << CounterBackingName(backing);
    // The sticky4 shard frame ('SBcb') records no item count.
    if (backing != CounterBacking::kSticky4) {
      EXPECT_EQ(restored.value().TotalItems(), filter.TotalItems());
    }
    ExpectEqualEstimatesOnProbeSet(filter, restored.value());
  }
}

TEST(SerializationFuzzTest, ShardedTruncationsNeverCrash) {
  ExpectTruncationsRejected(
      MakeLoadedShardedSbf(CounterBacking::kFixed64, 23).Serialize(),
      DecodeSharded);
}

TEST(SerializationFuzzTest, ShardedShardCountMismatchRejected) {
  // 'SBcs' payload: varint num_shards at [0] (4 fits one byte), varint m,
  // u64 seed, embedded shard frames. Claiming fewer shards leaves trailing
  // frames; claiming more runs out of payload; zero is invalid outright.
  const Bytes bytes =
      MakeLoadedShardedSbf(CounterBacking::kCompact, 25).Serialize();
  for (const uint8_t claimed : {0, 1, 3, 5, 100}) {
    const Bytes mutated =
        Reframe(bytes, [claimed](Bytes* p) { (*p)[0] = claimed; });
    EXPECT_FALSE(DecodeSharded(mutated)) << "claimed " << int(claimed);
  }
}

TEST(SerializationFuzzTest, ShardedCorruptedShardFramesRejected) {
  // Smash bytes inside the first embedded shard frame; the outer CRC is
  // recomputed, so the rejection must come from the embedded frame's own
  // envelope (magic/CRC) validation.
  const Bytes bytes =
      MakeLoadedShardedSbf(CounterBacking::kFixed64, 27).Serialize();
  // Payload prefix: 1 (shard count) + 2 (m = 2000) + 8 (seed) bytes, then
  // the first shard's varint length prefix and its frame.
  for (const size_t offset : {11u, 13u, 16u, 40u}) {
    const Bytes mutated = Reframe(bytes, [offset](Bytes* p) {
      for (size_t i = 0; i < 8; ++i) (*p)[offset + i] ^= 0xFF;
    });
    EXPECT_FALSE(DecodeSharded(mutated)) << "offset " << offset;
  }
}

TEST(SerializationFuzzTest, ShardedShardSeedTamperingRejected) {
  // Swapping two shard frames breaks the deterministic per-shard seed
  // schedule. The forged message has a pristine envelope and valid
  // embedded frames, so only the seed-schedule validation can catch it —
  // and it must, because routing queries to a shard with foreign hash
  // functions silently breaks the one-sided guarantee.
  const auto filter = MakeLoadedShardedSbf(CounterBacking::kFixed64, 29);
  wire::Writer payload;
  payload.PutVarint(filter.num_shards());
  payload.PutVarint(2000);
  payload.PutU64(29);
  for (const uint32_t s : {1u, 0u, 2u, 3u}) {  // shards 0 and 1 swapped
    payload.PutFrame(filter.SnapshotShard(s).Serialize());
  }
  const Bytes swapped = wire::SealFrame(
      wire::kMagicShardedSbf, wire::kFormatVersion, std::move(payload));
  EXPECT_FALSE(DecodeSharded(swapped));
}

TEST(SerializationFuzzTest, ShardedBlockedShardRejected) {
  // Blocked SBF frames decode as SpectralBloomFilter too, but shards are
  // flat. A shard frame replaced by a blocked filter with otherwise
  // identical options has valid envelopes throughout, so only the
  // per-shard options check can reject it.
  const auto filter = MakeLoadedShardedSbf(CounterBacking::kFixed64, 31);
  const auto forge = [&filter](bool blocked_shard) {
    wire::Writer payload;
    payload.PutVarint(filter.num_shards());
    payload.PutVarint(2000);
    payload.PutU64(31);
    for (uint32_t s = 0; s < filter.num_shards(); ++s) {
      SbfOptions options = filter.SnapshotShard(s).options();
      if (s == 2 && blocked_shard) options.block_size = options.m;
      payload.PutFrame(SpectralBloomFilter(options).Serialize());
    }
    return wire::SealFrame(wire::kMagicShardedSbf, wire::kFormatVersion,
                           std::move(payload));
  };
  EXPECT_TRUE(DecodeSharded(forge(false)));
  EXPECT_FALSE(DecodeSharded(forge(true)));
}

TEST(SerializationFuzzTest, ShardedSingleByteCorruptionsAlwaysRejected) {
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    ExpectCorruptionsRejected(MakeLoadedShardedSbf(backing, 31).Serialize(),
                              DecodeSharded, 33);
  }
}

TEST(SerializationFuzzTest, ShardedRandomGarbageRejected) {
  ExpectGarbageRejected(DecodeSharded, 35);
}

// --- plain Bloom filter ----------------------------------------------------

bool DecodeBloom(const Bytes& bytes) {
  return BloomFilter::Deserialize(bytes).ok();
}

TEST(SerializationFuzzTest, BloomFilterRoundTripPreservesMembership) {
  BloomFilter filter(777, 3, 11);
  for (uint64_t key = 0; key < 200; ++key) filter.Add(key);
  const Bytes bytes = filter.Serialize();
  auto restored = BloomFilter::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Serialize(), bytes);
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    ASSERT_EQ(filter.Contains(key), restored.value().Contains(key));
  }
}

TEST(SerializationFuzzTest, BloomFilterTruncationsNeverCrash) {
  BloomFilter filter(777, 3, 11);
  for (uint64_t key = 0; key < 200; ++key) filter.Add(key);
  ExpectTruncationsRejected(filter.Serialize(), DecodeBloom);
}

TEST(SerializationFuzzTest, BloomFilterBitFlipsAlwaysRejected) {
  BloomFilter filter(512, 4, 13);
  for (uint64_t key = 0; key < 100; ++key) filter.Add(key);
  ExpectCorruptionsRejected(filter.Serialize(), DecodeBloom, 15);
}

// --- counting Bloom filter -------------------------------------------------

bool DecodeCbf(const Bytes& bytes) {
  return SpectralBloomFilter::Deserialize(bytes).ok();
}

SpectralBloomFilter MakeLoadedCbf(uint64_t seed) {
  SbfOptions options;
  options.m = 512;
  options.k = 4;
  options.seed = seed;
  options.backing = CounterBacking::kSticky4;
  SpectralBloomFilter filter(options);
  const Multiset data = MakeZipfMultiset(100, 3000, 1.2, seed);
  for (uint64_t key : data.stream) filter.Insert(key);
  return filter;
}

TEST(SerializationFuzzTest, CountingBloomRoundTripPreservesSaturation) {
  const auto filter = MakeLoadedCbf(61);
  const Bytes bytes = filter.Serialize();
  auto restored = SpectralBloomFilter::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Serialize(), bytes);
  EXPECT_EQ(restored.value().counters().ScanOccupancy().saturated,
            filter.counters().ScanOccupancy().saturated);
  ExpectEqualEstimatesOnProbeSet(filter, restored.value());
}

TEST(SerializationFuzzTest, CountingBloomCorruptionAndTruncationRejected) {
  const Bytes bytes = MakeLoadedCbf(63).Serialize();
  ExpectTruncationsRejected(bytes, DecodeCbf);
  ExpectCorruptionsRejected(bytes, DecodeCbf, 65);
  ExpectGarbageRejected(DecodeCbf, 67);
  ExpectVersionDriftRejected(bytes, DecodeCbf);
}

TEST(SerializationFuzzTest, CountingBloomStructuralMutationsRejected) {
  // 'SBcb' payload: varint m (512: 2 bytes), varint k at [2], u8 kind at
  // [3], u64 seed at [4,12), varint counter width at [12], embedded fixed
  // counter frame.
  const Bytes bytes = MakeLoadedCbf(69).Serialize();
  for (const uint8_t bad_width : {0, 65}) {
    EXPECT_FALSE(DecodeCbf(Reframe(
        bytes, [bad_width](Bytes* p) { (*p)[12] = bad_width; })))
        << "width " << int(bad_width);
  }
  // Width byte disagreeing with the embedded counter frame's own width.
  EXPECT_FALSE(DecodeCbf(Reframe(bytes, [](Bytes* p) { (*p)[12] = 5; })));
  EXPECT_FALSE(DecodeCbf(Reframe(bytes, [](Bytes* p) { (*p)[2] = 0; })));
}

TEST(SerializationFuzzTest, CountingBloomWidthOtherThanFourIsDataLoss) {
  // Only 4-bit counters exist: every other width in the 'SBcb' header is
  // DataLoss, even one that agrees with a well-formed embedded frame.
  const Bytes bytes = MakeLoadedCbf(71).Serialize();
  for (const uint8_t width : {1, 3, 5, 8, 32, 64}) {
    const auto loaded = SpectralBloomFilter::Deserialize(
        Reframe(bytes, [width](Bytes* p) { (*p)[12] = width; }));
    EXPECT_EQ(loaded.status().code(), Status::Code::kDataLoss)
        << "width " << int(width);
  }
}

// --- blocked SBF -----------------------------------------------------------

bool DecodeBlocked(const Bytes& bytes) {
  return SpectralBloomFilter::Deserialize(bytes).ok();
}

SpectralBloomFilter MakeLoadedBlocked(CounterBacking backing,
                                      uint64_t seed) {
  SbfOptions options;
  options.m = 4096;
  options.block_size = 256;
  options.k = 4;
  options.backing = backing;
  options.seed = seed;
  SpectralBloomFilter filter(options);
  const Multiset data = MakeZipfMultiset(150, 4000, 1.0, seed);
  for (uint64_t key : data.stream) filter.Insert(key);
  return filter;
}

TEST(SerializationFuzzTest, BlockedSbfRoundTripIsByteStable) {
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    const auto filter = MakeLoadedBlocked(backing, 71);
    const Bytes bytes = filter.Serialize();
    auto restored = SpectralBloomFilter::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << CounterBackingName(backing);
    EXPECT_EQ(restored.value().Serialize(), bytes);
    ExpectEqualEstimatesOnProbeSet(filter, restored.value());
  }
}

TEST(SerializationFuzzTest, BlockedSbfCorruptionAndTruncationRejected) {
  const Bytes bytes =
      MakeLoadedBlocked(CounterBacking::kFixed64, 73).Serialize();
  ExpectTruncationsRejected(bytes, DecodeBlocked);
  ExpectCorruptionsRejected(bytes, DecodeBlocked, 75);
  ExpectGarbageRejected(DecodeBlocked, 77);
}

TEST(SerializationFuzzTest, BlockedSbfStructuralMutationsRejected) {
  // 'SBbk' payload: varint m (4096: 2 bytes), varint block_size (256: 2
  // bytes at [2,4)), varint k at [4], u8 backing at [5], u8 kind at [6].
  const Bytes bytes =
      MakeLoadedBlocked(CounterBacking::kFixed64, 79).Serialize();
  // block_size = 0 (non-canonical two-byte varint).
  EXPECT_FALSE(DecodeBlocked(Reframe(bytes, [](Bytes* p) {
    (*p)[2] = 0x80;
    (*p)[3] = 0x00;
  })));
  // block_size = 255, which does not divide m = 4096.
  EXPECT_FALSE(DecodeBlocked(Reframe(bytes, [](Bytes* p) {
    (*p)[2] = 0xFF;
    (*p)[3] = 0x01;
  })));
  EXPECT_FALSE(DecodeBlocked(Reframe(bytes, [](Bytes* p) { (*p)[4] = 0; })));
}

// --- recurring minimum -----------------------------------------------------

bool DecodeRm(const Bytes& bytes) {
  return RecurringMinimumSbf::Deserialize(bytes).ok();
}

RecurringMinimumSbf MakeLoadedRm(bool use_marker, uint64_t seed) {
  RecurringMinimumOptions options;
  options.primary_m = 600;
  options.secondary_m = 150;
  options.k = 4;
  options.seed = seed;
  options.use_marker_filter = use_marker;
  RecurringMinimumSbf filter(options);
  const Multiset data = MakeZipfMultiset(150, 4000, 1.0, seed);
  for (uint64_t key : data.stream) filter.Insert(key);
  return filter;
}

TEST(SerializationFuzzTest, RecurringMinimumRoundTripWithAndWithoutMarker) {
  for (const bool use_marker : {false, true}) {
    const auto filter = MakeLoadedRm(use_marker, 81);
    const Bytes bytes = filter.Serialize();
    auto restored = RecurringMinimumSbf::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << "marker " << use_marker;
    EXPECT_EQ(restored.value().Serialize(), bytes);
    EXPECT_EQ(restored.value().moved_to_secondary(),
              filter.moved_to_secondary());
    EXPECT_EQ(restored.value().marker().has_value(), use_marker);
    ExpectEqualEstimatesOnProbeSet(filter, restored.value());
  }
}

TEST(SerializationFuzzTest, RecurringMinimumStickyBackingRoundTrips) {
  // Every filter that can be built also loads: an RM filter over sticky4
  // embeds 'SBcb' primary and secondary frames.
  RecurringMinimumOptions options;
  options.primary_m = 600;
  options.secondary_m = 150;
  options.k = 4;
  options.seed = 87;
  options.use_marker_filter = true;
  options.backing = CounterBacking::kSticky4;
  RecurringMinimumSbf filter(options);
  const Multiset data = MakeZipfMultiset(150, 4000, 1.0, 87);
  for (uint64_t key : data.stream) filter.Insert(key);
  const Bytes bytes = filter.Serialize();
  auto restored = RecurringMinimumSbf::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored.value().primary().options().backing,
            CounterBacking::kSticky4);
  EXPECT_EQ(restored.value().Serialize(), bytes);
  ExpectEqualEstimatesOnProbeSet(filter, restored.value());
}

TEST(SerializationFuzzTest, RecurringMinimumCorruptionAndTruncationRejected) {
  const Bytes bytes = MakeLoadedRm(true, 83).Serialize();
  ExpectTruncationsRejected(bytes, DecodeRm);
  ExpectCorruptionsRejected(bytes, DecodeRm, 85);
  ExpectGarbageRejected(DecodeRm, 87);
}

TEST(SerializationFuzzTest, RecurringMinimumMarkerFlagMutationsRejected) {
  // 'SBrm' payload: varint primary_m (600: 2 bytes), varint secondary_m
  // (150: 2 bytes), varint k at [4], u8 backing at [5], u8 kind at [6],
  // u8 use_marker at [7]. Flipping the flag strands the marker frame (or
  // claims one that is not there); both directions must be rejected.
  const Bytes with_marker = MakeLoadedRm(true, 89).Serialize();
  const Bytes without_marker = MakeLoadedRm(false, 89).Serialize();
  EXPECT_FALSE(
      DecodeRm(Reframe(with_marker, [](Bytes* p) { (*p)[7] = 0; })));
  EXPECT_FALSE(
      DecodeRm(Reframe(without_marker, [](Bytes* p) { (*p)[7] = 1; })));
  EXPECT_FALSE(
      DecodeRm(Reframe(with_marker, [](Bytes* p) { (*p)[7] = 2; })));
}

TEST(SerializationFuzzTest, RecurringMinimumSeedScheduleTamperingRejected) {
  // A forged message whose secondary frame is actually a copy of the
  // primary (wrong m, wrong derived seed) with a pristine envelope: only
  // the embedded-options consistency check can reject it.
  RecurringMinimumOptions options;
  options.primary_m = 600;
  options.secondary_m = 150;
  options.k = 4;
  options.seed = 91;
  const RecurringMinimumSbf filter(options);
  wire::Writer payload;
  payload.PutVarint(options.primary_m);
  payload.PutVarint(options.secondary_m);
  payload.PutVarint(options.k);
  payload.PutU8(static_cast<uint8_t>(options.backing));
  payload.PutU8(0);  // hash kind
  payload.PutU8(0);  // no marker
  payload.PutU64(options.seed);
  payload.PutVarint(0);  // moved count
  payload.PutFrame(filter.primary().Serialize());
  payload.PutFrame(filter.primary().Serialize());  // wrong: not secondary
  const Bytes forged = wire::SealFrame(
      wire::kMagicRecurringMinimum, wire::kFormatVersion, std::move(payload));
  EXPECT_FALSE(DecodeRm(forged));
}

// --- trapping RM -----------------------------------------------------------

bool DecodeTrm(const Bytes& bytes) {
  return TrappingRmSbf::Deserialize(bytes).ok();
}

TrappingRmSbf MakeLoadedTrm(uint64_t seed) {
  RecurringMinimumOptions options;
  options.primary_m = 600;
  options.secondary_m = 150;
  options.k = 4;
  options.seed = seed;
  TrappingRmSbf filter(options);
  const Multiset data = MakeZipfMultiset(150, 4000, 1.0, seed);
  for (uint64_t key : data.stream) filter.Insert(key);
  return filter;
}

TEST(SerializationFuzzTest, TrappingRmRoundTripPreservesTrapState) {
  const auto filter = MakeLoadedTrm(93);
  ASSERT_GT(filter.traps_armed(), 0u);  // the workload must arm traps
  const Bytes bytes = filter.Serialize();
  auto restored = TrappingRmSbf::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Serialize(), bytes);
  EXPECT_EQ(restored.value().traps_armed(), filter.traps_armed());
  EXPECT_EQ(restored.value().traps_fired(), filter.traps_fired());
  ExpectEqualEstimatesOnProbeSet(filter, restored.value());
}

TEST(SerializationFuzzTest, TrappingRmCorruptionAndTruncationRejected) {
  const Bytes bytes = MakeLoadedTrm(95).Serialize();
  ExpectTruncationsRejected(bytes, DecodeTrm);
  ExpectCorruptionsRejected(bytes, DecodeTrm, 97);
  ExpectGarbageRejected(DecodeTrm, 99);
}

TEST(SerializationFuzzTest, TrappingRmOwnerTableMutationsRejected) {
  // An *empty* TRM serializes zeroed trap words followed by a one-byte
  // owner count of 0 at the payload's very end. Claiming an owner entry
  // that is not there, or arming a trap bit with no owner, must both be
  // rejected — they desynchronize the trap bitmap from the lookup table.
  RecurringMinimumOptions options;
  options.primary_m = 128;
  options.secondary_m = 64;
  options.k = 3;
  options.seed = 101;
  const TrappingRmSbf empty(options);
  const Bytes bytes = empty.Serialize();
  ASSERT_TRUE(DecodeTrm(bytes));
  // Owner count 1 with no entry bytes: truncated.
  EXPECT_FALSE(DecodeTrm(Reframe(bytes, [](Bytes* p) { p->back() = 1; })));
  // Set trap bit with owner count 0: bitmap/table popcount mismatch. The
  // trap words are the 16 bytes before the final count byte.
  EXPECT_FALSE(DecodeTrm(Reframe(bytes, [](Bytes* p) {
    (*p)[p->size() - 2] |= 0x01;
  })));
}

// --- sliding window --------------------------------------------------------

bool DecodeWindow(const Bytes& bytes) {
  return SlidingWindowFilter::Deserialize(bytes).ok();
}

SlidingWindowFilter MakeLoadedWindow(uint64_t seed) {
  SbfOptions options;
  options.m = 400;
  options.k = 4;
  options.seed = seed;
  SlidingWindowFilter window(
      std::make_unique<SpectralBloomFilter>(options), 64);
  Xoshiro256 rng(seed);
  for (int i = 0; i < 500; ++i) window.Push(rng.UniformInt(100));
  return window;
}

TEST(SerializationFuzzTest, SlidingWindowRoundTripPreservesWindowState) {
  auto window = MakeLoadedWindow(103);
  const Bytes bytes = window.Serialize();
  auto restored = SlidingWindowFilter::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().Serialize(), bytes);
  EXPECT_EQ(restored.value().window_size(), window.window_size());
  EXPECT_EQ(restored.value().current_fill(), window.current_fill());
  ExpectEqualEstimatesOnProbeSet(window, restored.value());
  // The restored window must keep *evicting* identically: pushes drive the
  // same deletions because the in-window keys were restored verbatim.
  Xoshiro256 rng(104);
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.UniformInt(100);
    window.Push(key);
    restored.value().Push(key);
  }
  ExpectEqualEstimatesOnProbeSet(window, restored.value());
}

TEST(SerializationFuzzTest, SlidingWindowCorruptionAndTruncationRejected) {
  const Bytes bytes = MakeLoadedWindow(105).Serialize();
  ExpectTruncationsRejected(bytes, DecodeWindow);
  ExpectCorruptionsRejected(bytes, DecodeWindow, 107);
  ExpectGarbageRejected(DecodeWindow, 109);
}

TEST(SerializationFuzzTest, SlidingWindowFillMutationsRejected) {
  // 'SBsw' payload: varint window size (64: 1 byte), varint fill at [1]
  // (64 after 500 pushes). Fill beyond the window size is inconsistent;
  // fill beyond the payload is an unbounded-allocation attempt.
  const Bytes bytes = MakeLoadedWindow(111).Serialize();
  EXPECT_FALSE(DecodeWindow(Reframe(bytes, [](Bytes* p) { (*p)[1] = 65; })));
  EXPECT_FALSE(DecodeWindow(Reframe(bytes, [](Bytes* p) { (*p)[0] = 0; })));
}

// --- Bloomjoin partition ---------------------------------------------------

bool DecodePartition(const Bytes& bytes) {
  return ReceivePartition(bytes).ok();
}

Relation MakeOrdersRelation(uint64_t seed) {
  Relation orders("orders");
  Xoshiro256 rng(seed);
  for (uint64_t i = 0; i < 2000; ++i) {
    orders.Add(rng.UniformInt(300), i);
  }
  return orders;
}

TEST(SerializationFuzzTest, JoinPartitionRoundTripIsByteStable) {
  const Relation orders = MakeOrdersRelation(113);
  const Bytes bytes = ShipPartition(orders, 1000, 4, 113);
  auto received = ReceivePartition(bytes);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value().relation, "orders");
  EXPECT_EQ(received.value().tuples, orders.size());
  EXPECT_EQ(SerializePartition(received.value()), bytes);
  // The received filter answers like one built locally from the relation.
  const auto freqs = orders.FrequencyMap();
  for (const auto& [value, count] : freqs) {
    ASSERT_GE(received.value().filter.Estimate(value), count);
  }
}

TEST(SerializationFuzzTest, JoinPartitionCorruptionAndTruncationRejected) {
  const Bytes bytes = ShipPartition(MakeOrdersRelation(115), 1000, 4, 115);
  ExpectTruncationsRejected(bytes, DecodePartition);
  ExpectCorruptionsRejected(bytes, DecodePartition, 117);
  ExpectGarbageRejected(DecodePartition, 119);
  ExpectVersionDriftRejected(bytes, DecodePartition);
}

TEST(SerializationFuzzTest, JoinPartitionNameLengthMutationRejected) {
  // 'SBjp' payload: varint name length at [0] ("orders": 6), the name
  // bytes, varint tuple count, embedded SBF frame. Continuing the varint
  // into the name bytes yields a length far beyond the payload, which must
  // be rejected before any allocation.
  const Bytes bytes = ShipPartition(MakeOrdersRelation(121), 200, 4, 121);
  EXPECT_FALSE(
      DecodePartition(Reframe(bytes, [](Bytes* p) { (*p)[0] = 0xFF; })));
}

// --- polymorphic filter codec ----------------------------------------------

TEST(SerializationFuzzTest, DeserializeFilterDispatchesEveryFrontend) {
  const std::vector<std::pair<std::string, Bytes>> frames = {
      {"SBF", MakeLoadedSbf(CounterBacking::kCompact, 131).Serialize()},
      {"sharded",
       MakeLoadedShardedSbf(CounterBacking::kFixed64, 133).Serialize()},
      {"CBF", MakeLoadedCbf(135).Serialize()},
      {"blocked",
       MakeLoadedBlocked(CounterBacking::kCompact, 137).Serialize()},
      {"RM", MakeLoadedRm(true, 139).Serialize()},
      {"TRM", MakeLoadedTrm(141).Serialize()},
  };
  for (const auto& [label, bytes] : frames) {
    auto restored = DeserializeFilter(bytes);
    ASSERT_TRUE(restored.ok()) << label;
    EXPECT_EQ(restored.value()->Serialize(), bytes) << label;
  }
  // Valid frames of non-filter types must fail the dispatch cleanly.
  EXPECT_FALSE(DeserializeFilter(
                   MakeLoadedCounters(CounterBacking::kCompact, 143)
                       ->Serialize())
                   .ok());
  BloomFilter bloom(128, 3, 1);
  EXPECT_FALSE(DeserializeFilter(bloom.Serialize()).ok());
}

// --- fault-armed wire sweep ------------------------------------------------

// With SBF_FAULT_INJECTION compiled in, re-run the frontend sweep with the
// injector corrupting frames *inside* Serialize (including the embedded
// frames, before the outer envelope is sealed). Deterministic seeds, every
// frontend, both fault kinds: nothing decodes, nothing crashes.
TEST(SerializationFuzzTest, FaultArmedFramesNeverDecode) {
#ifndef SBF_FAULT_INJECTION
  GTEST_SKIP() << "built without SBF_FAULT_INJECTION";
#else
  fault::Reset();
  const std::vector<std::unique_ptr<FrequencyFilter>> filters = [] {
    std::vector<std::unique_ptr<FrequencyFilter>> out;
    out.push_back(std::make_unique<SpectralBloomFilter>(
        MakeLoadedSbf(CounterBacking::kCompact, 151)));
    out.push_back(std::make_unique<ConcurrentSbf>(
        MakeLoadedShardedSbf(CounterBacking::kFixed64, 153)));
    out.push_back(std::make_unique<SpectralBloomFilter>(MakeLoadedCbf(155)));
    out.push_back(std::make_unique<SpectralBloomFilter>(
        MakeLoadedBlocked(CounterBacking::kCompact, 157)));
    out.push_back(std::make_unique<RecurringMinimumSbf>(
        MakeLoadedRm(true, 159)));
    out.push_back(std::make_unique<TrappingRmSbf>(MakeLoadedTrm(161)));
    return out;
  }();
  for (const auto& filter : filters) {
    for (const auto kind :
         {fault::WireFault::kTruncate, fault::WireFault::kBitFlip,
          fault::WireFault::kTornTail}) {
      for (uint64_t seed = 0; seed < 32; ++seed) {
        fault::ArmWireFault(kind, seed);
        const Bytes bytes = filter->Serialize();
        EXPECT_FALSE(DeserializeFilter(bytes).ok())
            << filter->Name() << " kind " << static_cast<int>(kind)
            << " seed " << seed;
      }
    }
    // Serialization faults never touch the source filter: disarmed, the
    // same object still emits a decodable frame.
    fault::Reset();
    EXPECT_TRUE(DeserializeFilter(filter->Serialize()).ok())
        << filter->Name();
  }
#endif
}

}  // namespace
}  // namespace sbf
