// Online expansion (ExpandTo): growing a live filter must preserve every
// estimate bit-for-bit — both hash kinds locate each old counter's
// preimage set exactly, so the fold-based rebuild is lossless — and the
// ConcurrentSbf dual-write window must stay readable and one-sided while
// writers and readers race the migration.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/bloom_filter.h"
#include "core/concurrent_sbf.h"
#include "core/recurring_minimum.h"
#include "core/spectral_bloom_filter.h"
#include "util/random.h"

namespace sbf {
namespace {

constexpr uint64_t kProbeKeys = 10000;  // probe set for estimate equality

// --- SpectralBloomFilter: every backing x policy x hash kind ---------------

struct ExpandCase {
  CounterBacking backing;
  SbfPolicy policy;
  HashFamily::Kind hash_kind;
};

// gtest parameter names must be alphanumeric ("serial-scan" is not).
std::string SanitizedBackingName(CounterBacking backing) {
  std::string name = CounterBackingName(backing);
  name.erase(std::remove_if(name.begin(), name.end(),
                            [](unsigned char c) { return !std::isalnum(c); }),
             name.end());
  return name;
}

std::string CaseName(const ::testing::TestParamInfo<ExpandCase>& param_info) {
  std::string name = SanitizedBackingName(param_info.param.backing);
  name += param_info.param.policy == SbfPolicy::kMinimumSelection ? "_MS" : "_MI";
  name += param_info.param.hash_kind == HashFamily::Kind::kModuloMultiply
              ? "_MulShift"
              : "_DoubleMix";
  return name;
}

std::vector<ExpandCase> AllExpandCases() {
  std::vector<ExpandCase> cases;
  for (CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    for (SbfPolicy policy :
         {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
      for (HashFamily::Kind kind : {HashFamily::Kind::kModuloMultiply,
                                    HashFamily::Kind::kDoubleMix}) {
        cases.push_back({backing, policy, kind});
      }
    }
  }
  return cases;
}

class SbfExpandTest : public ::testing::TestWithParam<ExpandCase> {};

TEST_P(SbfExpandTest, ProbesSurviveExpansionExactly) {
  const ExpandCase param = GetParam();
  SbfOptions options;
  options.m = 512;
  options.k = 5;
  options.seed = 42;
  options.backing = param.backing;
  options.policy = param.policy;
  options.hash_kind = param.hash_kind;
  SpectralBloomFilter filter(options);

  Xoshiro256 rng(9);
  for (int i = 0; i < 1500; ++i) {
    filter.Insert(rng.UniformInt(4000), rng.UniformInt(4) + 1);
  }
  std::vector<uint64_t> pre(kProbeKeys);
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    pre[key] = filter.Estimate(key);
  }
  const uint64_t items = filter.total_items();

  ASSERT_TRUE(filter.ExpandTo(4 * 512).ok());
  EXPECT_EQ(filter.m(), 2048u);
  EXPECT_EQ(filter.total_items(), items);
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    ASSERT_EQ(filter.Estimate(key), pre[key]) << "key " << key;
  }
}

TEST_P(SbfExpandTest, InsertsAfterExpansionStayOneSided) {
  const ExpandCase param = GetParam();
  SbfOptions options;
  options.m = 256;
  options.k = 4;
  options.seed = 7;
  options.backing = param.backing;
  options.policy = param.policy;
  options.hash_kind = param.hash_kind;
  SpectralBloomFilter filter(options);

  std::map<uint64_t, uint64_t> truth;
  Xoshiro256 rng(11);
  for (int i = 0; i < 600; ++i) {
    const uint64_t key = rng.UniformInt(900);
    filter.Insert(key, 2);
    truth[key] += 2;
  }
  ASSERT_TRUE(filter.ExpandTo(512).ok());
  for (int i = 0; i < 600; ++i) {
    const uint64_t key = rng.UniformInt(900);
    filter.Insert(key);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(filter.Estimate(key), count) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, SbfExpandTest,
                         ::testing::ValuesIn(AllExpandCases()), CaseName);

TEST(SbfExpandArgsTest, RejectsNonMultiples) {
  SpectralBloomFilter filter(100, 4);
  EXPECT_TRUE(filter.ExpandTo(100).ok());  // no-op
  EXPECT_EQ(filter.ExpandTo(150).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(filter.ExpandTo(50).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(filter.ExpandTo(0).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(filter.m(), 100u);
}

TEST(SbfExpandArgsTest, ExpansionPreservesFillAndSurvivesSerialization) {
  // The fold replicates every old counter across its whole preimage set,
  // so occupancy — and with it the estimated FPR of already-inserted
  // data — carries over exactly. Expansion buys headroom for *future*
  // inserts (which spread over c x more counters); it cannot retroactively
  // sharpen estimates whose collisions already happened.
  SpectralBloomFilter filter(128, 5);
  for (uint64_t key = 0; key < 200; ++key) filter.Insert(key);
  const double fill_before = filter.Health().fill_ratio;
  ASSERT_TRUE(filter.ExpandTo(1024).ok());
  EXPECT_DOUBLE_EQ(filter.Health().fill_ratio, fill_before);

  const std::vector<uint8_t> bytes = filter.Serialize();
  auto loaded = SpectralBloomFilter::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok());
  for (uint64_t key = 0; key < 400; ++key) {
    EXPECT_EQ(loaded.value().Estimate(key), filter.Estimate(key));
  }
}

TEST(SbfExpandArgsTest, ExpandIfDegradedDoublesOverloadedFilter) {
  SbfOptions options;
  options.m = 64;
  options.k = 3;
  SpectralBloomFilter filter(options);
  for (uint64_t key = 0; key < 300; ++key) filter.Insert(key);
  ASSERT_EQ(filter.Health().state, HealthState::kDegraded);

  auto expanded = filter.ExpandIfDegraded();
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded.value());
  EXPECT_EQ(filter.m(), 128u);

  // A lightly loaded filter reports healthy and is left alone.
  SpectralBloomFilter light(4096, 5);
  light.Insert(1);
  auto untouched = light.ExpandIfDegraded();
  ASSERT_TRUE(untouched.ok());
  EXPECT_FALSE(untouched.value());
  EXPECT_EQ(light.m(), 4096u);
}

// --- Bloom filter ----------------------------------------------------------

TEST(BloomExpandTest, MembershipSurvivesExpansionBothHashKinds) {
  for (HashFamily::Kind kind : {HashFamily::Kind::kModuloMultiply,
                                HashFamily::Kind::kDoubleMix}) {
    BloomFilter filter(512, 5, 3, kind);
    for (uint64_t key = 0; key < 120; ++key) filter.Add(key * 977);
    std::vector<bool> pre(kProbeKeys);
    for (uint64_t key = 0; key < kProbeKeys; ++key) {
      pre[key] = filter.Contains(key);
    }
    ASSERT_TRUE(filter.ExpandTo(2048).ok());
    EXPECT_EQ(filter.m(), 2048u);
    for (uint64_t key = 0; key < kProbeKeys; ++key) {
      ASSERT_EQ(filter.Contains(key), pre[key]) << "key " << key;
    }
    EXPECT_EQ(filter.ExpandTo(1000).code(), Status::Code::kInvalidArgument);
  }
}

// --- Blocked SBF -----------------------------------------------------------

TEST(BlockedExpandTest, ProbesSurviveExpansionExactly) {
  SbfOptions options;
  options.m = 512;
  options.block_size = 64;
  options.k = 4;
  options.seed = 21;
  SpectralBloomFilter filter(options);

  Xoshiro256 rng(5);
  for (int i = 0; i < 900; ++i) {
    filter.Insert(rng.UniformInt(3000), rng.UniformInt(3) + 1);
  }
  std::vector<uint64_t> pre(kProbeKeys);
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    pre[key] = filter.Estimate(key);
  }
  ASSERT_TRUE(filter.ExpandTo(2048).ok());
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    ASSERT_EQ(filter.Estimate(key), pre[key]) << "key " << key;
  }
  EXPECT_EQ(filter.ExpandTo(2048 + 64).code(),
            Status::Code::kInvalidArgument);
}

// --- Recurring Minimum -----------------------------------------------------

TEST(RmExpandTest, ProbesSurviveExpansionWithAndWithoutMarker) {
  for (bool marker : {false, true}) {
    RecurringMinimumOptions options;
    options.primary_m = 400;
    options.secondary_m = 100;
    options.k = 4;
    options.seed = 3;
    options.use_marker_filter = marker;
    RecurringMinimumSbf filter(options);

    Xoshiro256 rng(13);
    std::map<uint64_t, uint64_t> live;
    for (int i = 0; i < 1200; ++i) {
      const uint64_t key = rng.UniformInt(800);
      if (live[key] > 0 && rng.UniformInt(5) == 0) {
        filter.Remove(key);
        --live[key];
      } else {
        filter.Insert(key);
        ++live[key];
      }
    }
    std::vector<uint64_t> pre(kProbeKeys);
    for (uint64_t key = 0; key < kProbeKeys; ++key) {
      pre[key] = filter.Estimate(key);
    }

    ASSERT_TRUE(filter.ExpandTo(1200, 300).ok());
    for (uint64_t key = 0; key < kProbeKeys; ++key) {
      ASSERT_EQ(filter.Estimate(key), pre[key])
          << "key " << key << " marker=" << marker;
    }

    // The expanded filter must serialize into a self-consistent frame (the
    // marker grows with the primary, which Deserialize pins).
    auto loaded = RecurringMinimumSbf::Deserialize(filter.Serialize());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (uint64_t key = 0; key < 800; ++key) {
      EXPECT_EQ(loaded.value().Estimate(key), filter.Estimate(key));
    }

    EXPECT_EQ(filter.ExpandTo(1300, 300).code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(filter.ExpandTo(2400, 50).code(),
              Status::Code::kInvalidArgument);
  }
}

// --- ConcurrentSbf: quiescent expansion ------------------------------------

ConcurrentSbfOptions ConcurrentOptions(CounterBacking backing,
                                       SbfPolicy policy) {
  ConcurrentSbfOptions options;
  options.m = 4096;
  options.k = 4;
  options.num_shards = 8;
  options.seed = 99;
  options.backing = backing;
  options.policy = policy;
  return options;
}

class ConcurrentExpandTest
    : public ::testing::TestWithParam<std::pair<CounterBacking, SbfPolicy>> {};

TEST_P(ConcurrentExpandTest, QuiescentExpansionPreservesProbes) {
  const auto [backing, policy] = GetParam();
  ConcurrentSbf filter(ConcurrentOptions(backing, policy));
  Xoshiro256 rng(17);
  std::vector<uint64_t> keys(3000);
  for (auto& key : keys) key = rng.UniformInt(1u << 20);
  filter.InsertBatch(keys.data(), keys.size(), 2);

  std::vector<uint64_t> pre(kProbeKeys);
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    pre[key] = filter.Estimate(key);
  }
  const uint64_t items = filter.TotalItems();

  ASSERT_TRUE(filter.ExpandTo(4 * 4096).ok());
  EXPECT_EQ(filter.options().m, 4u * 4096u);
  EXPECT_EQ(filter.shard_m(), 4u * 4096u / 8u);
  EXPECT_EQ(filter.TotalItems(), items);
  for (uint64_t key = 0; key < kProbeKeys; ++key) {
    ASSERT_EQ(filter.Estimate(key), pre[key]) << "key " << key;
  }

  // The expanded filter round-trips the wire (Deserialize re-derives shard
  // sizes from the new m).
  auto loaded = ConcurrentSbf::Deserialize(filter.Serialize());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (uint64_t key = 0; key < 2000; ++key) {
    EXPECT_EQ(loaded.value().Estimate(key), filter.Estimate(key));
  }
}

// The reference is built without ConcurrentSbf's expansion code: one
// SpectralBloomFilter per shard on ShardOptions(options, s), fed the keys
// ShardOf routes there and grown with SpectralBloomFilter::ExpandTo.
// Double-mix folds by residue rather than by runs, so a wrong fold unit on
// the sharded path shows up there.
TEST_P(ConcurrentExpandTest, MatchesSeriallyExpandedReference) {
  const auto [backing, policy] = GetParam();
  for (const auto hash_kind :
       {HashFamily::Kind::kModuloMultiply, HashFamily::Kind::kDoubleMix}) {
    ConcurrentSbfOptions options = ConcurrentOptions(backing, policy);
    options.hash_kind = hash_kind;
    ConcurrentSbf filter(options);
    std::vector<SpectralBloomFilter> reference;
    for (uint32_t s = 0; s < options.num_shards; ++s) {
      reference.emplace_back(ShardOptions(options, s));
    }
    const auto insert_reference = [&](const std::vector<uint64_t>& keys) {
      for (uint64_t key : keys) reference[filter.ShardOf(key)].Insert(key);
    };

    Xoshiro256 rng(23);
    std::vector<uint64_t> before(2000), after(2000);
    for (auto& key : before) key = rng.UniformInt(kProbeKeys);
    for (auto& key : after) key = rng.UniformInt(kProbeKeys);

    filter.InsertBatch(before.data(), before.size());
    insert_reference(before);
    const uint64_t shard_m = filter.shard_m();
    ASSERT_TRUE(filter.ExpandTo(2 * options.m).ok());
    for (auto& shard : reference) {
      ASSERT_TRUE(shard.ExpandTo(2 * shard_m).ok());
    }
    filter.InsertBatch(after.data(), after.size());
    insert_reference(after);

    for (uint64_t key = 0; key < kProbeKeys; ++key) {
      ASSERT_EQ(filter.Estimate(key),
                reference[filter.ShardOf(key)].Estimate(key))
          << "key " << key << " double-mix "
          << (hash_kind == HashFamily::Kind::kDoubleMix);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, ConcurrentExpandTest,
    ::testing::Values(
        std::pair{CounterBacking::kFixed64, SbfPolicy::kMinimumSelection},
        std::pair{CounterBacking::kCompact, SbfPolicy::kMinimumSelection},
        std::pair{CounterBacking::kCompact, SbfPolicy::kMinimalIncrease},
        std::pair{CounterBacking::kSerialScan, SbfPolicy::kMinimumSelection}),
    [](const auto& param_info) {
      std::string name = SanitizedBackingName(param_info.param.first);
      name += param_info.param.second == SbfPolicy::kMinimumSelection ? "_MS"
                                                                : "_MI";
      return name;
    });

// Double-mix positions fold by residue mod the old shard size, not by
// consecutive runs (ExpansionUnit), on the lock-free and the locked path.
TEST(ConcurrentExpandArgsTest, DoubleMixExpansionPreservesProbes) {
  for (const auto& [backing, policy] :
       {std::pair{CounterBacking::kFixed64, SbfPolicy::kMinimumSelection},
        std::pair{CounterBacking::kCompact, SbfPolicy::kMinimumSelection},
        std::pair{CounterBacking::kCompact, SbfPolicy::kMinimalIncrease}}) {
    ConcurrentSbfOptions options = ConcurrentOptions(backing, policy);
    options.hash_kind = HashFamily::Kind::kDoubleMix;
    ConcurrentSbf filter(options);
    Xoshiro256 rng(29);
    std::vector<uint64_t> keys(3000);
    for (auto& key : keys) key = rng.UniformInt(kProbeKeys);
    filter.InsertBatch(keys.data(), keys.size(), 2);
    std::vector<uint64_t> pre(kProbeKeys);
    for (uint64_t key = 0; key < kProbeKeys; ++key) {
      pre[key] = filter.Estimate(key);
    }

    ASSERT_TRUE(filter.ExpandTo(4 * options.m).ok());
    for (uint64_t key = 0; key < kProbeKeys; ++key) {
      ASSERT_EQ(filter.Estimate(key), pre[key])
          << CounterBackingName(backing) << " key " << key;
    }
  }
}

// The estimate inside an expansion's dual-write window, without threads:
// WindowEstimate over a shard's live filter and its pending target must
// equal the serial reference, live.ExpandTo() plus the inserts that landed
// in pending. Minimum Selection adds commute, so the two agree exactly on
// the lock-free arm (fixed64, read through the atomic view) and the
// locked one (compact), under both hash kinds.
TEST(ConcurrentExpandArgsTest, WindowEstimateMatchesSerialExpansion) {
  for (const CounterBacking backing :
       {CounterBacking::kFixed64, CounterBacking::kCompact}) {
    for (const auto kind : {HashFamily::Kind::kModuloMultiply,
                            HashFamily::Kind::kDoubleMix}) {
      ConcurrentSbfOptions options =
          ConcurrentOptions(backing, SbfPolicy::kMinimumSelection);
      options.hash_kind = kind;
      const SbfOptions shard = ShardOptions(options, 1);
      SbfOptions expanded = shard;
      expanded.m = 3 * shard.m;
      SpectralBloomFilter live(shard);
      SpectralBloomFilter pending(expanded);
      Xoshiro256 rng(41);
      std::vector<uint64_t> queries(kProbeKeys);
      for (auto& key : queries) key = rng.UniformInt(4 * kProbeKeys);
      for (size_t i = 0; i < 400; ++i) live.Insert(queries[i], 1 + i % 3);
      SpectralBloomFilter serial = live;
      ASSERT_TRUE(serial.ExpandTo(expanded.m).ok());
      // In-window inserts: some keys seen before the window, some new.
      for (size_t i = 200; i < 600; ++i) {
        pending.Insert(queries[i], 1 + i % 2);
        serial.Insert(queries[i], 1 + i % 2);
      }
      std::vector<uint64_t> got(queries.size());
      WindowEstimate(live, pending, queries.data(), queries.size(),
                     got.data());
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(got[i], serial.Estimate(queries[i]))
            << CounterBackingName(backing) << " query " << i;
      }
    }
  }
}

TEST(ConcurrentExpandArgsTest, RejectsShardMisalignedSizes) {
  ConcurrentSbfOptions options;
  options.m = 100;  // CeilDiv(100, 8) = 13, but CeilDiv(200, 8) = 25 != 26
  options.num_shards = 8;
  ConcurrentSbf filter(options);
  EXPECT_EQ(filter.ExpandTo(200).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(filter.ExpandTo(150).code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(filter.ExpandTo(100).ok());
}

// --- ConcurrentSbf: expansion racing writers and readers -------------------

// How the racing writers reach the shards: each mode drives a different
// writer path through the expansion window.
enum class RaceWrites {
  kPointInserts,  // Insert (delta-buffered under MS; merges cross it)
  kBatchInserts,  // InsertBatch with duplicate keys inside each batch
  kRemoves,       // Insert then Remove of part of it
};

// 8 writers + 8 readers race ExpandTo. Readers hold a preloaded ground
// truth and assert the one-sided guarantee never breaks — not before, not
// during, not after the dual-write window. Writers own disjoint key slices
// and keep cycling through them until ExpandTo returns (so their writes
// straddle every shard's window); each visit to key i nets 1 + i % 3
// occurrences, so the post-join ground truth is exact.
void RaceExpansion(CounterBacking backing, SbfPolicy policy,
                   RaceWrites mode = RaceWrites::kPointInserts,
                   bool delta = true) {
  constexpr int kWriters = 8;
  constexpr int kReaders = 8;
  constexpr uint64_t kKeysPerWriter = 400;
  constexpr uint64_t kBatchKeys = 8;  // divides kKeysPerWriter
  constexpr uint64_t kPreloaded = 512;

  ConcurrentSbfOptions options = ConcurrentOptions(backing, policy);
  // Large enough that each shard's fold takes long enough for writers to
  // land inside the window.
  options.m = 1 << 16;
  options.delta.enabled = delta;
  ConcurrentSbf filter(options);

  // Preload: keys [0, kPreloaded) with count 3, fully quiesced.
  for (uint64_t key = 0; key < kPreloaded; ++key) filter.Insert(key, 3);

  std::atomic<bool> stop{false};
  std::atomic<bool> expanded{false};
  std::vector<uint64_t> visits(kWriters, 0);
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&filter, &stop, r] {
      Xoshiro256 rng(1000 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t key = rng.UniformInt(kPreloaded);
        const uint64_t estimate = filter.Estimate(key);
        // Preloaded counts never shrink: any estimate below the preload is
        // a torn read through the expansion window.
        ASSERT_GE(estimate, 3u) << "key " << key;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&filter, &expanded, &visits, mode, w] {
      // Writer w owns keys [base, base + kKeysPerWriter).
      const uint64_t base = kPreloaded + w * kKeysPerWriter;
      std::vector<uint64_t> batch;
      uint64_t v = 0;
      while (v < kKeysPerWriter || !expanded.load(std::memory_order_relaxed)) {
        const uint64_t i = v % kKeysPerWriter;
        switch (mode) {
          case RaceWrites::kPointInserts:
            filter.Insert(base + i, 1 + (i % 3));
            ++v;
            break;
          case RaceWrites::kBatchInserts:
            batch.clear();
            for (uint64_t j = i; j < i + kBatchKeys; ++j) {
              batch.insert(batch.end(), 1 + (j % 3), base + j);
            }
            filter.InsertBatch(batch);
            v += kBatchKeys;
            break;
          case RaceWrites::kRemoves:
            filter.Insert(base + i, 3 + (i % 3));
            filter.Remove(base + i, 2);
            ++v;
            break;
        }
      }
      visits[w] = v;
    });
  }

  ASSERT_TRUE(filter.ExpandTo(4 * options.m).ok());
  expanded.store(true, std::memory_order_relaxed);

  for (int w = 0; w < kWriters; ++w) threads[kReaders + w].join();
  stop.store(true, std::memory_order_relaxed);
  for (int r = 0; r < kReaders; ++r) threads[r].join();

  // Post-join: estimates bound the exact per-key truth from above.
  uint64_t expected_items = kPreloaded * 3;
  for (uint64_t key = 0; key < kPreloaded; ++key) {
    EXPECT_GE(filter.Estimate(key), 3u) << "key " << key;
  }
  for (int w = 0; w < kWriters; ++w) {
    const uint64_t base = kPreloaded + w * kKeysPerWriter;
    for (uint64_t i = 0; i < kKeysPerWriter; ++i) {
      const uint64_t times = visits[w] / kKeysPerWriter +
                             (i < visits[w] % kKeysPerWriter ? 1 : 0);
      EXPECT_GE(filter.Estimate(base + i), times * (1 + (i % 3)))
          << "key " << base + i;
      expected_items += times * (1 + (i % 3));
    }
  }
  EXPECT_EQ(filter.TotalItems(), expected_items);
  EXPECT_EQ(filter.options().m, 4 * options.m);
}

TEST(ConcurrentExpandRaceTest, LockFreePathStaysOneSided) {
  RaceExpansion(CounterBacking::kFixed64, SbfPolicy::kMinimumSelection);
}

TEST(ConcurrentExpandRaceTest, LockedPathStaysOneSided) {
  RaceExpansion(CounterBacking::kCompact, SbfPolicy::kMinimumSelection);
}

TEST(ConcurrentExpandRaceTest, LockedMinimalIncreasePathStaysOneSided) {
  RaceExpansion(CounterBacking::kCompact, SbfPolicy::kMinimalIncrease);
}

// The direct (unbuffered) lock-free writers enter the window handshake
// themselves, once per op or once per shard slice.
TEST(ConcurrentExpandRaceTest, LockFreeDirectPathStaysOneSided) {
  RaceExpansion(CounterBacking::kFixed64, SbfPolicy::kMinimumSelection,
                RaceWrites::kPointInserts, /*delta=*/false);
}

TEST(ConcurrentExpandRaceTest, LockFreeDirectBatchPathStaysOneSided) {
  RaceExpansion(CounterBacking::kFixed64, SbfPolicy::kMinimumSelection,
                RaceWrites::kBatchInserts, /*delta=*/false);
}

TEST(ConcurrentExpandRaceTest, LockFreeDirectRemovesStayOneSided) {
  RaceExpansion(CounterBacking::kFixed64, SbfPolicy::kMinimumSelection,
                RaceWrites::kRemoves, /*delta=*/false);
}

// Buffered batches and removes cross the window through epoch merges.
TEST(ConcurrentExpandRaceTest, LockFreeBatchPathStaysOneSided) {
  RaceExpansion(CounterBacking::kFixed64, SbfPolicy::kMinimumSelection,
                RaceWrites::kBatchInserts);
}

TEST(ConcurrentExpandRaceTest, LockFreeBufferedRemovesStayOneSided) {
  RaceExpansion(CounterBacking::kFixed64, SbfPolicy::kMinimumSelection,
                RaceWrites::kRemoves);
}

TEST(ConcurrentExpandRaceTest, LockedBatchPathStaysOneSided) {
  RaceExpansion(CounterBacking::kCompact, SbfPolicy::kMinimumSelection,
                RaceWrites::kBatchInserts);
}

TEST(ConcurrentExpandRaceTest, LockedDirectPathStaysOneSided) {
  RaceExpansion(CounterBacking::kCompact, SbfPolicy::kMinimumSelection,
                RaceWrites::kPointInserts, /*delta=*/false);
}

}  // namespace
}  // namespace sbf
