// Differential tests for the batched query/update kernels: for every
// frontend and backing, InsertBatch/EstimateBatch must be *exactly*
// equivalent to a loop of the scalar ops — same estimates, same final
// state — over random, duplicate-heavy and clustered/shard-skewed key
// sets. Duplicate-heavy batches are the interesting case: the pipeline
// hashes W keys ahead, so a window can hold several copies of one key and
// the probes must still observe each other's writes in input order.
//
// SpectralBloomFilter's point ops and batches run one per-key body, so
// "batch equals scalar" alone compares that body with itself. The
// ReferenceSbf below keeps an independent copy of the scalar ops as they
// stood with one virtual CounterVector call per probe, and
// SpectralBloomFilterMatchesVirtualReference pins every SBF entry point
// (point ops, InsertBatch, EstimateBatch, Apply) to it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_sbf.h"
#include "core/frequency_filter.h"
#include "core/recurring_minimum.h"
#include "core/spectral_bloom_filter.h"
#include "sai/counter_vector.h"
#include "util/random.h"

namespace sbf {
namespace {

constexpr uint64_t kM = 1 << 12;
constexpr uint32_t kK = 5;
constexpr size_t kStream = 2048;

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& key : keys) key = rng.Next();
  return keys;
}

// ~16 distinct keys repeated throughout the stream: several copies of one
// key can share a pipeline window, stressing read-after-write ordering.
std::vector<uint64_t> DuplicateHeavyKeys(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::vector<uint64_t> distinct = RandomKeys(16, seed ^ 0xD0D0);
  std::vector<uint64_t> keys(n);
  for (auto& key : keys) key = distinct[rng.UniformInt(distinct.size())];
  return keys;
}

// Low-entropy keys from a tiny range: hammers a handful of blocks (blocked
// layout) and a few shards (sharded frontend).
std::vector<uint64_t> ClusteredKeys(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& key : keys) key = 1'000'000 + rng.UniformInt(64);
  return keys;
}

using Factory = std::function<std::unique_ptr<FrequencyFilter>()>;

// Inserts `keys` scalar-wise into one filter and batch-wise (chunk sizes
// straddling the W=8 pipeline window) into a second, then checks that
// batched estimates match the scalar filter and the batched filter's own
// scalar reads — i.e. both the query kernel and the final state agree.
void ExpectBatchEqualsScalar(const Factory& make,
                             const std::vector<uint64_t>& keys,
                             uint64_t count = 1) {
  auto scalar = make();
  auto batched = make();
  for (uint64_t key : keys) scalar->Insert(key, count);
  constexpr size_t kChunks[] = {3, 8, 37, 1024};  // < W, == W, > W, large
  size_t at = 0;
  int c = 0;
  while (at < keys.size()) {
    const size_t n = std::min(kChunks[c++ % 4], keys.size() - at);
    batched->InsertBatch(keys.data() + at, n, count);
    at += n;
  }

  std::vector<uint64_t> queries = keys;
  const std::vector<uint64_t> probes = RandomKeys(256, 0xABBA);
  queries.insert(queries.end(), probes.begin(), probes.end());
  std::vector<uint64_t> got(queries.size());
  batched->EstimateBatch(queries.data(), queries.size(), got.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(scalar->Estimate(queries[i]), got[i])
        << "state diverged at key " << queries[i];
    ASSERT_EQ(batched->Estimate(queries[i]), got[i])
        << "batch estimate != scalar estimate for key " << queries[i];
  }
}

void RunAllKeySets(const std::string& label, const Factory& make) {
  {
    SCOPED_TRACE(label + " / random");
    ExpectBatchEqualsScalar(make, RandomKeys(kStream, 1));
  }
  {
    SCOPED_TRACE(label + " / duplicate-heavy");
    ExpectBatchEqualsScalar(make, DuplicateHeavyKeys(kStream, 2));
  }
  {
    SCOPED_TRACE(label + " / clustered");
    ExpectBatchEqualsScalar(make, ClusteredKeys(kStream, 3));
  }
  {
    SCOPED_TRACE(label + " / random count=3");
    ExpectBatchEqualsScalar(make, RandomKeys(kStream / 4, 4), /*count=*/3);
  }
}

Factory SbfFactory(SbfPolicy policy, CounterBacking backing) {
  return [policy, backing] {
    SbfOptions options;
    options.m = kM;
    options.k = kK;
    options.policy = policy;
    options.backing = backing;
    options.seed = 99;
    return std::make_unique<SpectralBloomFilter>(options);
  };
}

TEST(BatchPipelineTest, SpectralBloomFilterAllBackingsAndPolicies) {
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    for (const auto policy :
         {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
      const std::string label =
          std::string("SBF/") + CounterBackingName(backing) +
          (policy == SbfPolicy::kMinimumSelection ? "/MS" : "/MI");
      RunAllKeySets(label, SbfFactory(policy, backing));
    }
  }
}

// --- the virtual-interface reference ---------------------------------------

// The scalar SBF ops as a loop of virtual CounterVector calls per probe,
// over its own counter vector and item tally. The only thing it borrows
// from the filter under test is Positions(), the key -> counters map.
class ReferenceSbf {
 public:
  explicit ReferenceSbf(const SpectralBloomFilter& shape)
      : shape_(shape),
        counters_(MakeCounterVector(shape.options().backing, shape.m())) {}

  void Insert(uint64_t key, uint64_t count) {
    uint64_t positions[HashFamily::kMaxK];
    shape_.Positions(key, positions);
    const uint32_t k = shape_.k();
    if (shape_.options().policy == SbfPolicy::kMinimumSelection) {
      for (uint32_t i = 0; i < k; ++i) {
        counters_->Increment(positions[i], count);
      }
    } else {
      // Minimal Increase: lift every counter below m_x + count up to it,
      // the target saturating (and tallying) at 2^64 - 1.
      uint64_t values[HashFamily::kMaxK];
      uint64_t min_value = ~uint64_t{0};
      for (uint32_t i = 0; i < k; ++i) {
        values[i] = counters_->Get(positions[i]);
        min_value = std::min(min_value, values[i]);
      }
      uint64_t target = min_value + count;
      if (count > ~uint64_t{0} - min_value) {
        target = ~uint64_t{0};
        counters_->MergeSaturationStats({1, 0});
      }
      for (uint32_t i = 0; i < k; ++i) {
        if (values[i] < target) counters_->Set(positions[i], target);
      }
    }
    total_items_ += count;
  }

  // Both policies decrement every probe, clamping (and tallying) at zero.
  void Remove(uint64_t key, uint64_t count) {
    uint64_t positions[HashFamily::kMaxK];
    shape_.Positions(key, positions);
    for (uint32_t i = 0; i < shape_.k(); ++i) {
      counters_->Decrement(positions[i], count);
    }
    total_items_ -= std::min(total_items_, count);
  }

  uint64_t Estimate(uint64_t key) const {
    uint64_t positions[HashFamily::kMaxK];
    shape_.Positions(key, positions);
    uint64_t min_value = counters_->Get(positions[0]);
    for (uint32_t i = 1; i < shape_.k(); ++i) {
      min_value = std::min(min_value, counters_->Get(positions[i]));
      if (min_value == 0) break;
    }
    return min_value;
  }

  void Write(const SbfWrite& write) {
    for (size_t i = 0; i < write.n; ++i) {
      const uint64_t c =
          write.counts != nullptr ? write.counts[i] : write.count;
      if (write.remove) {
        Remove(write.keys[i], c);
      } else {
        Insert(write.keys[i], c);
      }
    }
  }

  const CounterVector& counters() const { return *counters_; }
  uint64_t total_items() const { return total_items_; }

 private:
  const SpectralBloomFilter& shape_;
  std::unique_ptr<CounterVector> counters_;
  uint64_t total_items_ = 0;
};

// Every counter, both clamp tallies and the item tally of `filter` equal
// the reference's.
void ExpectSameState(const SpectralBloomFilter& filter,
                     const ReferenceSbf& ref, const std::string& label) {
  for (uint64_t i = 0; i < filter.m(); ++i) {
    ASSERT_EQ(filter.counters().Get(i), ref.counters().Get(i))
        << label << ": counter " << i;
  }
  EXPECT_EQ(filter.saturation().saturation_clamps,
            ref.counters().saturation().saturation_clamps)
      << label;
  EXPECT_EQ(filter.saturation().underflow_clamps,
            ref.counters().saturation().underflow_clamps)
      << label;
  EXPECT_EQ(filter.total_items(), ref.total_items()) << label;
}

// A random op script over a small key pool, run three ways: on the
// reference, on `point` as point Insert/Remove, and on `batch` through
// InsertBatch (uniform inserts) and Apply (everything else) in slices of
// 1 to 40 keys. Counts are mostly small, with values near the 4-bit,
// 32-bit and 64-bit maxima mixed in so that every backing clamps, and
// removes outrun the inserts of some keys so that counters underflow.
void RunReferenceScript(const SbfOptions& options, uint64_t seed,
                        const std::string& label) {
  SpectralBloomFilter point(options);
  SpectralBloomFilter batch(options);
  ReferenceSbf ref(point);
  constexpr uint64_t kMax = ~uint64_t{0};
  constexpr std::array<uint64_t, 10> kCounts = {
      1, 1, 2, 3, 7, 14, uint64_t{1} << 31, (uint64_t{1} << 32) - 3,
      uint64_t{1} << 62, kMax - 5};
  Xoshiro256 rng(seed);
  const std::vector<uint64_t> pool = RandomKeys(40, seed ^ 0x9001);
  const auto pick_count = [&] {
    // Large counts one op in eight; removes of 1..3 mostly.
    return rng.UniformInt(8) == 0 ? kCounts[rng.UniformInt(kCounts.size())]
                                  : 1 + rng.UniformInt(3);
  };
  for (int step = 0; step < 60; ++step) {
    const size_t n = 1 + rng.UniformInt(40);
    std::vector<uint64_t> keys(n);
    std::vector<uint64_t> counts(n);
    for (size_t i = 0; i < n; ++i) {
      // A skewed pick: the first keys repeat within most slices.
      keys[i] = pool[rng.UniformInt(1 + rng.UniformInt(pool.size()))];
      counts[i] = pick_count();
    }
    const bool remove = rng.UniformInt(3) == 0;
    const bool per_key = rng.UniformInt(2) == 0;
    const SbfWrite write{keys.data(), n, pick_count(), remove,
                         per_key ? counts.data() : nullptr};
    ref.Write(write);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t c = per_key ? counts[i] : write.count;
      if (remove) {
        point.Remove(keys[i], c);
      } else {
        point.Insert(keys[i], c);
      }
    }
    if (!remove && !per_key) {
      batch.InsertBatch(keys.data(), n, write.count);
    } else {
      batch.Apply(write);
    }
    const std::string at = label + " step " + std::to_string(step);
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(point, ref, at + " (point)"));
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(batch, ref, at + " (batch)"));
  }

  std::vector<uint64_t> queries = pool;
  const std::vector<uint64_t> unseen = RandomKeys(64, seed ^ 0xE57);
  queries.insert(queries.end(), unseen.begin(), unseen.end());
  std::vector<uint64_t> got(queries.size());
  batch.EstimateBatch(queries.data(), queries.size(), got.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t want = ref.Estimate(queries[i]);
    ASSERT_EQ(point.Estimate(queries[i]), want) << label << " key " << i;
    ASSERT_EQ(got[i], want) << label << " batch key " << i;
  }
}

// Every backing x policy x layout x hash kind, at a roomy m and at a
// small one where a key's probes often share a counter (and, blocked,
// nearly always do). The blocked 8- and 16-counter layouts include the
// SIMD block-kernel geometries (fixed64/b8 and fixed32/b16 under
// multiply-shift hashing) and their per-key fallback.
TEST(BatchPipelineTest, SpectralBloomFilterMatchesVirtualReference) {
  uint64_t seed = 1;
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan,
        CounterBacking::kSticky4}) {
    for (const auto policy :
         {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
      for (const uint64_t block_size : {0u, 8u, 16u}) {
        for (const auto kind : {HashFamily::Kind::kModuloMultiply,
                                HashFamily::Kind::kDoubleMix}) {
          for (const uint64_t m : {uint64_t{64}, uint64_t{2048}}) {
            SbfOptions options;
            options.m = m;
            options.k = kK;
            options.policy = policy;
            options.backing = backing;
            options.block_size = block_size;
            options.hash_kind = kind;
            options.seed = seed;
            if (!ValidateSbfOptions(options).ok()) continue;  // sticky4
            const std::string label =
                std::string(CounterBackingName(backing)) +
                (policy == SbfPolicy::kMinimumSelection ? "/MS" : "/MI") +
                "/b" + std::to_string(block_size) +
                (kind == HashFamily::Kind::kModuloMultiply ? "/mm" : "/dm") +
                "/m" + std::to_string(m);
            ASSERT_NO_FATAL_FAILURE(RunReferenceScript(options, seed++, label));
          }
        }
      }
    }
  }
}

// Apply with per-key counts (a drained delta-buffer epoch, the concurrent
// frontend's shard-flush path; the test keeps the name of the entry point
// Apply replaced) must leave exactly the state a loop of scalar
// Insert(key, count) leaves — compared
// as serialized bytes — on every backing and policy. Sizes cover a sparse
// epoch (n * k below the serial-scan group count: stable-sorted probes), a
// dense one (n >= m/k + 1: counting-sorted by group) and one far past it;
// keys repeat within every epoch, and the epoch lands on a preloaded
// filter so increments hit nonzero counters.
TEST(BatchPipelineTest, ApplyAddBatchMatchesScalarInsertLoop) {
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    for (const auto policy :
         {SbfPolicy::kMinimumSelection, SbfPolicy::kMinimalIncrease}) {
      for (const size_t n : {size_t{8}, size_t{kM / kK + 1}, size_t{2 * kM}}) {
        const std::string label =
            std::string(CounterBackingName(backing)) +
            (policy == SbfPolicy::kMinimumSelection ? "/MS" : "/MI") +
            "/n=" + std::to_string(n);
        auto scalar = SbfFactory(policy, backing)();
        auto batch = SbfFactory(policy, backing)();
        const std::vector<uint64_t> preload = RandomKeys(kM / 8, n);
        scalar->InsertBatch(preload);
        batch->InsertBatch(preload);

        // ~n/2 distinct keys, so most keys repeat within the epoch.
        Xoshiro256 rng(n ^ 0xADD);
        const std::vector<uint64_t> distinct = RandomKeys(n / 2 + 1, n + 1);
        std::vector<uint64_t> keys(n);
        std::vector<uint64_t> counts(n);
        for (size_t i = 0; i < n; ++i) {
          keys[i] = distinct[rng.UniformInt(distinct.size())];
          counts[i] = 1 + rng.UniformInt(4);
          scalar->Insert(keys[i], counts[i]);
        }
        static_cast<SpectralBloomFilter&>(*batch).Apply(
            {keys.data(), n, 0, false, counts.data()});
        EXPECT_EQ(batch->Serialize(), scalar->Serialize()) << label;
      }
    }
  }
}

TEST(BatchPipelineTest, BlockedSbfAllBackings) {
  for (const auto backing :
       {CounterBacking::kFixed64, CounterBacking::kFixed32,
        CounterBacking::kCompact, CounterBacking::kSerialScan}) {
    for (const uint64_t block_size : {8u, 64u}) {
      const auto make = [backing, block_size] {
        SbfOptions options;
        options.m = kM;
        options.k = kK;
        options.block_size = block_size;
        options.backing = backing;
        options.seed = 7;
        return std::make_unique<SpectralBloomFilter>(options);
      };
      RunAllKeySets(std::string("Blocked/") + CounterBackingName(backing) +
                        "/b" + std::to_string(block_size),
                    make);
    }
  }
}

TEST(BatchPipelineTest, CountingBloomFilterSaturates) {
  // Duplicate-heavy streams push 4-bit counters past 15: scalar and batch
  // must saturate (and stay sticky) identically.
  RunAllKeySets("CBF/4bit", [] {
    SbfOptions options;
    options.m = kM;
    options.k = kK;
    options.seed = 5;
    options.backing = CounterBacking::kSticky4;
    return std::make_unique<SpectralBloomFilter>(options);
  });
}

TEST(BatchPipelineTest, RecurringMinimumDefaultLoops) {
  // RM inherits the FrequencyFilter default batch loops; the differential
  // harness pins their contract too.
  RunAllKeySets("RM", [] {
    return std::make_unique<RecurringMinimumSbf>(
        RecurringMinimumSbf::WithTotalBudget(kM, kK, 17));
  });
}

Factory ConcurrentFactory(SbfPolicy policy, CounterBacking backing) {
  return [policy, backing] {
    ConcurrentSbfOptions options;
    options.m = kM;
    options.k = kK;
    options.policy = policy;
    options.backing = backing;
    options.num_shards = 8;
    options.seed = 23;
    return std::make_unique<ConcurrentSbf>(options);
  };
}

TEST(BatchPipelineTest, ConcurrentSbfLockFreeAndLocked) {
  // fixed64 + MS is the lock-free atomic pipeline; the others take the
  // per-shard locks around the SpectralBloomFilter kernels.
  RunAllKeySets("CSBF/fixed64/MS (lock-free)",
                ConcurrentFactory(SbfPolicy::kMinimumSelection,
                                  CounterBacking::kFixed64));
  RunAllKeySets("CSBF/compact/MS (locked)",
                ConcurrentFactory(SbfPolicy::kMinimumSelection,
                                  CounterBacking::kCompact));
  RunAllKeySets("CSBF/fixed64/MI (locked)",
                ConcurrentFactory(SbfPolicy::kMinimalIncrease,
                                  CounterBacking::kFixed64));
}

// The lock-free arm (fixed64 + MS) against per-shard virtual references:
// reference shard s is built on ShardOptions(options, s) and fed the keys
// ShardOf routes to it. Removes take back only inserted occurrences, so
// neither side clamps and the wrapping atomic counters must equal the
// reference exactly, through point ops, batches, removes and Flush, with
// delta buffering off and on (its small merge threshold forces epoch
// merges mid-script).
TEST(BatchPipelineTest, ConcurrentSbfLockFreeMatchesVirtualReference) {
  for (const bool delta : {false, true}) {
    ConcurrentSbfOptions options;
    options.m = 4 * 512;
    options.k = kK;
    options.backing = CounterBacking::kFixed64;
    options.num_shards = 4;
    options.seed = 61;
    options.delta.enabled = delta;
    options.delta.merge_keys = 16;
    ConcurrentSbf filter(options);
    ASSERT_TRUE(filter.IsLockFree());
    ASSERT_EQ(filter.IsDeltaBuffered(), delta);
    std::vector<SpectralBloomFilter> shapes;
    shapes.reserve(options.num_shards);
    std::vector<ReferenceSbf> refs;
    refs.reserve(options.num_shards);
    for (uint32_t s = 0; s < options.num_shards; ++s) {
      shapes.emplace_back(ShardOptions(options, s));
      refs.emplace_back(shapes.back());
    }
    const auto ref_of = [&](uint64_t key) -> ReferenceSbf& {
      return refs[filter.ShardOf(key)];
    };
    const auto expect_same = [&](const std::string& at) {
      filter.Flush();
      uint64_t total = 0;
      for (uint32_t s = 0; s < options.num_shards; ++s) {
        // The lock-free arm tallies items outside the shard filter; the
        // snapshot carries them.
        ExpectSameState(filter.SnapshotShard(s), refs[s], at);
        total += refs[s].total_items();
      }
      EXPECT_EQ(filter.TotalItems(), total) << at;
    };

    Xoshiro256 rng(delta ? 71 : 73);
    const std::vector<uint64_t> pool = RandomKeys(48, 0x5EED);
    std::map<uint64_t, uint64_t> inserted;
    for (int step = 0; step < 120; ++step) {
      const std::string at = std::string(delta ? "delta" : "direct") +
                             " step " + std::to_string(step);
      const uint64_t key = pool[rng.UniformInt(pool.size())];
      const uint64_t count = 1 + rng.UniformInt(3);
      switch (rng.UniformInt(4)) {
        case 0:
          filter.Insert(key, count);
          ref_of(key).Insert(key, count);
          inserted[key] += count;
          break;
        case 1: {
          std::vector<uint64_t> keys(1 + rng.UniformInt(40));
          for (auto& k : keys) k = pool[rng.UniformInt(pool.size())];
          filter.InsertBatch(keys.data(), keys.size(), count);
          for (uint64_t k : keys) {
            ref_of(k).Insert(k, count);
            inserted[k] += count;
          }
          break;
        }
        case 2:
          if (inserted[key] == 0) break;
          {
            const uint64_t take = 1 + rng.UniformInt(inserted[key]);
            filter.Remove(key, take);
            ref_of(key).Remove(key, take);
            inserted[key] -= take;
          }
          break;
        default:
          ASSERT_NO_FATAL_FAILURE(expect_same(at));
      }
      ASSERT_EQ(filter.Estimate(key), ref_of(key).Estimate(key)) << at;
    }
    ASSERT_NO_FATAL_FAILURE(expect_same("final"));
    std::vector<uint64_t> queries = pool;
    const std::vector<uint64_t> unseen = RandomKeys(64, 0xE57);
    queries.insert(queries.end(), unseen.begin(), unseen.end());
    std::vector<uint64_t> got(queries.size());
    filter.EstimateBatch(queries.data(), queries.size(), got.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i], ref_of(queries[i]).Estimate(queries[i])) << i;
    }
  }
}

TEST(BatchPipelineTest, ConcurrentSbfShardSkewedKeys) {
  // ~90% of keys land in shard 0: exercises the grouped scatter/gather
  // with wildly uneven per-shard slices (including empty shards).
  const auto make = ConcurrentFactory(SbfPolicy::kMinimumSelection,
                                      CounterBacking::kFixed64);
  auto probe = make();
  const auto& router = static_cast<const ConcurrentSbf&>(*probe);
  Xoshiro256 rng(31);
  std::vector<uint64_t> keys;
  keys.reserve(kStream);
  while (keys.size() < kStream) {
    const uint64_t key = rng.Next();
    if (router.ShardOf(key) == 0 || rng.UniformInt(10) == 0) {
      keys.push_back(key);
    }
  }
  ExpectBatchEqualsScalar(make, keys);
}

TEST(BatchPipelineTest, ConcurrentSbfAdversarialAllKeysOneShard) {
  // The adversarial extreme of the skew test: EVERY key routes to shard 0,
  // so 8 threads contend on one shard's delta maps, epoch merges and
  // counters while 7 shards stay empty. With a tiny buffer capacity the
  // epoch machinery fires constantly; the filter must degrade gracefully —
  // same bytes as the direct path, no lost occurrences, sane skew report.
  ConcurrentSbfOptions options;
  options.m = kM;
  options.k = kK;
  options.policy = SbfPolicy::kMinimumSelection;
  options.backing = CounterBacking::kFixed64;
  options.num_shards = 8;
  options.seed = 23;
  options.delta.capacity = 64;
  options.delta.merge_keys = 16;
  ConcurrentSbf buffered(options);

  Xoshiro256 rng(37);
  std::vector<uint64_t> keys;
  keys.reserve(kStream);
  while (keys.size() < kStream) {
    const uint64_t key = rng.Next();
    if (buffered.ShardOf(key) == 0) keys.push_back(key);
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      const size_t begin = keys.size() * w / kThreads;
      const size_t end = keys.size() * (w + 1) / kThreads;
      buffered.InsertBatch(keys.data() + begin, end - begin);
    });
  }
  for (auto& t : writers) t.join();
  buffered.Flush();

  auto no_delta = options;
  no_delta.delta.enabled = false;
  ConcurrentSbf direct(no_delta);
  direct.InsertBatch(keys);
  EXPECT_EQ(buffered.Serialize(), direct.Serialize());
  EXPECT_EQ(buffered.TotalItems(), keys.size());
  // The skew shows up where it should: the health report, not lost data.
  const FilterHealth health = buffered.Health();
  EXPECT_GT(health.shard_skew, 4.0);
  EXPECT_GT(buffered.metrics().Shard(0).delta_merges, 0u);
}

TEST(BatchPipelineTest, ConcurrentSbfSaturationClampUnderConcurrency) {
  // Counters parked near the backing's MaxValue() must clamp — never wrap —
  // when 8 threads keep incrementing through the delta path, and the clamp
  // events must be tallied. fixed32 clamps at 2^32 - 1.
  ConcurrentSbfOptions options;
  options.m = 1024;
  options.k = kK;
  options.policy = SbfPolicy::kMinimumSelection;
  options.backing = CounterBacking::kFixed32;
  options.num_shards = 4;
  options.seed = 29;
  ConcurrentSbf filter(options);
  const uint64_t max_value = filter.shard(0).counters().MaxValue();
  ASSERT_EQ(max_value, (uint64_t{1} << 32) - 1);

  // Park 16 keys a hair below saturation, then race 8 threads adding 64
  // occurrences each on top.
  std::vector<uint64_t> keys(16);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 0xABCD00 + i;
  for (uint64_t key : keys) filter.Insert(key, max_value - 32);
  constexpr int kThreads = 8;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&] {
      for (uint64_t key : keys) filter.Insert(key, 64);
    });
  }
  for (auto& t : writers) t.join();
  filter.Flush();

  for (uint64_t key : keys) {
    // Clamped at the max — a wrapped counter would read near zero and
    // break the one-sided guarantee.
    ASSERT_EQ(filter.Estimate(key), max_value) << "key " << key;
  }
  EXPECT_GT(filter.saturation().saturation_clamps, 0u);
  EXPECT_GT(filter.Health().saturated_counters, 0u);
}

TEST(BatchPipelineTest, VectorConveniencesMatchPointerForm) {
  const auto make = SbfFactory(SbfPolicy::kMinimumSelection,
                               CounterBacking::kCompact);
  auto a = make();
  auto b = make();
  const std::vector<uint64_t> keys = RandomKeys(500, 41);
  a->InsertBatch(keys.data(), keys.size());
  b->InsertBatch(keys);  // vector convenience
  const std::vector<uint64_t> via_vector = b->EstimateBatch(keys);
  std::vector<uint64_t> via_pointer(keys.size());
  a->EstimateBatch(keys.data(), keys.size(), via_pointer.data());
  EXPECT_EQ(via_vector, via_pointer);
}

TEST(BatchPipelineTest, EmptyAndTinyBatches) {
  const auto make = SbfFactory(SbfPolicy::kMinimumSelection,
                               CounterBacking::kFixed64);
  auto filter = make();
  filter->InsertBatch(nullptr, 0);  // no-op, must not crash
  uint64_t key = 123;
  filter->InsertBatch(&key, 1);
  uint64_t estimate = 0;
  filter->EstimateBatch(&key, 1, &estimate);
  EXPECT_EQ(estimate, 1u);
  filter->EstimateBatch(nullptr, 0, nullptr);
}

}  // namespace
}  // namespace sbf
