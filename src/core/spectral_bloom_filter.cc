#include "core/spectral_bloom_filter.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "core/batch_kernels.h"
#include "core/simd_kernels.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/prefetch.h"
#include "util/random.h"
#include "util/audit.h"

namespace sbf {
namespace {

// Seed salts of the blocked layout: the block router and the within-block
// probe family are seeded apart from each other (and from a flat filter
// with the same seed). Part of the wire contract — changing either
// remaps every stored blocked filter.
constexpr uint64_t kBlockRouterSalt = 0xB10CEDull;
constexpr uint64_t kWithinBlockSalt = 0x17735Bull;

// Counter width the 'SBcb' frame records for the sticky4 backing.
constexpr uint64_t kStickyWidth = 4;

// Counters the probe family ranges over: the block, or all m when flat.
uint64_t ProbeRange(const SbfOptions& options) {
  return options.block_size == 0 ? options.m : options.block_size;
}

uint64_t ProbeSeed(const SbfOptions& options) {
  return options.block_size == 0 ? options.seed
                                 : options.seed ^ kWithinBlockSalt;
}

HashFamily ProbeFamily(const SbfOptions& options) {
  return HashFamily(options.k, ProbeRange(options), ProbeSeed(options),
                    options.hash_kind);
}

ModuloMultiplyHash BlockRouter(const SbfOptions& options) {
  uint64_t sm = options.seed ^ kBlockRouterSalt;
  return ModuloMultiplyHash(SplitMix64(sm),
                            options.m / ProbeRange(options));
}

// Aborts on invalid options. Runs in the options_ member initializer, i.e.
// before the hash family, block router or counter vector are constructed
// — none is well-defined for m == 0, k == 0 or a block size that does not
// divide m, so validating in the constructor body would be too late.
SbfOptions ValidatedOrDie(const SbfOptions& options) {
  const Status status = ValidateSbfOptions(options);
  SBF_CHECK_MSG(status.ok(), status.message().c_str());
  return options;
}

}  // namespace

Status ValidateSbfOptions(const SbfOptions& options) {
  if (options.m < 1) {
    return Status::InvalidArgument("SBF needs m >= 1");
  }
  if (options.k < 1 || options.k > HashFamily::kMaxK) {
    return Status::InvalidArgument("SBF needs 1 <= k <= 64");
  }
  if (options.block_size > options.m) {
    return Status::InvalidArgument("block size must be 0 (flat) or in [1, m]");
  }
  if (options.block_size != 0 && options.m % options.block_size != 0) {
    return Status::InvalidArgument("m must be a multiple of block_size");
  }
  // The 'SBcb' frame has no field for a block size or a policy.
  if (options.backing == CounterBacking::kSticky4 &&
      (options.block_size != 0 ||
       options.policy != SbfPolicy::kMinimumSelection)) {
    return Status::InvalidArgument(
        "the sticky4 backing needs the flat layout and Minimum Selection");
  }
  return Status::Ok();
}

bool SameSbfOptions(const SbfOptions& a, const SbfOptions& b) {
  return a.m == b.m && a.k == b.k && a.policy == b.policy &&
         a.backing == b.backing && a.seed == b.seed &&
         a.hash_kind == b.hash_kind && a.block_size == b.block_size;
}

uint64_t ExpansionUnit(const SbfOptions& options) {
  if (options.block_size != 0) return options.block_size;
  return options.hash_kind == HashFamily::Kind::kModuloMultiply ? 1
                                                                : options.m;
}

SpectralBloomFilter::SpectralBloomFilter(SbfOptions options)
    : options_(ValidatedOrDie(options)),
      hash_(ProbeFamily(options_)),
      block_hash_(BlockRouter(options_)),
      counters_(MakeCounterVector(options_.backing, options_.m)) {
  SBF_AUDIT_INVARIANTS(*this);
}

SpectralBloomFilter::SpectralBloomFilter(
    SbfOptions options, std::unique_ptr<CounterVector> counters)
    : options_(ValidatedOrDie(options)),
      hash_(ProbeFamily(options_)),
      block_hash_(BlockRouter(options_)),
      counters_(std::move(counters)) {}

SpectralBloomFilter::SpectralBloomFilter(uint64_t m, uint32_t k)
    : SpectralBloomFilter([&] {
        SbfOptions options;
        options.m = m;
        options.k = k;
        return options;
      }()) {}

SpectralBloomFilter::SpectralBloomFilter(const SpectralBloomFilter& other)
    : options_(other.options_),
      hash_(other.hash_),
      block_hash_(other.block_hash_),
      counters_(other.counters_->Clone()),
      total_items_(other.total_items_),
      sum_identity_intact_(other.sum_identity_intact_) {}

SpectralBloomFilter& SpectralBloomFilter::operator=(
    const SpectralBloomFilter& other) {
  if (this == &other) return *this;
  options_ = other.options_;
  hash_ = other.hash_;
  block_hash_ = other.block_hash_;
  counters_ = other.counters_->Clone();
  total_items_ = other.total_items_;
  sum_identity_intact_ = other.sum_identity_intact_;
  return *this;
}

namespace {

// Blocked geometries the SIMD block kernels serve (simd_kernels.h): one
// 64-byte block of a fixed-width backing under multiply-shift hashing.
enum class SimdShape : uint8_t { kNone, kBlock64x8, kBlock32x16 };

SimdShape SimdShapeOf(const SbfOptions& options) {
  if (options.hash_kind != HashFamily::Kind::kModuloMultiply) {
    return SimdShape::kNone;
  }
  if (options.backing == CounterBacking::kFixed64 &&
      options.block_size == simd::kBlockLanes64) {
    return SimdShape::kBlock64x8;
  }
  if (options.backing == CounterBacking::kFixed32 &&
      options.block_size == simd::kBlockLanes32) {
    return SimdShape::kBlock32x16;
  }
  return SimdShape::kNone;
}

// A 64-byte block is 8 backing words in both SIMD geometries (8 x 64-bit
// or 16 x 32-bit counters), so the kernels address blocks by word index.
constexpr uint64_t kSimdWordsPerBlock = 8;

// The SIMD estimate arm. Two passes per chunk: a hash pass derives every
// key's {block word base, mixed key} and prefetches its cache line, then
// ONE batch kernel call reduces the whole chunk — the per-key indirect
// call and the kernel's vector-constant setup stay out of the hot loop,
// and the hash pass doubles as a chunk-deep prefetch window. Kept out of
// line: inlined into EstimateBatch, beside the pipeline arms and their
// position rings, the same loop measured 1.5-1.9x slower per key with
// DRAM-resident counters (bench_simd_blocked, dram regime).
[[gnu::noinline]] void SimdEstimateBatch(const SpectralBloomFilter& filter,
                                         const simd::BlockKernels& kn,
                                         SimdShape shape, const uint64_t* keys,
                                         size_t n, uint64_t* out) {
  const uint64_t* words =
      static_cast<const FixedWidthCounterVector&>(filter.counters()).words();
  uint64_t alphas[HashFamily::kMaxK];
  filter.hash().FillModuloMultiplyAlphas(alphas);
  const auto batch_min =
      shape == SimdShape::kBlock64x8 ? kn.batch_min64 : kn.batch_min32;
  constexpr size_t kChunk = 64;
  uint64_t bases[kChunk];
  uint64_t mixes[kChunk];
  for (size_t at = 0; at < n; at += kChunk) {
    const size_t len = n - at < kChunk ? n - at : kChunk;
    for (size_t i = 0; i < len; ++i) {
      const uint64_t key = keys[at + i];
      bases[i] = filter.BlockOf(key) * kSimdWordsPerBlock;
      mixes[i] = filter.hash().MixedKey(key);
      SBF_PREFETCH(words + bases[i]);
    }
    batch_min(words, bases, mixes, len, alphas, filter.k(), out + at);
  }
}

}  // namespace

void SpectralBloomFilter::Insert(uint64_t key, uint64_t count) {
  SBF_DCHECK(count > 0);
  uint64_t positions[HashFamily::kMaxK];
  Positions(key, positions);
  VisitBacking(options_.backing, *counters_, [&](auto& cv) {
    WriteProbe(cv, positions, options_.k, count, options_.policy,
               /*remove=*/false);
  });
  total_items_ += count;

#ifdef SBF_AUDIT
  // Key-local audit (O(k), cheap enough for every operation): both
  // policies leave each of the key's counters at `count` or above —
  // unless the backing cannot even represent `count` and clamped.
  if (count <= counters_->MaxValue()) {
    SBF_CHECK_MSG(Estimate(key) >= count,
                  "SBF audit: insert did not raise the key's minimum");
  }
#endif

  // Fault-injection site (no-op in production builds): a soft memory error
  // flips one bit of one counter under write traffic. Routed through
  // Get/Set so a flip past the backing's range clamps like any other
  // out-of-range value instead of corrupting the encoding.
  size_t flip_index;
  uint32_t flip_bit;
  if (fault::NextCounterFlip(options_.m, &flip_index, &flip_bit)) {
    counters_->Set(flip_index,
                   counters_->Get(flip_index) ^ (uint64_t{1} << flip_bit));
  }
}

void SpectralBloomFilter::Remove(uint64_t key, uint64_t count) {
  SBF_DCHECK(count > 0);
  uint64_t positions[HashFamily::kMaxK];
  Positions(key, positions);
  VisitBacking(options_.backing, *counters_, [&](auto& cv) {
    WriteProbe(cv, positions, options_.k, count, options_.policy,
               /*remove=*/true);
  });
  total_items_ -= std::min(total_items_, count);
}

uint64_t SpectralBloomFilter::Estimate(uint64_t key) const {
  uint64_t positions[HashFamily::kMaxK];
  Positions(key, positions);
  uint64_t min_value = 0;
  VisitBacking(options_.backing, *counters_, [&](const auto& cv) {
    min_value = MinProbe(cv, positions, options_.k);
  });
  return min_value;
}

void SpectralBloomFilter::EstimateBatch(const uint64_t* keys, size_t n,
                                        uint64_t* out) const {
  const uint32_t k = options_.k;
  const simd::BlockKernels& kn = simd::Active();
  const SimdShape shape = SimdShapeOf(options_);
  if (kn.enabled && shape != SimdShape::kNone) {
    SimdEstimateBatch(*this, kn, shape, keys, n, out);
    return;
  }
  // gather_min32 reads 32-bit lanes, so the 4-bit sticky lanes stay on
  // the branch-free scalar min.
  const bool gather = kn.enabled && options_.block_size == 0 &&
                      (options_.backing == CounterBacking::kFixed64 ||
                       options_.backing == CounterBacking::kFixed32);
  VisitBacking(options_.backing, *counters_, [&](const auto& cv) {
    using CV = std::decay_t<decltype(cv)>;
    if constexpr (std::is_same_v<CV, FixedWidthCounterVector>) {
      if (gather) {
        // Vectorized gathered min over the k absolute positions (the flat
        // layout has no single-line locality to exploit, but the min
        // reduction itself vectorizes; see core/simd_kernels.h).
        const uint64_t* words = cv.words();
        const auto gather_min = options_.backing == CounterBacking::kFixed64
                                    ? kn.gather_min64
                                    : kn.gather_min32;
        BatchPipeline(cv, keys, n,
                      [&hash = hash_](uint64_t key, uint64_t* pos) {
                        hash.Positions(key, pos);
                      },
                      PrefetchEachPosition{k},
                      [gather_min, words, k, out](const CV&,
                                                  const uint64_t* pos,
                                                  size_t i) {
                        out[i] = gather_min(words, pos, k);
                      });
        return;
      }
    }
    MinPipeline(cv, *this, keys, n, out);
  });
}

void SpectralBloomFilter::Apply(const SbfWrite& write) {
  SBF_DCHECK(write.counts != nullptr || write.count > 0);
  const uint32_t k = options_.k;
  const SbfPolicy policy = options_.policy;
  // By value, so the probe loops keep the write's fields in registers
  // rather than reloading them after every counter store.
  const bool remove = write.remove;
  const auto count_of = [counts = write.counts, count = write.count](size_t i) {
    return counts != nullptr ? counts[i] : count;
  };
  // Item accounting, key by key as the point ops keep it.
  for (size_t i = 0; i < write.n; ++i) {
    const uint64_t c = count_of(i);
    total_items_ = remove ? total_items_ - std::min(total_items_, c)
                          : total_items_ + c;
  }

  if (write.counts != nullptr && !remove &&
      policy == SbfPolicy::kMinimumSelection &&
      options_.backing == CounterBacking::kSerialScan) {
    // A drained epoch on serial-scan: its scalar write decodes and
    // re-encodes a whole group per probe, so all k*n (position, count)
    // pairs go to AddMany, which rewrites each touched group once (~9x
    // the per-probe loop in BENCH_compact_decode.json). The other
    // backings write in place in O(1), and MI lifts depend on the minimum
    // at apply time (no commutative bulk form).
    std::vector<std::pair<uint64_t, uint64_t>> adds;  // (position, count)
    adds.reserve(write.n * k);
    uint64_t positions[HashFamily::kMaxK];
    for (size_t i = 0; i < write.n; ++i) {
      Positions(write.keys[i], positions);
      for (uint32_t j = 0; j < k; ++j) {
        adds.emplace_back(positions[j], write.counts[i]);
      }
    }
    static_cast<SerialScanCounterVector&>(*counters_).AddMany(std::move(adds));
    SBF_AUDIT_INVARIANTS(*this);
    return;
  }

  const simd::BlockKernels& kn = simd::Active();
  const SimdShape shape = SimdShapeOf(options_);
  if (!remove && kn.enabled && shape != SimdShape::kNone) {
    // The ring slot carries {block word base, mixed key}; the kernel
    // derives the lanes and applies the MS add / MI lift vectorially.
    auto& cv = static_cast<FixedWidthCounterVector&>(*counters_);
    uint64_t* words = cv.mutable_words();
    uint64_t alphas[HashFamily::kMaxK];
    hash_.FillModuloMultiplyAlphas(alphas);
    const bool wide = shape == SimdShape::kBlock64x8;
    const bool ms = policy == SbfPolicy::kMinimumSelection;
    const auto kernel = ms ? (wide ? kn.blocked_add64 : kn.blocked_add32)
                           : (wide ? kn.blocked_lift64 : kn.blocked_lift32);
    const uint32_t lane_shift =
        wide ? simd::kLaneShift64 : simd::kLaneShift32;
    const uint64_t counters_per_word = wide ? 1 : 2;
    BatchPipeline(
        cv, write.keys, write.n,
        [this](uint64_t key, uint64_t* pos) {
          pos[0] = BlockOf(key) * kSimdWordsPerBlock;
          pos[1] = hash_.MixedKey(key);
        },
        [words](const FixedWidthCounterVector&, const uint64_t* pos) {
          SBF_PREFETCH(words + pos[0]);
        },
        [&](FixedWidthCounterVector& c, const uint64_t* pos, size_t i) {
          const uint64_t count = count_of(i);
          if (kernel(words + pos[0], alphas, k, pos[1], count)) return;
          // The kernel wrote nothing because a saturation clamp could
          // fire: rerun the key through the exact write body on its
          // absolute positions (simd_kernels.h saturation contract).
          uint64_t abs[HashFamily::kMaxK];
          const uint64_t base = pos[0] * counters_per_word;
          for (uint32_t j = 0; j < k; ++j) {
            abs[j] = base + ((alphas[j] * pos[1]) >> lane_shift);
          }
          WriteProbe(c, abs, k, count, policy, /*remove=*/false);
        });
    return;
  }

  VisitBacking(options_.backing, *counters_,
               [&](auto& cv) { WritePipeline(cv, *this, write); });
}

size_t SpectralBloomFilter::MemoryUsageBits() const {
  return counters_->MemoryUsageBits();
}

std::string SpectralBloomFilter::Name() const {
  if (options_.backing == CounterBacking::kSticky4) return "CBF";
  const char* policy =
      options_.policy == SbfPolicy::kMinimumSelection ? "MS" : "MI";
  return options_.block_size == 0 ? policy : std::string("blocked-") + policy;
}

std::vector<uint64_t> SpectralBloomFilter::CounterValues(uint64_t key) const {
  uint64_t positions[HashFamily::kMaxK];
  Positions(key, positions);
  std::vector<uint64_t> values(options_.k);
  VisitBacking(options_.backing, *counters_, [&](const auto& cv) {
    for (uint32_t i = 0; i < options_.k; ++i) values[i] = cv.Get(positions[i]);
  });
  return values;
}

KeyMinimum SpectralBloomFilter::RecurringMinimum(uint64_t key) const {
  uint64_t positions[HashFamily::kMaxK];
  Positions(key, positions);
  KeyMinimum result;
  VisitBacking(options_.backing, *counters_, [&](const auto& cv) {
    result.min = cv.Get(positions[0]);
    for (uint32_t i = 1; i < options_.k; ++i) {
      const uint64_t v = cv.Get(positions[i]);
      if (v < result.min) {
        result = {v, false};
      } else if (v == result.min) {
        result.recurring = true;
      }
    }
  });
  return result;
}

SpectralBloomFilter SpectralBloomFilter::CloneEmpty() const {
  return SpectralBloomFilter(options_);
}

FilterHealth SpectralBloomFilter::Health() const {
  FilterHealth health;
  health.counters = options_.m;
  const OccupancyCounts occupancy = counters_->ScanOccupancy();
  health.nonzero_counters = occupancy.nonzero;
  health.saturated_counters = occupancy.saturated;
  health.saturation_clamps = counters_->saturation().saturation_clamps;
  health.underflow_clamps = counters_->saturation().underflow_clamps;
  FinalizeHealth(options_.k, options_.health, &health);
  return health;
}

Status SpectralBloomFilter::ExpandTo(uint64_t new_m) {
  if (new_m == options_.m) return Status::Ok();
  if (new_m < options_.m || new_m % options_.m != 0) {
    return Status::InvalidArgument(
        "ExpandTo needs new_m to be a multiple of the current m");
  }
  if (fault::ShouldFailAllocation()) {
    return Status::ResourceExhausted("SBF expansion allocation failed");
  }
  const uint64_t c = new_m / options_.m;
  std::unique_ptr<CounterVector> next =
      MakeCounterVector(options_.backing, new_m);
  const uint64_t unit = ExpansionUnit(options_);
  VisitBacking(options_.backing, std::as_const(*counters_),
               [&](const auto& from) {
                 using CV = std::decay_t<decltype(from)>;
                 AddFolded</*kOntoZero=*/true>(
                     from, static_cast<CV&>(*next), 0, options_.m, unit, c);
               });
  next->MergeSaturationStats(counters_->saturation());
  counters_ = std::move(next);
  options_.m = new_m;
  // Same seed, larger range: the families derive every per-probe
  // parameter from the seed alone, so rebuilding them keeps the position
  // correspondence the fold relied on.
  hash_ = ProbeFamily(options_);
  block_hash_ = BlockRouter(options_);
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

StatusOr<bool> SpectralBloomFilter::ExpandIfDegraded() {
  if (Health().state == HealthState::kHealthy) return false;
  const Status status = ExpandTo(options_.m * 2);
  if (!status.ok()) return status;
  return true;
}

uint64_t SpectralBloomFilter::BlockLoad(uint64_t b) const {
  SBF_DCHECK(b < num_blocks());
  const uint64_t span = ProbeRange(options_);
  uint64_t load = 0;
  constexpr uint64_t kChunk = 256;
  uint64_t values[kChunk];
  for (uint64_t off = 0; off < span; off += kChunk) {
    const uint64_t len = std::min(kChunk, span - off);
    counters_->DecodeBlock(b * span + off, len, values);
    for (uint64_t j = 0; j < len; ++j) load += values[j];
  }
  return load;
}

std::vector<uint8_t> SpectralBloomFilter::Serialize() const {
  return SerializeWithItems(total_items_);
}

std::vector<uint8_t> SpectralBloomFilter::SerializeWithItems(
    uint64_t total_items) const {
  SBF_AUDIT_INVARIANTS(*this);
  // Four frames, each byte-compatible with every blob written before:
  // 'SBsf' (flat), 'SBbk' (blocked Minimum Selection — the blocked layout
  // predates the policy option, so it has no policy byte), 'SBb2'
  // (blocked Minimal Increase) and 'SBcb' (the sticky4 counting Bloom
  // filter, whose header has a counter width and no policy or backing
  // byte). Only 'SBsf' carries total items.
  const bool blocked = options_.block_size != 0;
  const bool sticky = options_.backing == CounterBacking::kSticky4;
  const bool sbsf = !blocked && !sticky;
  const uint8_t policy =
      options_.policy == SbfPolicy::kMinimumSelection ? 0 : 1;
  wire::Writer payload;
  payload.PutVarint(options_.m);
  if (blocked) payload.PutVarint(options_.block_size);
  payload.PutVarint(options_.k);
  if (sbsf) payload.PutU8(policy);
  if (!sticky) payload.PutU8(static_cast<uint8_t>(options_.backing));
  payload.PutU8(options_.hash_kind == HashFamily::Kind::kModuloMultiply ? 0
                                                                        : 1);
  if (blocked && policy != 0) payload.PutU8(policy);
  payload.PutU64(options_.seed);
  if (sbsf) payload.PutVarint(total_items);
  if (sticky) payload.PutVarint(kStickyWidth);
  payload.PutFrame(counters_->Serialize());
  const uint32_t magic = sticky        ? wire::kMagicCountingBloom
                         : !blocked    ? wire::kMagicSbf
                         : policy == 0 ? wire::kMagicSbfBlocked
                                       : wire::kMagicSbfBlockedMi;
  return wire::SealFrame(magic, wire::kFormatVersion, std::move(payload));
}

StatusOr<SpectralBloomFilter> SpectralBloomFilter::Deserialize(
    wire::ByteSpan bytes) {
  const uint32_t magic = wire::PeekMagic(bytes);
  const bool blocked = magic == wire::kMagicSbfBlocked ||
                       magic == wire::kMagicSbfBlockedMi;
  const bool sticky = magic == wire::kMagicCountingBloom;
  // Any other magic opens as 'SBsf', so OpenFrame reports the mismatch.
  auto reader =
      wire::OpenFrame(bytes, blocked || sticky ? magic : wire::kMagicSbf,
                      wire::kFormatVersion, "SBF");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();

  const bool sbsf = !blocked && !sticky;
  SbfOptions options;
  options.m = in.ReadVarint();
  if (blocked) options.block_size = in.ReadVarint();
  const uint64_t k = in.ReadVarint();
  uint8_t policy = sbsf ? in.ReadU8() : 0;
  const uint8_t backing = sticky
                              ? static_cast<uint8_t>(CounterBacking::kSticky4)
                              : in.ReadU8();
  const uint8_t kind = in.ReadU8();
  if (magic == wire::kMagicSbfBlockedMi) policy = in.ReadU8();
  options.seed = in.ReadU64();
  const uint64_t total_items = sbsf ? in.ReadVarint() : 0;
  const uint64_t width = sticky ? in.ReadVarint() : kStickyWidth;
  if (!in.ok()) return in.status();
  if (width != kStickyWidth) {
    return Status::DataLoss("counting BF counter width is not 4");
  }
  // Backing byte 4 (sticky4) is only ever written as 'SBcb'.
  if (k > HashFamily::kMaxK || policy > 1 || kind > 1 ||
      (!sticky &&
       backing > static_cast<uint8_t>(CounterBacking::kSerialScan)) ||
      (blocked && options.block_size == 0)) {
    return Status::DataLoss("bad SBF header");
  }
  options.k = static_cast<uint32_t>(k);
  options.policy =
      policy == 0 ? SbfPolicy::kMinimumSelection : SbfPolicy::kMinimalIncrease;
  options.backing = static_cast<CounterBacking>(backing);
  options.hash_kind = kind == 0 ? HashFamily::Kind::kModuloMultiply
                                : HashFamily::Kind::kDoubleMix;
  const Status valid = ValidateSbfOptions(options);
  if (!valid.ok()) return Status::DataLoss(valid.message());

  // The embedded counter frame bounds its own allocations against the
  // actual message size; deserializing it *first* means a corrupted m can
  // never drive the filter allocation below (size must match), and a
  // backing mismatch can never reach the devirtualized batch kernels.
  const wire::ByteSpan counter_frame = in.ReadFrameSpan();
  if (!in.ok()) return in.status();
  Status status = in.ExpectEnd("SBF");
  if (!status.ok()) return status;
  auto cv = DeserializeCounterVector(counter_frame);
  if (!cv.ok()) return cv.status();
  if (cv.value()->size() != options.m) {
    return Status::DataLoss("SBF counter vector size disagrees with m");
  }
  if (!MatchesBacking(*cv.value(), options.backing)) {
    return Status::DataLoss("SBF counter vector backing mismatch");
  }

  SpectralBloomFilter filter(options, std::move(cv).value());
  filter.total_items_ = total_items;
  // The frame does not record whether the writer's accounting was ever
  // adjusted out of band, so the sum-identity audit rule cannot be
  // re-armed on a loaded filter.
  filter.sum_identity_intact_ = false;
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}

Status SpectralBloomFilter::CheckInvariants() const {
  Status status = ValidateSbfOptions(options_);
  if (!status.ok()) return status;
  if (hash_.m() != ProbeRange(options_) || hash_.k() != options_.k ||
      hash_.seed() != ProbeSeed(options_) ||
      hash_.kind() != options_.hash_kind) {
    return Status::FailedPrecondition(
        "SBF: hash family disagrees with options");
  }
  if (block_hash_.range() != options_.m / ProbeRange(options_)) {
    return Status::FailedPrecondition(
        "SBF: block router range disagrees with m / block_size");
  }
  if (counters_ == nullptr || counters_->size() != options_.m) {
    return Status::FailedPrecondition(
        "SBF: counter vector missing or size disagrees with m");
  }
  if (!MatchesBacking(*counters_, options_.backing)) {
    return Status::FailedPrecondition(
        "SBF: counter vector backing disagrees with options");
  }
  status = counters_->CheckInvariants();
  if (!status.ok()) return status;
  // Spectral sum bound: under Minimum Selection every insert raises k
  // counters by count and every remove lowers k by count, so with no clamp
  // events sum(C) >= k * total_items — expansion replicates counters and
  // can only raise the sum, a corrupted (lowered) counter breaks it.
  const SaturationStats& stats = counters_->saturation();
  if (sum_identity_intact_ &&
      options_.policy == SbfPolicy::kMinimumSelection &&
      stats.saturation_clamps == 0 && stats.underflow_clamps == 0 &&
      total_items_ <= (~uint64_t{0}) / options_.k) {
    if (counters_->Total() < total_items_ * options_.k) {
      return Status::FailedPrecondition(
          "SBF: counter sum below k * total_items (corrupted or "
          "under-counted backing)");
    }
  }
  return Status::Ok();
}

}  // namespace sbf
