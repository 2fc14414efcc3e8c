#include "core/spectral_bloom_filter.h"

#include <algorithm>

#include "core/batch_kernels.h"
#include "core/simd_kernels.h"
#include "sai/compact_counter_vector.h"
#include "sai/fixed_counter_vector.h"
#include "sai/serial_scan_counter_vector.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/audit.h"

namespace sbf {
namespace {

constexpr uint32_t kMaxK = 64;

// Aborts on invalid options. Runs in the options_ member initializer, i.e.
// before the hash family or counter vector are constructed — neither is
// well-defined for m == 0 or k == 0, so validating in the constructor body
// would be too late.
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
  if (options.k < 1 || options.k > kMaxK) {
    return Status::InvalidArgument("SBF needs 1 <= k <= 64");
  }
  return Status::Ok();
}

SpectralBloomFilter::SpectralBloomFilter(SbfOptions options)
    : options_(ValidatedOrDie(options)),
      hash_(options.k, options.m, options.seed, options.hash_kind),
      counters_(MakeCounterVector(options.backing, options.m)) {
  SBF_AUDIT_INVARIANTS(*this);
}

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
      counters_(other.counters_->Clone()),
      total_items_(other.total_items_),
      sum_identity_intact_(other.sum_identity_intact_) {}

SpectralBloomFilter& SpectralBloomFilter::operator=(
    const SpectralBloomFilter& other) {
  if (this == &other) return *this;
  options_ = other.options_;
  hash_ = other.hash_;
  counters_ = other.counters_->Clone();
  total_items_ = other.total_items_;
  sum_identity_intact_ = other.sum_identity_intact_;
  return *this;
}

void SpectralBloomFilter::Insert(uint64_t key, uint64_t count) {
  SBF_DCHECK(count > 0);
  uint64_t positions[kMaxK];
  hash_.Positions(key, positions);
  const uint32_t k = options_.k;

  if (options_.policy == SbfPolicy::kMinimumSelection) {
    for (uint32_t i = 0; i < k; ++i) counters_->Increment(positions[i], count);
  } else {
    // Minimal Increase, batch form (Section 3.2): raise the minimal
    // counter(s) by `count` and lift every other counter to at least
    // m_x + count. Equivalent to `count` iterative single insertions.
    MinimalIncreaseProbe(*counters_, positions, k, count);
  }
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
  uint64_t positions[kMaxK];
  hash_.Positions(key, positions);
  const uint32_t k = options_.k;

  if (options_.policy == SbfPolicy::kMinimumSelection) {
    // Counters of genuinely inserted data never underflow under MS;
    // Decrement checks that invariant.
    for (uint32_t i = 0; i < k; ++i) counters_->Decrement(positions[i], count);
  } else {
    // Under Minimal Increase counters may hold less than the number of
    // deletions of the keys mapped onto them; clamping at zero is what
    // makes deletions unsound for MI (false negatives, Figure 8).
    for (uint32_t i = 0; i < k; ++i) {
      const uint64_t v = counters_->Get(positions[i]);
      counters_->Set(positions[i], v >= count ? v - count : 0);
    }
  }
  total_items_ -= std::min(total_items_, count);
}

namespace {

// Devirtualized batch kernels over a concrete backing CV. Each preserves
// the scalar operation's semantics exactly; only the memory schedule
// changes (positions hashed kBatchWindow keys ahead, counters prefetched).

// kBranchFree selects the min-of-k probe: branch-free conditional moves
// for the fixed-width backings (Get is one load, the early-exit branch is
// pure misprediction cost), early-exit for the scan-based backings (Get is
// expensive, skipping probes after a zero dominates).
template <bool kBranchFree, typename CV>
void EstimateBatchImpl(const CV& cv, const HashFamily& hash, uint32_t k,
                       const uint64_t* keys, size_t n, uint64_t* out) {
  BatchPipeline(
      cv, keys, n,
      [&hash](uint64_t key, uint64_t* pos) { hash.Positions(key, pos); },
      PrefetchEachPosition{k},
      [k, out](const CV& counters, const uint64_t* pos, size_t i) {
        if constexpr (kBranchFree) {
          out[i] = BranchFreeMin(counters, pos, k);
        } else {
          out[i] = EarlyExitMin(counters, pos, k);
        }
      });
}

template <typename CV>
void InsertBatchImpl(CV& cv, const HashFamily& hash, SbfPolicy policy,
                     uint32_t k, const uint64_t* keys, size_t n,
                     uint64_t count) {
  const auto pos_of = [&hash](uint64_t key, uint64_t* pos) {
    hash.Positions(key, pos);
  };
  if (policy == SbfPolicy::kMinimumSelection) {
    BatchPipeline(cv, keys, n, pos_of, PrefetchEachPosition{k},
                  [k, count](CV& counters, const uint64_t* pos, size_t) {
                    for (uint32_t j = 0; j < k; ++j) {
                      counters.Increment(pos[j], count);
                    }
                  });
    return;
  }
  // Minimal Increase, batch form — identical to the scalar Insert: lift
  // every counter below m_x + count up to it (shared probe kernel).
  BatchPipeline(cv, keys, n, pos_of, PrefetchEachPosition{k},
                [k, count](CV& counters, const uint64_t* pos, size_t) {
                  MinimalIncreaseProbe(counters, pos, k, count);
                });
}

}  // namespace

void SpectralBloomFilter::EstimateBatch(const uint64_t* keys, size_t n,
                                        uint64_t* out) const {
  const uint32_t k = options_.k;
  switch (options_.backing) {
    case CounterBacking::kFixed64:
    case CounterBacking::kFixed32: {
      const auto& cv = static_cast<const FixedWidthCounterVector&>(*counters_);
      const simd::BlockKernels& kn = simd::Active();
      if (kn.enabled) {
        // Vectorized gathered min over the k absolute positions (the
        // non-blocked layout has no single-line locality to exploit, but
        // the min reduction itself vectorizes; see core/simd_kernels.h).
        const uint64_t* words = cv.words();
        const auto gather = options_.backing == CounterBacking::kFixed64
                                ? kn.gather_min64
                                : kn.gather_min32;
        BatchPipeline(
            cv, keys, n,
            [this](uint64_t key, uint64_t* pos) { hash_.Positions(key, pos); },
            PrefetchEachPosition{k},
            [gather, words, k, out](const FixedWidthCounterVector&,
                                    const uint64_t* pos, size_t i) {
              out[i] = gather(words, pos, k);
            });
        return;
      }
      EstimateBatchImpl<true>(cv, hash_, k, keys, n, out);
      return;
    }
    case CounterBacking::kCompact:
      EstimateBatchImpl<false>(
          static_cast<const CompactCounterVector&>(*counters_), hash_, k,
          keys, n, out);
      return;
    case CounterBacking::kSerialScan:
      EstimateBatchImpl<false>(
          static_cast<const SerialScanCounterVector&>(*counters_), hash_, k,
          keys, n, out);
      return;
  }
}

void SpectralBloomFilter::InsertBatch(const uint64_t* keys, size_t n,
                                      uint64_t count) {
  SBF_DCHECK(count > 0);
  const uint32_t k = options_.k;
  switch (options_.backing) {
    case CounterBacking::kFixed64:
    case CounterBacking::kFixed32:
      InsertBatchImpl(static_cast<FixedWidthCounterVector&>(*counters_),
                      hash_, options_.policy, k, keys, n, count);
      break;
    case CounterBacking::kCompact:
      InsertBatchImpl(static_cast<CompactCounterVector&>(*counters_), hash_,
                      options_.policy, k, keys, n, count);
      break;
    case CounterBacking::kSerialScan:
      InsertBatchImpl(static_cast<SerialScanCounterVector&>(*counters_),
                      hash_, options_.policy, k, keys, n, count);
      break;
  }
  total_items_ += n * count;
}

void SpectralBloomFilter::ApplyAddBatch(const uint64_t* keys,
                                        const uint64_t* counts, size_t n) {
  if (n == 0) return;
  // The decoded-view path pays one span decode + encode per touched span.
  // That always beats serial-scan's scalar writes (each a full group
  // re-encode, 7.39x in BENCH_compact_decode.json). It does not pay
  // anywhere else: compact's scalar Increment is an O(1) in-place bump
  // (the view measured 1.003x the scalar loop even on dense batches), the
  // fixed backings' Increment is an O(1) inline word op, and MI lifts
  // depend on the current minimum at apply time (no commutative bulk form).
  if (options_.policy != SbfPolicy::kMinimumSelection ||
      options_.backing != CounterBacking::kSerialScan) {
    for (size_t e = 0; e < n; ++e) Insert(keys[e], counts[e]);
    return;
  }
  const uint32_t k = options_.k;
  std::vector<std::pair<uint64_t, uint64_t>> deltas;  // (position, count)
  deltas.reserve(n * k);
  uint64_t positions[kMaxK];
  uint64_t items = 0;
  for (size_t e = 0; e < n; ++e) {
    hash_.Positions(keys[e], positions);
    for (uint32_t j = 0; j < k; ++j) {
      deltas.emplace_back(positions[j], counts[e]);
    }
    items += counts[e];
  }
  // Cluster the increments by decoded span so the view refills each span
  // once. Only span membership matters (clamped adds within one counter
  // commute), so a dense batch uses a two-pass counting sort by span —
  // O(probes + spans) beats the comparison sort that otherwise dominates
  // the flush. A sparse batch would pay more for the span histogram than
  // the sort, so it keeps std::sort.
  const size_t spans =
      counters_->size() / DecodeView::kSpanCounters + 1;
  if (deltas.size() >= spans) {
    std::vector<uint32_t> first_in_span(spans + 1, 0);
    for (const auto& [pos, count] : deltas) {
      ++first_in_span[pos / DecodeView::kSpanCounters + 1];
    }
    for (size_t s = 1; s <= spans; ++s) {
      first_in_span[s] += first_in_span[s - 1];
    }
    std::vector<std::pair<uint64_t, uint64_t>> clustered(deltas.size());
    for (const auto& delta : deltas) {
      clustered[first_in_span[delta.first / DecodeView::kSpanCounters]++] =
          delta;
    }
    deltas.swap(clustered);
  } else {
    std::sort(deltas.begin(), deltas.end());
  }
  {
    DecodeView view(*counters_);
    for (const auto& [pos, count] : deltas) {
      view.Increment(static_cast<size_t>(pos), count);
    }
  }  // write-back + clamp-tally merge on view destruction
  total_items_ += items;
  SBF_AUDIT_INVARIANTS(*this);
}

uint64_t SpectralBloomFilter::Estimate(uint64_t key) const {
  uint64_t positions[kMaxK];
  hash_.Positions(key, positions);
  uint64_t min_value = counters_->Get(positions[0]);
  for (uint32_t i = 1; i < options_.k; ++i) {
    min_value = std::min(min_value, counters_->Get(positions[i]));
    if (min_value == 0) break;
  }
  return min_value;
}

size_t SpectralBloomFilter::MemoryUsageBits() const {
  return counters_->MemoryUsageBits();
}

std::string SpectralBloomFilter::Name() const {
  return options_.policy == SbfPolicy::kMinimumSelection ? "MS" : "MI";
}

std::vector<uint64_t> SpectralBloomFilter::CounterValues(uint64_t key) const {
  uint64_t positions[kMaxK];
  hash_.Positions(key, positions);
  std::vector<uint64_t> values(options_.k);
  for (uint32_t i = 0; i < options_.k; ++i) {
    values[i] = counters_->Get(positions[i]);
  }
  return values;
}

bool SpectralBloomFilter::HasRecurringMinimum(uint64_t key) const {
  uint64_t positions[kMaxK];
  hash_.Positions(key, positions);
  uint64_t min_value = ~0ull;
  uint32_t min_count = 0;
  for (uint32_t i = 0; i < options_.k; ++i) {
    const uint64_t v = counters_->Get(positions[i]);
    if (v < min_value) {
      min_value = v;
      min_count = 1;
    } else if (v == min_value) {
      ++min_count;
    }
  }
  return min_count >= 2;
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

namespace {

// Copies every old counter's value onto its c-position preimage set in the
// expanded vector (see ExpandTo's contract in the header). Both layouts
// fall out of the hash definitions for new_m = c * old_m:
//  * kModuloMultiply probes floor(frac * m): floor division by c maps new
//    position p to old position p / c, so old i owns [i*c, (i+1)*c).
//  * kDoubleMix probes (g1 + i*g2) mod m: since old_m divides new_m, new
//    positions reduce to old ones mod old_m, so old i owns {i + j*old_m}.
void FoldExpandCounters(const CounterVector& old_cv, uint64_t c,
                        HashFamily::Kind kind, CounterVector* next) {
  const size_t old_m = old_cv.size();
  constexpr size_t kChunk = 256;
  uint64_t values[kChunk];
  for (size_t base = 0; base < old_m; base += kChunk) {
    const size_t len = std::min(kChunk, old_m - base);
    old_cv.DecodeBlock(base, len, values);
    for (size_t j = 0; j < len; ++j) {
      if (values[j] == 0) continue;
      const uint64_t i = base + j;
      for (uint64_t rep = 0; rep < c; ++rep) {
        const uint64_t p = kind == HashFamily::Kind::kModuloMultiply
                               ? i * c + rep
                               : i + rep * old_m;
        next->Set(p, values[j]);
      }
    }
  }
}

}  // namespace

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
  FoldExpandCounters(*counters_, c, options_.hash_kind, next.get());
  next->MergeSaturationStats(counters_->saturation());
  // Same seed, larger range: HashFamily derives all per-probe parameters
  // from the seed alone, so rebuilding it keeps the position
  // correspondence FoldExpandCounters relied on.
  hash_ = HashFamily(options_.k, new_m, options_.seed, options_.hash_kind);
  counters_ = std::move(next);
  options_.m = new_m;
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

StatusOr<bool> SpectralBloomFilter::ExpandIfDegraded() {
  if (Health().state == HealthState::kHealthy) return false;
  const Status status = ExpandTo(options_.m * 2);
  if (!status.ok()) return status;
  return true;
}

std::vector<uint8_t> SpectralBloomFilter::Serialize() const {
  SBF_AUDIT_INVARIANTS(*this);
  wire::Writer payload;
  payload.PutVarint(options_.m);
  payload.PutVarint(options_.k);
  payload.PutU8(options_.policy == SbfPolicy::kMinimumSelection ? 0 : 1);
  payload.PutU8(static_cast<uint8_t>(options_.backing));
  payload.PutU8(options_.hash_kind == HashFamily::Kind::kModuloMultiply ? 0
                                                                        : 1);
  payload.PutU64(options_.seed);
  payload.PutVarint(total_items_);
  payload.PutFrame(counters_->Serialize());
  return wire::SealFrame(wire::kMagicSbf, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<SpectralBloomFilter> SpectralBloomFilter::Deserialize(
    wire::ByteSpan bytes) {
  auto reader =
      wire::OpenFrame(bytes, wire::kMagicSbf, wire::kFormatVersion, "SBF");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();

  SbfOptions options;
  options.m = in.ReadVarint();
  const uint64_t k = in.ReadVarint();
  const uint8_t policy = in.ReadU8();
  const uint8_t backing = in.ReadU8();
  const uint8_t kind = in.ReadU8();
  options.seed = in.ReadU64();
  const uint64_t total_items = in.ReadVarint();
  if (!in.ok()) return in.status();
  if (k > kMaxK || policy > 1 || kind > 1 ||
      backing > static_cast<uint8_t>(CounterBacking::kSerialScan)) {
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

  SpectralBloomFilter filter(options);
  filter.counters_ = std::move(cv).value();
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
  if (hash_.m() != options_.m || hash_.k() != options_.k ||
      hash_.seed() != options_.seed || hash_.kind() != options_.hash_kind) {
    return Status::FailedPrecondition(
        "SBF: hash family disagrees with options");
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
