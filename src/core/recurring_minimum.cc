#include "core/recurring_minimum.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/batch_kernels.h"
#include "util/audit.h"

namespace sbf {
namespace {

constexpr uint64_t kSecondarySeedSalt = 0x5EC07DA21ULL;
constexpr uint64_t kMarkerSeedSalt = 0xB100F11;

// True when removing `count` occurrences of `key` from the secondary takes
// no counter below zero: each of the key's counters holds `count` times
// the number of its probes landing there (positions can repeat).
bool SecondaryCanAbsorb(const SpectralBloomFilter& secondary, uint64_t key,
                        uint64_t count) {
  uint64_t positions[HashFamily::kMaxK];
  const uint32_t k = secondary.k();
  secondary.Positions(key, positions);
  bool absorbs = true;
  VisitBacking(secondary.options().backing, secondary.counters(),
               [&](const auto& cv) {
                 for (uint32_t i = 0; i < k && absorbs; ++i) {
                   const uint64_t multiplicity =
                       std::count(positions, positions + k, positions[i]);
                   absorbs = cv.Get(positions[i]) >= count * multiplicity;
                 }
               });
  return absorbs;
}

}  // namespace

SbfOptions PrimaryOptions(const RecurringMinimumOptions& options) {
  SbfOptions sbf;
  sbf.m = options.primary_m;
  sbf.k = options.k;
  sbf.policy = SbfPolicy::kMinimumSelection;
  sbf.backing = options.backing;
  sbf.seed = options.seed;
  sbf.hash_kind = options.hash_kind;
  return sbf;
}

SbfOptions SecondaryOptions(const RecurringMinimumOptions& options) {
  SbfOptions sbf = PrimaryOptions(options);
  sbf.m = options.secondary_m;
  sbf.seed = options.seed ^ kSecondarySeedSalt;
  return sbf;
}

RecurringMinimumCore::RecurringMinimumCore(RecurringMinimumOptions options)
    : options_(options),
      primary_(PrimaryOptions(options)),
      secondary_(SecondaryOptions(options)) {}

RecurringMinimumCore::RecurringMinimumCore(
    RecurringMinimumOptions options,
    std::pair<SpectralBloomFilter, SpectralBloomFilter> sbfs)
    : options_(options),
      primary_(std::move(sbfs.first)),
      secondary_(std::move(sbfs.second)) {}

void RecurringMinimumCore::Remove(uint64_t key, uint64_t count) {
  primary_.Remove(key, count);
  // Reverse of insert ("if it has a single minimum, or if it exists in
  // B_f, decrease its counters in the secondary SBF, unless at least one
  // of them is 0"): skipping the recurring-minimum case protects moved
  // items' counters from unpaired decrements by never-moved keys — at
  // worst the secondary retains a benign overestimate. Positions can
  // repeat (two hash functions may agree), so each counter must cover
  // count times its multiplicity among the k positions.
  if (primary_.RecurringMinimum(key).recurring && !Marked(key)) return;
  if (SecondaryCanAbsorb(secondary_, key, count)) {
    secondary_.Remove(key, count);
  }
}

uint64_t RecurringMinimumCore::Estimate(uint64_t key) const {
  const KeyMinimum primary = primary_.RecurringMinimum(key);
  if (primary.recurring && !Marked(key)) return primary.min;
  // The secondary refines the estimate for suspected-error items; the
  // primary minimum is always a valid upper bound, so never exceed it.
  const uint64_t secondary_estimate = secondary_.Estimate(key);
  if (secondary_estimate > 0) return std::min(primary.min, secondary_estimate);
  return primary.min;
}

FilterHealth RecurringMinimumCore::Health() const {
  FilterHealth health = primary_.Health();
  const FilterHealth secondary_health = secondary_.Health();
  health.saturation_clamps += secondary_health.saturation_clamps;
  health.underflow_clamps += secondary_health.underflow_clamps;
  if (static_cast<int>(secondary_health.state) >
      static_cast<int>(health.state)) {
    health.state = secondary_health.state;
  }
  return health;
}

void RecurringMinimumCore::PutLeadingFields(wire::Writer& out) const {
  out.PutVarint(options_.primary_m);
  out.PutVarint(options_.secondary_m);
  out.PutVarint(options_.k);
  out.PutU8(static_cast<uint8_t>(options_.backing));
  out.PutU8(options_.hash_kind == HashFamily::Kind::kModuloMultiply ? 0 : 1);
}

Status RecurringMinimumCore::ReadLeadingFields(
    wire::Reader& in, const char* what, RecurringMinimumOptions* options) {
  options->primary_m = in.ReadVarint();
  options->secondary_m = in.ReadVarint();
  const uint64_t k = in.ReadVarint();
  const uint8_t backing = in.ReadU8();
  const uint8_t kind = in.ReadU8();
  if (!in.ok()) return in.status();
  if (options->primary_m < 1 || options->secondary_m < 1 || k < 1 ||
      k > HashFamily::kMaxK ||
      backing > static_cast<uint8_t>(CounterBacking::kSticky4) || kind > 1) {
    return Status::DataLoss(std::string("bad ") + what + " header");
  }
  options->k = static_cast<uint32_t>(k);
  options->backing = static_cast<CounterBacking>(backing);
  options->hash_kind = kind == 0 ? HashFamily::Kind::kModuloMultiply
                                 : HashFamily::Kind::kDoubleMix;
  return Status::Ok();
}

void RecurringMinimumCore::PutSbfFrames(wire::Writer& out) const {
  out.PutFrame(primary_.Serialize());
  out.PutFrame(secondary_.Serialize());
}

StatusOr<std::pair<SpectralBloomFilter, SpectralBloomFilter>>
RecurringMinimumCore::ReadSbfFrames(wire::Reader& in, const char* what,
                                    const RecurringMinimumOptions& options) {
  const wire::ByteSpan primary_frame = in.ReadFrameSpan();
  const wire::ByteSpan secondary_frame = in.ReadFrameSpan();
  if (!in.ok()) return in.status();
  auto primary = SpectralBloomFilter::Deserialize(primary_frame);
  if (!primary.ok()) return primary.status();
  auto secondary = SpectralBloomFilter::Deserialize(secondary_frame);
  if (!secondary.ok()) return secondary.status();
  if (!SameSbfOptions(primary.value().options(), PrimaryOptions(options)) ||
      !SameSbfOptions(secondary.value().options(),
                      SecondaryOptions(options))) {
    return Status::DataLoss(std::string(what) +
                            " embedded SBFs inconsistent with header");
  }
  return std::pair(std::move(primary).value(), std::move(secondary).value());
}

Status RecurringMinimumCore::CheckSbfs(const char* what) const {
  if (!SameSbfOptions(primary_.options(), PrimaryOptions(options_)) ||
      !SameSbfOptions(secondary_.options(), SecondaryOptions(options_))) {
    return Status::FailedPrecondition(
        std::string(what) +
        ": embedded SBF options disagree with the options (derived seed "
        "included)");
  }
  Status status = primary_.CheckInvariants();
  if (!status.ok()) return status;
  return secondary_.CheckInvariants();
}

RecurringMinimumSbf::RecurringMinimumSbf(RecurringMinimumOptions options)
    : RecurringMinimumCore(options) {
  if (options.use_marker_filter) {
    marker_.emplace(options.primary_m, options.k,
                    options.seed ^ kMarkerSeedSalt, options.hash_kind);
  }
  SBF_AUDIT_INVARIANTS(*this);
}

RecurringMinimumSbf RecurringMinimumSbf::WithTotalBudget(uint64_t total_m,
                                                         uint32_t k,
                                                         uint64_t seed) {
  RecurringMinimumOptions options;
  // 4:1 split: sweeping the share empirically minimizes the shared-budget
  // error around primary = 80% (the secondary only needs room for the
  // minority of single-minimum items).
  options.primary_m = std::max<uint64_t>(1, total_m * 4 / 5);
  options.secondary_m = std::max<uint64_t>(1, total_m - options.primary_m);
  options.k = k;
  options.seed = seed;
  return RecurringMinimumSbf(options);
}

bool RecurringMinimumSbf::Marked(uint64_t key) const {
  return marker_.has_value() && marker_->Contains(key);
}

void RecurringMinimumSbf::Insert(uint64_t key, uint64_t count) {
  primary_.Insert(key, count);

  // An item already tracked in the secondary keeps receiving every insert
  // there ("we perform insertions both to the primary and secondary SBF",
  // Section 3.3), so its secondary value never lags behind later
  // occurrences. The membership test is the marker filter when enabled,
  // the secondary's own lookup otherwise. A spurious hit of either merely
  // routes extra inserts there, absorbed by the min-clamped lookup, but it
  // also skips the initialization below. Neither variant is free of false
  // negatives under deletions: in a seeded sliding-window run (EXPERIMENTS.md
  // "One Recurring Minimum core") the marker variant had more of them.
  if (Marked(key) || secondary_.Estimate(key) > 0) {
    secondary_.Insert(key, count);
    return;
  }
  // Recurring minimum: no suspected error, the primary alone suffices.
  const KeyMinimum primary = primary_.RecurringMinimum(key);
  if (primary.recurring) return;
  // First move: add the item to the secondary "with an initial value that
  // equals its minimal value from the primary SBF" — a plain SBF insert of
  // weight m_x. The additive form (rather than raising counters to m_x)
  // leaves a concrete deposit on every counter, so later deletions of this
  // item can never dig into co-located items' counts; the cost is only a
  // benign extra overestimate for sharers.
  if (primary.min > 0) secondary_.Insert(key, primary.min);
  ++moved_to_secondary_;
  if (marker_.has_value()) marker_->Add(key);
}

size_t RecurringMinimumSbf::MemoryUsageBits() const {
  size_t bits = primary_.MemoryUsageBits() + secondary_.MemoryUsageBits();
  if (marker_.has_value()) bits += marker_->MemoryUsageBits();
  return bits;
}

Status RecurringMinimumSbf::ExpandTo(uint64_t new_primary_m,
                                     uint64_t new_secondary_m) {
  if (new_primary_m < options_.primary_m ||
      new_primary_m % options_.primary_m != 0 ||
      new_secondary_m < options_.secondary_m ||
      new_secondary_m % options_.secondary_m != 0) {
    return Status::InvalidArgument(
        "RM ExpandTo needs multiples of the current primary/secondary m");
  }
  // Expand copies, then commit all three together: a failure mid-sequence
  // must not leave primary, secondary and marker at inconsistent sizes
  // (Deserialize pins marker.m == primary_m, so a half-expanded filter
  // would serialize to a frame that rejects itself).
  SpectralBloomFilter primary = primary_;
  Status status = primary.ExpandTo(new_primary_m);
  if (!status.ok()) return status;
  SpectralBloomFilter secondary = secondary_;
  status = secondary.ExpandTo(new_secondary_m);
  if (!status.ok()) return status;
  std::optional<BloomFilter> marker = marker_;
  if (marker.has_value()) {
    status = marker->ExpandTo(new_primary_m);
    if (!status.ok()) return status;
  }
  primary_ = std::move(primary);
  secondary_ = std::move(secondary);
  marker_ = std::move(marker);
  options_.primary_m = new_primary_m;
  options_.secondary_m = new_secondary_m;
  SBF_AUDIT_INVARIANTS(*this);
  return Status::Ok();
}

std::vector<uint8_t> RecurringMinimumSbf::Serialize() const {
  SBF_AUDIT_INVARIANTS(*this);
  wire::Writer payload;
  PutLeadingFields(payload);
  payload.PutU8(options_.use_marker_filter ? 1 : 0);
  payload.PutU64(options_.seed);
  payload.PutVarint(moved_to_secondary_);
  PutSbfFrames(payload);
  if (marker_.has_value()) payload.PutFrame(marker_->Serialize());
  return wire::SealFrame(wire::kMagicRecurringMinimum, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<RecurringMinimumSbf> RecurringMinimumSbf::Deserialize(
    wire::ByteSpan bytes) {
  auto reader = wire::OpenFrame(bytes, wire::kMagicRecurringMinimum,
                                wire::kFormatVersion, "RM filter");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  RecurringMinimumOptions options;
  Status status = ReadLeadingFields(in, "RM filter", &options);
  if (!status.ok()) return status;
  const uint8_t use_marker = in.ReadU8();
  options.seed = in.ReadU64();
  const uint64_t moved = in.ReadVarint();
  if (!in.ok()) return in.status();
  if (use_marker > 1) return Status::DataLoss("bad RM filter header");
  options.use_marker_filter = use_marker != 0;

  auto sbfs = ReadSbfFrames(in, "RM", options);
  if (!sbfs.ok()) return sbfs.status();
  RecurringMinimumSbf filter(options, std::move(sbfs).value(), moved);
  if (options.use_marker_filter) {
    const wire::ByteSpan marker_frame = in.ReadFrameSpan();
    if (!in.ok()) return in.status();
    auto loaded = BloomFilter::Deserialize(marker_frame);
    if (!loaded.ok()) return loaded.status();
    const HashFamily& hash = loaded.value().hash();
    if (loaded.value().m() != options.primary_m ||
        hash.k() != options.k ||
        hash.seed() != (options.seed ^ kMarkerSeedSalt) ||
        hash.kind() != options.hash_kind) {
      return Status::DataLoss("RM marker filter inconsistent with header");
    }
    filter.marker_.emplace(std::move(loaded).value());
  }
  status = in.ExpectEnd("RM filter");
  if (!status.ok()) return status;
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}

Status RecurringMinimumSbf::CheckInvariants() const {
  Status status = CheckSbfs("RM");
  if (!status.ok()) return status;
  if (marker_.has_value() != options_.use_marker_filter) {
    return Status::FailedPrecondition(
        "RM: marker filter present iff use_marker_filter");
  }
  // Items only reach the secondary through a move event, so with no moves
  // the secondary must be empty.
  if (moved_to_secondary_ == 0 && secondary_.total_items() != 0) {
    return Status::FailedPrecondition(
        "RM: secondary SBF holds items but no move events were recorded");
  }
  if (!marker_.has_value()) return Status::Ok();
  if (marker_->m() != options_.primary_m || marker_->k() != options_.k ||
      marker_->hash().seed() != (options_.seed ^ kMarkerSeedSalt)) {
    return Status::FailedPrecondition(
        "RM: marker filter parameters disagree with the RM options");
  }
  return marker_->CheckInvariants();
}

}  // namespace sbf
