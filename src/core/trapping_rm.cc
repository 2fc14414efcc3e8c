#include "core/trapping_rm.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/bits.h"
#include "util/check.h"
#include "util/audit.h"

namespace sbf {

TrappingRmSbf::TrappingRmSbf(RecurringMinimumOptions options)
    : options_(options),
      primary_(PrimaryOptions(options)),
      secondary_(SecondaryOptions(options)),
      traps_(options.primary_m) {
  SBF_CHECK_MSG(options.primary_m >= 1 && options.secondary_m >= 1,
                "TRM needs primary_m and secondary_m >= 1");
  SBF_AUDIT_INVARIANTS(*this);
}

void TrappingRmSbf::FireTrapsHitBy(uint64_t key, const uint64_t* positions) {
  for (uint32_t i = 0; i < options_.k; ++i) {
    const uint64_t position = positions[i];
    if (!traps_.GetBit(position)) continue;
    const auto owner = trap_owner_.find(position);
    if (owner == trap_owner_.end() || owner->second == key) continue;

    // A different item stepped on the trap: its frequency contaminated the
    // value the trapped item transferred to the secondary SBF. Compensate
    // by reducing the trapped item's secondary counters by the stepping
    // item's estimated frequency — but never below the trapped item's
    // *current primary minimum*, a certain upper bound on its count: only
    // provable excess is removed, so the compensation can never create a
    // false negative (the paper's literal rule can over-correct when the
    // stepping item grew after the transfer).
    const uint64_t trapped_key = owner->second;
    const uint64_t stepping_estimate = primary_.Estimate(key);
    const uint64_t trapped_primary_min = primary_.Estimate(trapped_key);
    const uint64_t secondary_min = secondary_.Estimate(trapped_key);
    const uint64_t provable_excess = secondary_min > trapped_primary_min
                                         ? secondary_min - trapped_primary_min
                                         : 0;
    const uint64_t reduce = std::min(stepping_estimate, provable_excess);
    if (reduce > 0) {
      uint64_t secondary_positions[HashFamily::kMaxK];
      secondary_.Positions(trapped_key, secondary_positions);
      for (uint32_t j = 0; j < options_.k; ++j) {
        // Clamp per position: duplicate hash positions would otherwise be
        // decremented twice.
        const uint64_t current =
            secondary_.counters().Get(secondary_positions[j]);
        const uint64_t delta = std::min(current, reduce);
        if (delta > 0) {
          secondary_.mutable_counters().Decrement(secondary_positions[j],
                                                  delta);
        }
      }
    }
    traps_.SetBit(position, false);
    trap_owner_.erase(owner);
    ++traps_fired_;
  }
}

void TrappingRmSbf::MoveToSecondary(uint64_t key,
                                    const uint64_t* primary_positions) {
  const uint64_t primary_min = primary_.Estimate(key);
  uint64_t secondary_positions[HashFamily::kMaxK];
  secondary_.Positions(key, secondary_positions);
  for (uint32_t i = 0; i < options_.k; ++i) {
    const uint64_t value = secondary_.counters().Get(secondary_positions[i]);
    if (value < primary_min) {
      secondary_.mutable_counters().Set(secondary_positions[i], primary_min);
    }
  }
  secondary_.set_total_items(secondary_.total_items() + primary_min);

  // Arm the trap on the single minimal primary counter.
  uint64_t min_value = ~0ull;
  uint64_t min_position = primary_positions[0];
  for (uint32_t i = 0; i < options_.k; ++i) {
    const uint64_t value = primary_.counters().Get(primary_positions[i]);
    if (value < min_value) {
      min_value = value;
      min_position = primary_positions[i];
    }
  }
  traps_.SetBit(min_position, true);
  trap_owner_[min_position] = key;
}

void TrappingRmSbf::Insert(uint64_t key, uint64_t count) {
  uint64_t positions[HashFamily::kMaxK];
  primary_.Positions(key, positions);
  primary_.Insert(key, count);
  FireTrapsHitBy(key, positions);
  // Tracked items receive every insert in the secondary as well (see
  // RecurringMinimumSbf::Insert).
  if (secondary_.Estimate(key) > 0) {
    secondary_.Insert(key, count);
    return;
  }
  if (primary_.HasRecurringMinimum(key)) return;
  MoveToSecondary(key, positions);
}

void TrappingRmSbf::Remove(uint64_t key, uint64_t count) {
  primary_.Remove(key, count);
  // See RecurringMinimumSbf::Remove.
  if (SecondaryCanAbsorb(secondary_, key, count)) secondary_.Remove(key, count);
}

uint64_t TrappingRmSbf::Estimate(uint64_t key) const {
  const uint64_t primary_min = primary_.Estimate(key);
  if (primary_.HasRecurringMinimum(key)) return primary_min;
  const uint64_t secondary_estimate = secondary_.Estimate(key);
  if (secondary_estimate > 0) {
    return std::min(primary_min, secondary_estimate);
  }
  return primary_min;
}

size_t TrappingRmSbf::MemoryUsageBits() const {
  // Traps are one bit per primary counter; the owner table L costs two
  // 64-bit words per armed trap.
  return primary_.MemoryUsageBits() + secondary_.MemoryUsageBits() +
         traps_.capacity_bits() + trap_owner_.size() * 128;
}

std::vector<uint8_t> TrappingRmSbf::Serialize() const {
  SBF_AUDIT_INVARIANTS(*this);
  wire::Writer payload;
  payload.PutVarint(options_.primary_m);
  payload.PutVarint(options_.secondary_m);
  payload.PutVarint(options_.k);
  payload.PutU8(static_cast<uint8_t>(options_.backing));
  payload.PutU8(options_.hash_kind == HashFamily::Kind::kModuloMultiply ? 0
                                                                        : 1);
  payload.PutU64(options_.seed);
  payload.PutVarint(traps_fired_);
  payload.PutFrame(primary_.Serialize());
  payload.PutFrame(secondary_.Serialize());
  payload.PutWords(traps_.words(), traps_.size_words());
  // The owner table is an unordered map in memory; sorting by position
  // makes the wire bytes canonical (re-serialization is byte-identical).
  std::vector<std::pair<uint64_t, uint64_t>> owners(trap_owner_.begin(),
                                                    trap_owner_.end());
  std::sort(owners.begin(), owners.end());
  payload.PutVarint(owners.size());
  for (const auto& [position, item] : owners) {
    payload.PutVarint(position);
    payload.PutU64(item);
  }
  return wire::SealFrame(wire::kMagicTrappingRm, wire::kFormatVersion,
                         std::move(payload));
}

StatusOr<TrappingRmSbf> TrappingRmSbf::Deserialize(wire::ByteSpan bytes) {
  auto reader = wire::OpenFrame(bytes, wire::kMagicTrappingRm,
                                wire::kFormatVersion, "TRM filter");
  if (!reader.ok()) return reader.status();
  wire::Reader& in = reader.value();
  RecurringMinimumOptions options;
  options.primary_m = in.ReadVarint();
  options.secondary_m = in.ReadVarint();
  const uint64_t k = in.ReadVarint();
  const uint8_t backing = in.ReadU8();
  const uint8_t kind = in.ReadU8();
  options.seed = in.ReadU64();
  const uint64_t traps_fired = in.ReadVarint();
  if (!in.ok()) return in.status();
  if (options.primary_m < 1 || options.secondary_m < 1 || k < 1 ||
      k > HashFamily::kMaxK ||
      backing > static_cast<uint8_t>(CounterBacking::kSticky4) ||
      kind > 1) {
    return Status::DataLoss("bad TRM filter header");
  }
  options.k = static_cast<uint32_t>(k);
  options.backing = static_cast<CounterBacking>(backing);
  options.hash_kind = kind == 0 ? HashFamily::Kind::kModuloMultiply
                                : HashFamily::Kind::kDoubleMix;

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
    return Status::DataLoss("TRM embedded SBFs inconsistent with header");
  }

  // primary_m is validated against the (self-bounded) embedded primary
  // frame above, so the trap allocations below are bounded by the message.
  const uint64_t trap_words = CeilDiv(options.primary_m, 64);
  if (trap_words * 8 > in.remaining()) {
    return Status::DataLoss("TRM trap bits truncated");
  }
  TrappingRmSbf filter(options);
  filter.primary_ = std::move(primary).value();
  filter.secondary_ = std::move(secondary).value();
  filter.traps_fired_ = traps_fired;
  in.ReadWords(filter.traps_.mutable_words(),
               static_cast<size_t>(trap_words));
  if (!in.ok()) return in.status();
  if (options.primary_m % 64 != 0 &&
      (filter.traps_.words()[trap_words - 1] >> (options.primary_m % 64)) !=
          0) {
    return Status::DataLoss("TRM trap bits have set padding");
  }

  const uint64_t owner_count = in.ReadVarint();
  if (!in.ok()) return in.status();
  uint64_t previous = 0;
  for (uint64_t i = 0; i < owner_count; ++i) {
    const uint64_t position = in.ReadVarint();
    const uint64_t item = in.ReadU64();
    if (!in.ok()) return in.status();
    // Strictly increasing positions keep the encoding canonical and make
    // duplicates impossible; every owner must sit on an armed trap.
    if (position >= options.primary_m || (i > 0 && position <= previous)) {
      return Status::DataLoss("TRM owner table corrupt");
    }
    if (!filter.traps_.GetBit(position)) {
      return Status::DataLoss("TRM owner entry without an armed trap");
    }
    filter.trap_owner_.emplace(position, item);
    previous = position;
  }
  // Armed traps and owner entries are created and cleared together, so a
  // valid message has exactly one owner per set trap bit.
  if (filter.traps_.PopCount() != owner_count) {
    return Status::DataLoss("TRM trap bits disagree with owner table");
  }
  Status status = in.ExpectEnd("TRM filter");
  if (!status.ok()) return status;
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}


Status TrappingRmSbf::CheckInvariants() const {
  if (options_.primary_m < 1 || options_.secondary_m < 1) {
    return Status::FailedPrecondition("TRM: primary_m/secondary_m < 1");
  }
  if (!SameSbfOptions(primary_.options(), PrimaryOptions(options_)) ||
      !SameSbfOptions(secondary_.options(), SecondaryOptions(options_))) {
    return Status::FailedPrecondition(
        "TRM: embedded SBF options disagree with the TRM options");
  }
  if (traps_.size_bits() != options_.primary_m) {
    return Status::FailedPrecondition(
        "TRM: trap bit vector size disagrees with primary m");
  }
  // The owner table and the trap bits are two views of the same set: one
  // owner entry per armed trap, every entry on an armed in-range position.
  if (traps_.PopCount() != trap_owner_.size()) {
    return Status::FailedPrecondition(
        "TRM: armed trap count disagrees with the owner table size");
  }
  for (const auto& [position, owner] : trap_owner_) {
    (void)owner;
    if (position >= options_.primary_m) {
      return Status::FailedPrecondition(
          "TRM: trap owner entry on an out-of-range position");
    }
    if (!traps_.GetBit(position)) {
      return Status::FailedPrecondition(
          "TRM: trap owner entry on a disarmed trap");
    }
  }
  Status status = primary_.CheckInvariants();
  if (!status.ok()) return status;
  return secondary_.CheckInvariants();
}

}  // namespace sbf
