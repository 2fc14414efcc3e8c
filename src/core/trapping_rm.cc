#include "core/trapping_rm.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/batch_kernels.h"
#include "util/bits.h"
#include "util/audit.h"

namespace sbf {

TrappingRmSbf::TrappingRmSbf(RecurringMinimumOptions options)
    : RecurringMinimumCore(options), traps_(options.primary_m) {
  SBF_AUDIT_INVARIANTS(*this);
}

TrappingRmSbf::TrappingRmSbf(
    RecurringMinimumOptions options,
    std::pair<SpectralBloomFilter, SpectralBloomFilter> sbfs)
    : RecurringMinimumCore(options, std::move(sbfs)),
      traps_(options.primary_m) {}

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
      VisitBacking(options_.backing, secondary_.mutable_counters(),
                   [&](auto& cv) {
                     for (uint32_t j = 0; j < options_.k; ++j) {
                       // Clamp per position: duplicate hash positions
                       // would otherwise be decremented twice.
                       const uint64_t at = secondary_positions[j];
                       const uint64_t delta = std::min(cv.Get(at), reduce);
                       if (delta > 0) cv.Decrement(at, delta);
                     }
                   });
    }
    traps_.SetBit(position, false);
    trap_owner_.erase(owner);
    ++traps_fired_;
  }
}

void TrappingRmSbf::MoveToSecondary(uint64_t key,
                                    const uint64_t* primary_positions,
                                    uint64_t primary_min) {
  uint64_t secondary_positions[HashFamily::kMaxK];
  secondary_.Positions(key, secondary_positions);
  VisitBacking(options_.backing, secondary_.mutable_counters(),
               [&](auto& cv) {
                 for (uint32_t i = 0; i < options_.k; ++i) {
                   const uint64_t at = secondary_positions[i];
                   if (cv.Get(at) < primary_min) cv.Set(at, primary_min);
                 }
               });
  secondary_.set_total_items(secondary_.total_items() + primary_min);

  // Arm the trap on the single minimal primary counter.
  uint64_t min_position = primary_positions[0];
  VisitBacking(options_.backing, primary_.counters(), [&](const auto& cv) {
    for (uint32_t i = 0; i < options_.k; ++i) {
      if (cv.Get(primary_positions[i]) == primary_min) {
        min_position = primary_positions[i];
        break;
      }
    }
  });
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
  const KeyMinimum primary = primary_.RecurringMinimum(key);
  if (primary.recurring) return;
  MoveToSecondary(key, positions, primary.min);
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
  PutLeadingFields(payload);
  payload.PutU64(options_.seed);
  payload.PutVarint(traps_fired_);
  PutSbfFrames(payload);
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
  Status status = ReadLeadingFields(in, "TRM filter", &options);
  if (!status.ok()) return status;
  options.seed = in.ReadU64();
  const uint64_t traps_fired = in.ReadVarint();
  if (!in.ok()) return in.status();
  auto sbfs = ReadSbfFrames(in, "TRM", options);
  if (!sbfs.ok()) return sbfs.status();

  // primary_m is validated against the (self-bounded) embedded primary
  // frame above, so the trap allocations below are bounded by the message.
  const uint64_t trap_words = CeilDiv(options.primary_m, 64);
  if (trap_words * 8 > in.remaining()) {
    return Status::DataLoss("TRM trap bits truncated");
  }
  TrappingRmSbf filter(options, std::move(sbfs).value());
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
  status = in.ExpectEnd("TRM filter");
  if (!status.ok()) return status;
  SBF_AUDIT_INVARIANTS(filter);
  return filter;
}


Status TrappingRmSbf::CheckInvariants() const {
  Status status = CheckSbfs("TRM");
  if (!status.ok()) return status;
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
  return Status::Ok();
}

}  // namespace sbf
