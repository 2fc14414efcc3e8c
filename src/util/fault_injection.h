#ifndef SBF_UTIL_FAULT_INJECTION_H_
#define SBF_UTIL_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

// Deterministic fault-injection hooks, compiled in only under
// -DSBF_FAULT_INJECTION (the SBF_FAULT_INJECTION CMake option). Production
// builds compile every hook to a constant-false no-op, so the hot paths
// carry zero cost.
//
// The injector is a process-wide, seeded state machine: tests Arm* a fault
// schedule, run the scenario, and assert that every induced failure
// surfaced as a clean Status with the filter still queryable. The same
// seed always yields the same fault sequence, so failures replay exactly.
//
// Four fault classes:
//  * allocation   — fault::ShouldFailAllocation() fires at guarded
//                   allocation sites (expansion, deserialization); callers
//                   return Status::ResourceExhausted instead of allocating.
//  * wire         — fault::MutateSealedFrame() truncates, bit-flips or
//                   tears a frame as wire::SealFrame hands it out,
//                   modelling torn writes and storage corruption
//                   mid-Serialize.
//  * counter      — fault::NextCounterFlip() picks a (counter, bit) to
//                   flip; frontends apply it with Get/Set, modelling soft
//                   memory errors in the counter array.
//  * file I/O     — fault::ShouldShortWrite() / ShouldFailBeforeRename() /
//                   ShouldFailAfterRename() / ShouldFailFsync() fire at
//                   the durable store's crash points (io/durable_store),
//                   so every recovery path — torn WAL tail, orphaned
//                   checkpoint temp file, checkpoint without a rotated
//                   log, failed fsync — is deterministically reachable.
//
// The layer is numeric-only (indices, bytes) so util stays at the bottom
// of the dependency stack; sai/core/io decide what a fault means locally.

namespace sbf {
namespace fault {

enum class WireFault {
  kNone = 0,
  kTruncate = 1,  // drop trailing bytes from the sealed frame
  kBitFlip = 2,   // flip one bit somewhere in the sealed frame
  kTornTail = 3,  // short write: shave 1..512 bytes off the frame's tail,
                  // always leaving the header intact (a partially-synced
                  // sector, as opposed to kTruncate's arbitrary cut)
};

// File-I/O crash points, armed one at a time with a countdown: the
// `countdown`-th matching operation faults once, then the injector
// disarms. "Fail" means the caller must behave as if the process died at
// that point — abort the protocol step and surface a Status.
enum class FileFault {
  kNone = 0,
  kShortWrite = 1,        // a write persists only a prefix of its bytes
  kFailBeforeRename = 2,  // crash after the temp file, before rename
  kFailAfterRename = 3,   // crash after rename, before the log rotates
  kFsyncFail = 4,         // fsync reports failure (device error)
};

#ifdef SBF_FAULT_INJECTION

// Arms allocation-site failures: the next `countdown`-th guarded
// allocation fails, and every `every_n`-th after it (0 = only once).
void ArmAllocationFailure(uint64_t countdown, uint64_t every_n = 0);

// Arms wire-frame mutations with a deterministic byte/bit schedule.
void ArmWireFault(WireFault kind, uint64_t seed);

// Arms counter bit-flips: every `every_n`-th eligible update picks a
// deterministic (counter, bit) pair from `seed`.
void ArmCounterFlips(uint64_t seed, uint64_t every_n);

// Arms one file-I/O crash point: the `countdown`-th operation matching
// `kind` faults once, then the injector disarms (a crash happens at one
// point; re-arm for the next scenario). `seed` drives the short-write cut.
void ArmFileFault(FileFault kind, uint64_t countdown, uint64_t seed = 0);

// Disarms everything and zeroes the injected-fault tallies.
void Reset();

// True when the armed allocation schedule says this allocation fails.
bool ShouldFailAllocation();

// Applies the armed wire fault to `frame` in place. Returns true when the
// frame was mutated.
bool MutateSealedFrame(std::vector<uint8_t>* frame);
// True while a wire fault is armed: writers that seal frames on several
// threads seal them on one instead, so the draws keep their order.
bool WireFaultArmed();

// Deterministically picks a counter index in [0, size) and a bit in
// [0, 64) to flip. Returns true when an armed flip fired.
bool NextCounterFlip(size_t size, size_t* index, uint32_t* bit);

// True when an armed kShortWrite fires for a write of `intended` bytes:
// the caller must persist only `*actual` bytes (a strict, non-empty
// prefix) and then fail the operation as if the process died mid-write.
bool ShouldShortWrite(size_t intended, size_t* actual);

// True when the armed crash point of the matching kind fires; the caller
// aborts the protocol step at exactly that point.
bool ShouldFailBeforeRename();
bool ShouldFailAfterRename();
bool ShouldFailFsync();

// Tallies of faults actually injected since the last Reset().
uint64_t InjectedAllocationFailures();
uint64_t InjectedWireFaults();
uint64_t InjectedCounterFlips();
uint64_t InjectedFileFaults();

#else  // !SBF_FAULT_INJECTION

inline void ArmAllocationFailure(uint64_t, uint64_t = 0) {}
inline void ArmWireFault(WireFault, uint64_t) {}
inline void ArmCounterFlips(uint64_t, uint64_t) {}
inline void ArmFileFault(FileFault, uint64_t, uint64_t = 0) {}
inline void Reset() {}
inline bool ShouldFailAllocation() { return false; }
inline bool MutateSealedFrame(std::vector<uint8_t>*) { return false; }
inline bool WireFaultArmed() { return false; }
inline bool NextCounterFlip(size_t, size_t*, uint32_t*) { return false; }
inline bool ShouldShortWrite(size_t, size_t*) { return false; }
inline bool ShouldFailBeforeRename() { return false; }
inline bool ShouldFailAfterRename() { return false; }
inline bool ShouldFailFsync() { return false; }
inline uint64_t InjectedAllocationFailures() { return 0; }
inline uint64_t InjectedWireFaults() { return 0; }
inline uint64_t InjectedCounterFlips() { return 0; }
inline uint64_t InjectedFileFaults() { return 0; }

#endif  // SBF_FAULT_INJECTION

}  // namespace fault
}  // namespace sbf

#endif  // SBF_UTIL_FAULT_INJECTION_H_
