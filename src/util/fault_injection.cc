#include "util/fault_injection.h"

#ifdef SBF_FAULT_INJECTION

#include <algorithm>
#include <atomic>
#include <mutex>

#include "util/random.h"

namespace sbf {
namespace fault {
namespace {

// One process-wide injector guarded by a mutex: fault injection runs in
// test builds where determinism matters more than hot-path cost, and the
// lock makes concurrent scenarios (ExpandTo under writers) well-defined.
struct Injector {
  std::mutex mu;

  bool alloc_armed = false;
  uint64_t alloc_countdown = 0;
  uint64_t alloc_every_n = 0;

  WireFault wire_kind = WireFault::kNone;
  uint64_t wire_rng = 0;

  bool flips_armed = false;
  uint64_t flip_rng = 0;
  uint64_t flip_every_n = 0;
  uint64_t flip_tick = 0;

  FileFault file_kind = FileFault::kNone;
  uint64_t file_countdown = 0;
  uint64_t file_rng = 0;

  std::atomic<uint64_t> injected_allocs{0};
  std::atomic<uint64_t> injected_wire{0};
  std::atomic<uint64_t> injected_flips{0};
  std::atomic<uint64_t> injected_file{0};
};

Injector& Global() {
  static Injector* injector = new Injector;
  return *injector;
}

// Countdown-fire-disarm for the armed file fault of `kind`. Caller holds
// g.mu.
bool FileFaultFires(Injector& g, FileFault kind) {
  if (g.file_kind != kind) return false;
  if (g.file_countdown > 1) {
    --g.file_countdown;
    return false;
  }
  g.file_kind = FileFault::kNone;
  g.file_countdown = 0;
  g.injected_file.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

void ArmAllocationFailure(uint64_t countdown, uint64_t every_n) {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.alloc_armed = true;
  g.alloc_countdown = countdown;
  g.alloc_every_n = every_n;
}

void ArmWireFault(WireFault kind, uint64_t seed) {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.wire_kind = kind;
  g.wire_rng = seed ^ 0xFA017370ull;
}

void ArmCounterFlips(uint64_t seed, uint64_t every_n) {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.flips_armed = every_n > 0;
  g.flip_rng = seed ^ 0xB17F11Bull;
  g.flip_every_n = every_n;
  g.flip_tick = 0;
}

void ArmFileFault(FileFault kind, uint64_t countdown, uint64_t seed) {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.file_kind = kind;
  g.file_countdown = countdown == 0 ? 1 : countdown;
  g.file_rng = seed ^ 0xD0C70F5ull;
}

void Reset() {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  g.alloc_armed = false;
  g.alloc_countdown = 0;
  g.alloc_every_n = 0;
  g.wire_kind = WireFault::kNone;
  g.flips_armed = false;
  g.flip_every_n = 0;
  g.flip_tick = 0;
  g.file_kind = FileFault::kNone;
  g.file_countdown = 0;
  g.injected_allocs.store(0, std::memory_order_relaxed);
  g.injected_wire.store(0, std::memory_order_relaxed);
  g.injected_flips.store(0, std::memory_order_relaxed);
  g.injected_file.store(0, std::memory_order_relaxed);
}

bool ShouldFailAllocation() {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  if (!g.alloc_armed) return false;
  if (g.alloc_countdown > 1) {
    --g.alloc_countdown;
    return false;
  }
  // Countdown hit: fail this allocation, then re-arm or disarm.
  if (g.alloc_every_n > 0) {
    g.alloc_countdown = g.alloc_every_n;
  } else {
    g.alloc_armed = false;
  }
  g.injected_allocs.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool MutateSealedFrame(std::vector<uint8_t>* frame) {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.wire_kind == WireFault::kNone || frame->empty()) return false;
  const uint64_t r = SplitMix64(g.wire_rng);
  switch (g.wire_kind) {
    case WireFault::kNone:
      return false;
    case WireFault::kTruncate:
      // Keep at least one byte gone; a zero-length frame is a separate
      // (already-tested) reader case.
      frame->resize(r % frame->size());
      break;
    case WireFault::kBitFlip:
      (*frame)[(r >> 8) % frame->size()] ^=
          static_cast<uint8_t>(1u << (r & 7));
      break;
    case WireFault::kTornTail: {
      // Short write: a tail slice of up to one sector never hit storage.
      // Unlike kTruncate the header always survives, so readers see a
      // well-formed envelope whose payload stops early — exactly the shape
      // a torn append leaves in a WAL.
      const size_t cuttable = frame->size() > 20 ? frame->size() - 20 : 0;
      if (cuttable == 0) return false;
      const size_t cut = 1 + r % std::min<size_t>(cuttable, 512);
      frame->resize(frame->size() - cut);
      break;
    }
  }
  g.injected_wire.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool WireFaultArmed() {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.wire_kind != WireFault::kNone;
}

bool NextCounterFlip(size_t size, size_t* index, uint32_t* bit) {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  if (!g.flips_armed || size == 0) return false;
  if (++g.flip_tick % g.flip_every_n != 0) return false;
  const uint64_t r = SplitMix64(g.flip_rng);
  *index = static_cast<size_t>(r % size);
  *bit = static_cast<uint32_t>((r >> 32) % 64);
  g.injected_flips.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShouldShortWrite(size_t intended, size_t* actual) {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  if (intended < 2) return false;  // a 0/1-byte write cannot tear
  if (!FileFaultFires(g, FileFault::kShortWrite)) return false;
  // Persist a strict non-empty prefix: at least 1 byte lands, at least 1
  // byte is lost.
  const uint64_t r = SplitMix64(g.file_rng);
  *actual = 1 + static_cast<size_t>(r % (intended - 1));
  return true;
}

bool ShouldFailBeforeRename() {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  return FileFaultFires(g, FileFault::kFailBeforeRename);
}

bool ShouldFailAfterRename() {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  return FileFaultFires(g, FileFault::kFailAfterRename);
}

bool ShouldFailFsync() {
  Injector& g = Global();
  std::lock_guard<std::mutex> lock(g.mu);
  return FileFaultFires(g, FileFault::kFsyncFail);
}

uint64_t InjectedAllocationFailures() {
  return Global().injected_allocs.load(std::memory_order_relaxed);
}

uint64_t InjectedWireFaults() {
  return Global().injected_wire.load(std::memory_order_relaxed);
}

uint64_t InjectedCounterFlips() {
  return Global().injected_flips.load(std::memory_order_relaxed);
}

uint64_t InjectedFileFaults() {
  return Global().injected_file.load(std::memory_order_relaxed);
}

}  // namespace fault
}  // namespace sbf

#endif  // SBF_FAULT_INJECTION
