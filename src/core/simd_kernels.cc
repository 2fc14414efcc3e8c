#include "core/simd_kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sbf::simd {
namespace {

// TSan does not instrument vector loads/stores: letting an intrinsic
// kernel run under it would hide exactly the races the tsan CI legs
// exist to catch, so sanitized builds pin the scalar reference.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

const BlockKernels* TableFor(Isa isa) noexcept {
  switch (isa) {
    case Isa::kDisabled:
      return internal::DisabledKernelTable();
    case Isa::kGeneric:
      return internal::GenericKernelTable();
    case Isa::kAvx2:
      return internal::Avx2KernelTable();
  }
  return nullptr;
}

bool CpuSupports(Isa isa) noexcept {
  if (isa == Isa::kDisabled || isa == Isa::kGeneric) return true;
  if (kTsan) return false;
  if (TableFor(isa) == nullptr) return false;  // compiled out of this build
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return isa == Isa::kAvx2 && __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Detection order for the initial resolve: programmatic ForceIsa() calls
// come later and always win; here the env override is consulted first,
// then the best supported tier.
const BlockKernels* Resolve() noexcept {
  const char* force = std::getenv("SBF_FORCE_ISA");
  if (force != nullptr) {
    Isa wanted = Isa::kGeneric;
    bool recognized = true;
    if (std::strcmp(force, "off") == 0 ||
        std::strcmp(force, "disabled") == 0) {
      wanted = Isa::kDisabled;
    } else if (std::strcmp(force, "generic") == 0) {
      wanted = Isa::kGeneric;
    } else if (std::strcmp(force, "avx2") == 0) {
      wanted = Isa::kAvx2;
    } else {
      recognized = false;  // unknown value: fall through to detection
    }
    if (recognized) {
      return TableFor(CpuSupports(wanted) ? wanted : BestSupportedIsa());
    }
  }
  return TableFor(BestSupportedIsa());
}

std::atomic<const BlockKernels*> g_active{nullptr};

}  // namespace

Isa BestSupportedIsa() noexcept {
  if (CpuSupports(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kGeneric;
}

bool IsaSupported(Isa isa) noexcept { return CpuSupports(isa); }

const BlockKernels& Active() noexcept {
  const BlockKernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Resolve();
    // Another thread may resolve concurrently; both arrive at the same
    // table, so either store winning is fine.
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

void ForceIsa(Isa isa) noexcept {
  const Isa effective = CpuSupports(isa) ? isa : BestSupportedIsa();
  g_active.store(TableFor(effective), std::memory_order_release);
}

const char* IsaName(Isa isa) noexcept {
  switch (isa) {
    case Isa::kDisabled:
      return "disabled";
    case Isa::kGeneric:
      return "generic";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace sbf::simd
