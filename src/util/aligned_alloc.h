#ifndef SBF_UTIL_ALIGNED_ALLOC_H_
#define SBF_UTIL_ALIGNED_ALLOC_H_

#include <cstddef>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace sbf {

// Transparent huge page size on x86-64 and arm64 Linux.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;
// Smallest request that takes the huge-page branch: four huge pages. From
// there up, rounding adds at most a quarter to a request (below, it could
// double one), and a smaller array is close to what the 4 KiB-page STLB
// already covers, so there are few page walks to save.
inline constexpr size_t kHugePageMinBytes = 4 * kHugePageBytes;

// Minimal std::allocator replacement with a fixed over-alignment, and the
// only allocator under BitVector (so under every counter backing). It has
// one size rule:
//
//  - Requests below kHugePageMinBytes come from operator new at
//    `Alignment` (64 bytes for BitVector), so a blocked filter's 512-bit
//    block is always a single cache line and the SIMD block kernels may
//    use aligned loads on block bases.
//  - Larger requests are rounded up to whole 2 MiB pages, 2 MiB aligned,
//    and advised MADV_HUGEPAGE. A DRAM-sized counter array then maps
//    through huge pages, and each of a key's k random probes stops paying
//    a 4 KiB-page walk on top of its cache miss. The advice is only
//    advice: where MADV_HUGEPAGE is not defined, or the host's THP mode is
//    `never`, the memory and every result are the same.
//
// deallocate() takes the same branch, chosen from the same `n`.
template <typename T, size_t Alignment>
class AlignedAllocator {
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two covering alignof(T)");
  static_assert(Alignment <= kHugePageBytes,
                "the huge-page branch must keep the requested alignment");

 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageMinBytes) {
      return static_cast<T*>(
          ::operator new(bytes, std::align_val_t{Alignment}));
    }
    const size_t rounded = HugeRounded(bytes);
    void* p = ::operator new(rounded, std::align_val_t{kHugePageBytes});
#ifdef MADV_HUGEPAGE
    // Failure leaves ordinary pages behind, which is still correct.
    (void)::madvise(p, rounded, MADV_HUGEPAGE);
#endif
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) noexcept {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageMinBytes) {
      ::operator delete(p, bytes, std::align_val_t{Alignment});
    } else {
      ::operator delete(p, HugeRounded(bytes),
                        std::align_val_t{kHugePageBytes});
    }
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }

 private:
  static size_t HugeRounded(size_t bytes) noexcept {
    return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  }
};

// Cache-line granularity used across the blocked hot paths.
inline constexpr size_t kCacheLineBytes = 64;

}  // namespace sbf

#endif  // SBF_UTIL_ALIGNED_ALLOC_H_
