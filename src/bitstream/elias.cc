#include "bitstream/elias.h"

#include "util/bits.h"
#include "util/check.h"

namespace sbf {

uint32_t EliasGammaLength(uint64_t n) {
  SBF_DCHECK(n >= 1);
  return 2 * FloorLog2(n) + 1;
}

uint32_t EliasDeltaLength(uint64_t n) {
  SBF_DCHECK(n >= 1);
  const uint32_t len = FloorLog2(n) + 1;  // floor(log2 n) + 1
  return EliasGammaLength(len) + (len - 1);
}

}  // namespace sbf
