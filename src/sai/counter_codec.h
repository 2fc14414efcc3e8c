#ifndef SBF_SAI_COUNTER_CODEC_H_
#define SBF_SAI_COUNTER_CODEC_H_

#include <cstdint>
#include <span>

#include "io/wire.h"
#include "sai/counter_vector.h"

namespace sbf {

// Shared value-stream codec for the compact counter backings' wire frames:
// each counter value v is Elias-delta coded as code(v + 1) (delta cannot
// encode zero; v = 2^64 - 1 takes the 65-bit code of 2^64, gamma(65) and
// 64 zero bits), the bit stream is padded to whole 64-bit words, and the
// wire carries {varint bit_count, words}. This is the paper's "filters are
// compressed messages" representation (Section 4.7.1): a mostly-zero
// counter vector costs about one bit per counter.

// Appends the stream of all `cv` counters to `out`.
void WriteCounterStream(const CounterVector& cv, wire::Writer* out);

// Decodes exactly values.size() counters from `in` into `values`. Rejects
// malformed codewords, truncated streams and trailing garbage with a clean
// DataLoss status. `what` names the enclosing structure in error messages.
Status ReadCounterStream(wire::Reader* in, std::span<uint64_t> values,
                         const char* what);

}  // namespace sbf

#endif  // SBF_SAI_COUNTER_CODEC_H_
