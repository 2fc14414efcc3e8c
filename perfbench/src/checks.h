#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks. Every estimate a timed call returned is compared with the
// exact count the benchmark keeps for that key at that point of the stream;
// recovered stores must answer exactly as they did before close. Failures
// feed `failed` and so ok_ops_ratio.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "util/metrics.h"

namespace perfbench {

struct CheckResult {
  uint64_t failed = 0;
  std::vector<std::string> notes;  // the first few failures, for stderr

  void Fail(uint64_t ops, const std::string& why) {
    failed += ops;
    if (notes.size() < 8) notes.push_back(why);
  }
};

// Replays the stream's inserts and removes on `truth` (exact counts by
// rank) and checks every estimate in `est`, which holds the estimate
// steps' outputs in stream order: an estimate below the exact count breaks
// the one-sided guarantee (Minimum Selection always; Minimal Increase on
// insert-only streams) and fails that op. Every estimate is also recorded
// into `errors` when given (the paper's section 6.1 E_ratio and E_add).
// With `est` null only the exact counts advance.
inline void CheckEstimates(const Stream& stream, const uint64_t* est,
                           std::vector<uint32_t>* truth,
                           sbf::ErrorStats* errors, CheckResult* result) {
  std::vector<uint32_t>& counts = *truth;
  for (const Step& step : stream.steps) {
    const uint32_t* ranks = stream.ranks.data() + step.begin;
    switch (step.op) {
      case Op::kInsert:
        for (uint32_t i = 0; i < step.n; ++i) ++counts[ranks[i]];
        break;
      case Op::kRemove:
        for (uint32_t i = 0; i < step.n; ++i) --counts[ranks[i]];
        break;
      case Op::kEstimate:
        for (uint32_t i = 0; est != nullptr && i < step.n; ++i) {
          const uint64_t exact = counts[ranks[i]];
          if (errors != nullptr) errors->Record(*est, exact);
          if (*est < exact) {
            result->Fail(1, "estimate " + std::to_string(*est) +
                                " below exact count " + std::to_string(exact) +
                                " for rank " + std::to_string(ranks[i]));
          }
          ++est;
        }
        break;
      case Op::kCheckpoint:
      case Op::kFlush:
        break;
    }
  }
}

// Compares the estimates a store gave before close with those it gives
// after recovery; every key that differs is a failed op.
inline void CheckRecovered(const std::vector<uint64_t>& before,
                           const std::vector<uint64_t>& after,
                           CheckResult* result) {
  if (before.size() != after.size()) {
    result->Fail(before.size(), "recovered key count differs");
    return;
  }
  uint64_t differing = 0;
  for (size_t i = 0; i < before.size(); ++i) differing += before[i] != after[i];
  if (differing > 0) {
    result->Fail(differing, std::to_string(differing) +
                                " keys estimate differently after recovery");
  }
}

// One row of the layer-peel ledger: a layer's self cost, which is a
// level's measured cost minus that of the levels below it, and the
// replay-to-replay noise of those levels summed.
struct LedgerRow {
  std::string layer;
  double self_ns = 0.0;
  double noise_ns = 0.0;
};

// A row above its noise is resolved; one within it is unresolved, i.e. the
// run cannot tell the layer's cost from zero; one below minus its noise is
// inconsistent: a layer cannot cost less than nothing, so the peeled
// levels do not nest.
enum class Verdict { kResolved, kUnresolved, kInconsistent };

inline Verdict Judge(const LedgerRow& row) {
  if (row.self_ns < -row.noise_ns) return Verdict::kInconsistent;
  if (row.self_ns <= row.noise_ns) return Verdict::kUnresolved;
  return Verdict::kResolved;
}

inline const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kResolved: return "resolved";
    case Verdict::kUnresolved: return "unresolved";
    case Verdict::kInconsistent: return "inconsistent";
  }
  return "?";
}

// Fails one op per inconsistent row.
inline void CheckLedger(const std::vector<LedgerRow>& rows,
                        CheckResult* result) {
  for (const LedgerRow& row : rows) {
    if (Judge(row) == Verdict::kInconsistent) {
      result->Fail(1, "ledger row " + row.layer + " costs " +
                          std::to_string(row.self_ns) +
                          " ns, below minus its noise of " +
                          std::to_string(row.noise_ns) + " ns");
    }
  }
}

// Feeds every check a planted fault (an estimate one below the exact
// count; a recovered state with one key changed; a ledger row further
// below zero than its noise) and confirms each is counted as exactly one
// failure, while the unchanged inputs pass.
inline bool SelfTest() {
  Stream stream;
  const uint32_t ranks[3] = {1, 1, 2};
  stream.Add(Op::kInsert, ranks, 3, /*salt=*/7);
  stream.Add(Op::kEstimate, ranks, 3, /*salt=*/7);

  const uint64_t right[3] = {2, 2, 1};
  const uint64_t wrong[3] = {2, 1, 1};
  auto failures = [&](const uint64_t* est) {
    std::vector<uint32_t> truth(3, 0);
    sbf::ErrorStats errors;
    CheckResult result;
    CheckEstimates(stream, est, &truth, &errors, &result);
    return result.failed;
  };
  if (failures(right) != 0 || failures(wrong) != 1) return false;

  const std::vector<uint64_t> before = {5, 6, 7};
  std::vector<uint64_t> after = before;
  CheckResult same, changed;
  CheckRecovered(before, after, &same);
  after[2] = 8;
  CheckRecovered(before, after, &changed);
  if (same.failed != 0 || changed.failed != 1) return false;

  std::vector<LedgerRow> rows = {{"resolved", 500.0, 100.0},
                                 {"within noise", -80.0, 100.0}};
  CheckResult consistent, planted;
  CheckLedger(rows, &consistent);
  rows.push_back({"below its noise", -150.0, 100.0});
  CheckLedger(rows, &planted);
  return consistent.failed == 0 && planted.failed == 1;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
