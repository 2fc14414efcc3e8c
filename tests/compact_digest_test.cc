// Digest and differential suites for the dynamic compact counter storage
// (CompactCounterVector, Section 4.4).
//
// The digest rows pin FNV-1a-64 of Serialize() and of DecodeBlock(0, m)
// after seeded Set/Increment/Decrement scripts, together with the
// rebuild and pushed-bit tallies, across group sizes that put one, part
// of one, and several 32-counter spans in a group. The rows were recorded
// before the per-group bookkeeping moved to one header per span of 32
// counters, so they prove that layout change kept every value, every
// frame byte, and the payload placement (the same rebuilds and pushes).
//
// On a mismatch the suite prints the row as computed, in table syntax.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "sai/compact_counter_vector.h"
#include "util/bits.h"

namespace sbf {
namespace {

uint64_t Fnv(const uint8_t* bytes, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t NextSplitMix(uint64_t& s) {
  uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr size_t kM = 1000;
constexpr uint64_t kMax = ~uint64_t{0};

CompactCounterVector MakeVector(size_t group_size, double slack) {
  CompactCounterVector::Options options;
  options.group_size = group_size;
  options.slack_per_counter = slack;
  return CompactCounterVector(kM, options);
}

// A value of a random width: mostly narrow, now and then up to 64 bits,
// and one in 64 exactly 2^64 - 1.
uint64_t ScriptValue(uint64_t r) {
  if ((r & 63) == 0) return kMax;
  const uint32_t width =
      (r >> 6) % 8 == 0 ? 1 + (r >> 9) % 64 : 1 + (r >> 9) % 6;
  return (r >> 16) & LowMask(width);
}

// One scripted op on `cv` and on the plain model; returns its counter.
size_t ApplyOp(CompactCounterVector& cv, std::vector<uint64_t>& model,
               uint64_t r) {
  const size_t i = static_cast<size_t>((r >> 20) % kM);
  const uint64_t small = 1 + (r >> 40) % 5;
  switch (r >> 62) {
    case 0: {
      const uint64_t value = ScriptValue(NextSplitMix(r));
      cv.Set(i, value);
      model[i] = value;
      break;
    }
    case 1:
    case 2:
      cv.Increment(i, small);
      model[i] = small > kMax - model[i] ? kMax : model[i] + small;
      break;
    default:
      cv.Decrement(i, small);
      model[i] = small > model[i] ? 0 : model[i] - small;
      break;
  }
  return i;
}

// Widens two counters of group 0 to 64 bits right after a rebuild: the
// first widening fits the group's fresh slack (at least 64 bits), and
// where that slack is 64 bits the second borrows from the groups after it.
void ForceBorrow(CompactCounterVector& cv, std::vector<uint64_t>& model) {
  cv.ForceRebuild();
  const size_t rebuilds = cv.rebuild_count();
  const size_t a = 0;
  const size_t b = cv.group_size() - 1;
  cv.Set(a, kMax);
  model[a] = kMax;
  cv.Set(b, kMax - 1);
  model[b] = kMax - 1;
  EXPECT_EQ(cv.rebuild_count(), rebuilds);
}

struct DigestRow {
  size_t group_size;
  double slack;
  uint64_t frame_fnv;
  uint64_t values_fnv;
  size_t rebuilds;
  uint64_t pushed_bits;
};

// 6000 seeded ops on 1000 counters, with a forced borrow before the
// first op (groups of at least two counters), a forced rebuild halfway,
// and a saturating increment of a counter at 2^64 - 1 at the end.
DigestRow RunScript(size_t group_size, double slack) {
  CompactCounterVector cv = MakeVector(group_size, slack);
  std::vector<uint64_t> model(kM, 0);
  if (group_size >= 2) ForceBorrow(cv, model);
  uint64_t s = group_size * 7919 + static_cast<uint64_t>(slack * 100);
  for (int op = 0; op < 6000; ++op) {
    ApplyOp(cv, model, NextSplitMix(s));
    if (op == 3000) cv.ForceRebuild();
  }
  cv.Set(kM - 1, kMax);
  cv.Increment(kM - 1, 3);
  model[kM - 1] = kMax;

  std::vector<uint64_t> values(kM);
  cv.DecodeBlock(0, kM, values.data());
  EXPECT_EQ(values, model) << group_size;
  EXPECT_TRUE(cv.CheckInvariants().ok()) << group_size;
  const std::vector<uint8_t> frame = cv.Serialize();
  return {group_size,
          slack,
          Fnv(frame.data(), frame.size()),
          Fnv(reinterpret_cast<const uint8_t*>(values.data()),
              values.size() * sizeof(uint64_t)),
          cv.rebuild_count(),
          cv.pushed_bits_total()};
}

TEST(CompactDigestTest, ScriptsMatchReference) {
  const std::vector<DigestRow> rows = {
      {1, 0.5, 0x5f69f8979e43c980ull, 0x4a1415301909a425ull, 1, 0},
      {4, 0.5, 0x38ce51e50da48f2bull, 0x01d291be4bd91803ull, 3, 20054},
      {8, 0.5, 0x73858f7ccb1be592ull, 0xbc0f39d0885605a8ull, 3, 57791},
      {12, 0.5, 0xcb6c5bb41c9a8ec7ull, 0xc5173bb42d058111ull, 4, 165688},
      {16, 0.5, 0x4a2fcdae98452278ull, 0x1341b588bcbb4f43ull, 4, 196368},
      {32, 0.5, 0xe22e146c37e820cbull, 0x59425195af48ec89ull, 7, 472331},
      {33, 0.5, 0x5c67547918bfd8f2ull, 0x37f0d9cbdb96721aull, 7, 507611},
      {64, 0.5, 0x9e8dd5e73e081c35ull, 0x83437745aae4a429ull, 16, 689651},
      {100, 0.5, 0x22139eceddb47483ull, 0x4a9ab6624bc3c4b5ull, 26, 915244},
      {8, 0.0, 0x9e4ad34a44ba2631ull, 0xd3dd629530c4a0e9ull, 3, 45624},
      {32, 0.0, 0x8b53e155081ab424ull, 0x4c07869d06fc7591ull, 7, 376547},
      {100, 2.0, 0xf21df9f4f91e5682ull, 0x36bf7789799d79d4ull, 7, 721018},
  };
  for (const DigestRow& row : rows) {
    const DigestRow got = RunScript(row.group_size, row.slack);
    EXPECT_EQ(got.frame_fnv, row.frame_fnv) << row.group_size;
    EXPECT_EQ(got.values_fnv, row.values_fnv) << row.group_size;
    EXPECT_EQ(got.rebuilds, row.rebuilds) << row.group_size;
    EXPECT_EQ(got.pushed_bits, row.pushed_bits) << row.group_size;
    if (got.frame_fnv != row.frame_fnv || got.values_fnv != row.values_fnv ||
        got.rebuilds != row.rebuilds || got.pushed_bits != row.pushed_bits) {
      std::printf("      {%zu, %.1f, 0x%016llxull, 0x%016llxull, %zu, %llu},\n",
                  got.group_size, got.slack,
                  static_cast<unsigned long long>(got.frame_fnv),
                  static_cast<unsigned long long>(got.values_fnv),
                  got.rebuilds,
                  static_cast<unsigned long long>(got.pushed_bits));
    }
  }
}

// Differential run against a plain uint64_t array: after every batch of
// 200 ops, every Get and every DecodeBlock window equals the model; every
// width is the widest value its counter has held since the last rebuild
// (a rebuild tightens it to the current value's); the group slack and
// the payload add up to the base array; and CheckInvariants holds.
TEST(CompactDigestTest, MatchesPlainModelAfterEveryBatch) {
  for (const size_t group_size : {1, 4, 8, 12, 16, 32, 33, 64, 100}) {
    for (const double slack : {0.0, 0.5}) {
      CompactCounterVector cv = MakeVector(group_size, slack);
      std::vector<uint64_t> model(kM, 0);
      std::vector<uint32_t> widths(kM, 1);
      size_t rebuilds = 0;
      uint64_t s = 0xD16E57 + group_size * 131 + (slack > 0 ? 1 : 0);
      if (group_size >= 2) {
        ForceBorrow(cv, model);
        rebuilds = cv.rebuild_count();
        widths[0] = widths[group_size - 1] = 64;
      }
      for (int batch = 0; batch < 30; ++batch) {
        for (int op = 0; op < 200; ++op) {
          const size_t i = ApplyOp(cv, model, NextSplitMix(s));
          if (cv.rebuild_count() != rebuilds) {
            // Only a widening rebuilds, before its write lands, so every
            // width is now its current value's.
            rebuilds = cv.rebuild_count();
            for (size_t j = 0; j < kM; ++j) widths[j] = BitWidth(model[j]);
          }
          widths[i] = std::max(widths[i], BitWidth(model[i]));
        }
        if (batch == 15) {
          cv.ForceRebuild();
          rebuilds = cv.rebuild_count();
          for (size_t j = 0; j < kM; ++j) widths[j] = BitWidth(model[j]);
        }
        ASSERT_TRUE(cv.CheckInvariants().ok())
            << cv.CheckInvariants().message() << " g=" << group_size;
        size_t used = 0;
        for (size_t j = 0; j < kM; ++j) {
          ASSERT_EQ(cv.Get(j), model[j]) << j << " g=" << group_size;
          ASSERT_EQ(cv.WidthOf(j), widths[j]) << j << " g=" << group_size;
          used += widths[j];
        }
        size_t slack_bits = 0;
        for (size_t g = 0; g < cv.group_count(); ++g) {
          slack_bits += cv.GroupSlackBits(g);
        }
        EXPECT_EQ(cv.UsedBits(), used);
        EXPECT_EQ(used + slack_bits, cv.BaseArrayBits()) << group_size;
        const size_t first = static_cast<size_t>(NextSplitMix(s) % kM);
        const size_t n = static_cast<size_t>(NextSplitMix(s) % (kM - first));
        std::vector<uint64_t> window(n);
        cv.DecodeBlock(first, n, window.data());
        for (size_t j = 0; j < n; ++j) {
          ASSERT_EQ(window[j], model[first + j]) << first + j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sbf
