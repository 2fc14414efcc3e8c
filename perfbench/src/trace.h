#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recording for the traced (layer-peel) run. Spans are kept in memory
// and written out when the run ends.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// CPU time the calling thread has consumed (user plus kernel). The
// benchmark's client is one thread, so this is the client's busy time: it
// excludes time the thread sleeps, such as waiting on a device in fsync.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double CpuSecondsSince(int64_t start_ns) {
  return static_cast<double>(ThreadCpuNs() - start_ns) * 1e-9;
}

// Span timestamps. A steady_clock read costs ~50 ns on a KVM guest, as much
// as a whole point op of the lower layers, so call spans read the
// time-stamp counter (a few ns) and convert to ns at the rate steady_clock
// measures over the level's root span. Other architectures use
// steady_clock directly.
inline int64_t Ticks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

// Ticks an empty span measures: the part of the timestamp reads that falls
// inside every span. Subtracted from each recorded call.
inline int64_t EmptySpanTicks() {
  static const int64_t kTicks = [] {
    std::vector<int64_t> d(20000);
    for (int64_t& x : d) {
      const int64_t t0 = Ticks();
      x = Ticks() - t0;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
  }();
  return kTicks;
}

// Names of the calls a span can cover: the stream ops plus the write-ahead
// log's three sub-calls.
enum class Call : uint8_t {
  kInsert, kEstimate, kRemove, kCheckpoint, kFlush, kEncode, kWrite, kSync
};
inline constexpr int kNumCalls = 8;
inline const char* CallName(Call call) {
  static const char* const kNames[kNumCalls] = {
      "insert", "estimate", "remove", "checkpoint",
      "flush",  "encode",   "write",  "sync"};
  return kNames[static_cast<int>(call)];
}

// Per-call-name totals of one level, plus every call's duration for
// percentiles. Ticks while recording, ns after Recorder::End.
struct CallStats {
  uint64_t calls = 0;
  uint64_t keys = 0;
  int64_t ns = 0;
  std::vector<uint32_t> call_ns;
};

// One recorded span. `call` < 0 marks a level's root span (-1) or a
// point-op chunk span (-2). Times are ns on the steady clock.
struct SpanRecord {
  int32_t id;
  int32_t parent;
  int16_t level;
  int8_t call;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t calls;
  uint64_t keys;
  int64_t busy_ns;
};

inline constexpr int8_t kRootSpan = -1;
inline constexpr int8_t kChunkSpan = -2;

// Records one layer level's replay: a root span for the level, a child
// span per batch call, and for point ops one span per call name per chunk
// of kChunkCalls calls, carrying the summed busy time of those calls.
class Recorder {
 public:
  static constexpr uint32_t kChunkCalls = 1024;

  Recorder(int16_t level, bool point, std::vector<SpanRecord>* spans)
      : level_(level), point_(point), spans_(spans),
        empty_ticks_(EmptySpanTicks()) {}

  void Begin() {
    root_index_ = spans_->size();
    root_id_ = NextId();
    spans_->push_back(SpanRecord{root_id_, -1, level_, kRootSpan, 0, 0, 0, 0,
                                 0});
    root_start_ns_ = NowNs();
    root_start_ticks_ = Ticks();
  }

  // Closes the root span and converts everything recorded to ns.
  void End() {
    const int64_t end_ticks = Ticks();
    const int64_t end_ns = NowNs();
    CloseChunk();
    root_ns_ = end_ns - root_start_ns_;
    const double ns_per_tick =
        end_ticks > root_start_ticks_
            ? static_cast<double>(root_ns_) /
                  static_cast<double>(end_ticks - root_start_ticks_)
            : 1.0;
    auto ns = [ns_per_tick](int64_t ticks) {
      return static_cast<int64_t>(static_cast<double>(ticks) * ns_per_tick);
    };
    for (CallStats& s : stats_) {
      s.ns = ns(s.ns);
      for (uint32_t& d : s.call_ns) d = static_cast<uint32_t>(ns(d));
    }
    step_chunk_ns_ = ns(step_chunk_ns_);
    SpanRecord& root = (*spans_)[root_index_];
    root.start_ns = root_start_ns_;
    root.end_ns = end_ns;
    for (size_t i = root_index_ + 1; i < spans_->size(); ++i) {
      SpanRecord& span = (*spans_)[i];
      span.start_ns = root_start_ns_ + ns(span.start_ns - root_start_ticks_);
      span.end_ns = root_start_ns_ + ns(span.end_ns - root_start_ticks_);
      span.busy_ns = ns(span.busy_ns);
    }
    root.busy_ns = CallNs();
    for (const CallStats& s : stats_) {
      root.calls += s.calls;
      root.keys += s.keys;
    }
  }

  // One call spanning ticks [t0, t1).
  void Record(Call call, size_t keys, int64_t t0, int64_t t1) {
    CallStats& s = stats_[static_cast<int>(call)];
    const int64_t d = std::max<int64_t>(t1 - t0 - empty_ticks_, 0);
    ++s.calls;
    s.keys += keys;
    s.ns += d;
    s.call_ns.push_back(static_cast<uint32_t>(std::min<int64_t>(d, UINT32_MAX)));
    if (!point_) {
      spans_->push_back(SpanRecord{NextId(), root_id_, level_,
                                   static_cast<int8_t>(call), t0, t1, 1, keys,
                                   d});
      return;
    }
    if (chunk_calls_ == 0) chunk_start_ = t0;
    Partial& p = chunk_[static_cast<int>(call)];
    if (p.calls == 0) p.start = t0;
    ++p.calls;
    p.keys += keys;
    p.busy += d;
    p.end = t1;
    chunk_end_ = t1;
    if (++chunk_calls_ == kChunkCalls) CloseChunk();
  }

  // One chunk of whole stream steps, timed by the replay loop itself: the
  // ledger pass of point-op workloads, where a span per call would charge
  // each level for its number of calls per step.
  void RecordSteps(uint64_t steps, uint64_t keys, int64_t t0, int64_t t1) {
    step_chunk_ns_ += t1 - t0;
    spans_->push_back(SpanRecord{NextId(), root_id_, level_, kChunkSpan, t0,
                                 t1, steps, keys, t1 - t0});
  }

  [[nodiscard]] const CallStats& stats(Call call) const {
    return stats_[static_cast<int>(call)];
  }
  // Summed duration of every recorded call or step chunk (the level's
  // attributed cost).
  [[nodiscard]] int64_t CallNs() const {
    int64_t total = step_chunk_ns_;
    for (const CallStats& s : stats_) total += s.ns;
    return total;
  }
  [[nodiscard]] int64_t RootNs() const { return root_ns_; }

 private:
  struct Partial {
    uint64_t calls = 0;
    uint64_t keys = 0;
    int64_t busy = 0;
    int64_t start = 0;
    int64_t end = 0;
  };

  int32_t NextId() {
    if (spans_->empty()) return 0;
    return spans_->back().id + 1;
  }

  void CloseChunk() {
    if (chunk_calls_ == 0) return;
    const int32_t chunk_id = NextId();
    spans_->push_back(SpanRecord{chunk_id, root_id_, level_, kChunkSpan,
                                 chunk_start_, chunk_end_, chunk_calls_, 0, 0});
    for (int c = 0; c < kNumCalls; ++c) {
      Partial& p = chunk_[c];
      if (p.calls == 0) continue;
      spans_->push_back(SpanRecord{NextId(), chunk_id, level_,
                                   static_cast<int8_t>(c), p.start, p.end,
                                   p.calls, p.keys, p.busy});
      p = Partial{};
    }
    chunk_calls_ = 0;
  }

  int16_t level_;
  bool point_;
  std::vector<SpanRecord>* spans_;
  int64_t empty_ticks_;
  int32_t root_id_ = 0;
  std::array<CallStats, kNumCalls> stats_{};
  std::array<Partial, kNumCalls> chunk_{};
  uint32_t chunk_calls_ = 0;
  int64_t step_chunk_ns_ = 0;
  int64_t chunk_start_ = 0;
  int64_t chunk_end_ = 0;
  int64_t root_start_ns_ = 0;
  int64_t root_start_ticks_ = 0;
  int64_t root_ns_ = 0;
  size_t root_index_ = 0;
};

// Times one call into a layer when a recorder is attached; free otherwise.
class Timed {
 public:
  Timed(Recorder* rec, Call call, size_t keys)
      : rec_(rec), call_(call), keys_(keys), t0_(rec != nullptr ? Ticks() : 0) {}
  ~Timed() {
    if (rec_ != nullptr) rec_->Record(call_, keys_, t0_, Ticks());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Recorder* rec_;
  Call call_;
  size_t keys_;
  int64_t t0_;
};

// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty.
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1
             ? static_cast<double>(v[mid])
             : 0.5 * (static_cast<double>(v[mid - 1]) +
                      static_cast<double>(v[mid]));
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
