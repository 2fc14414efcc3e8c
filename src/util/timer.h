#ifndef SBF_UTIL_TIMER_H_
#define SBF_UTIL_TIMER_H_

#include <chrono>

namespace sbf {

// Monotonic wall-clock stopwatch used by the experiment harness
// (the paper's Figures 11/12 report wall-clock build/update/lookup times).
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sbf

#endif  // SBF_UTIL_TIMER_H_
