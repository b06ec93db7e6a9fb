// Wall-clock and CPU timers used by the phase report and the benches.
#pragma once

#include <chrono>

namespace ebem {

/// Monotonic wall-clock stopwatch. Running on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Process CPU-time stopwatch (sums over all threads), mirroring the
/// CPU-time numbers the paper reports in Tables 6.1 and 6.3.
class CpuTimer {
 public:
  CpuTimer();
  void reset();
  [[nodiscard]] double seconds() const;

 private:
  double start_;
  static double now();
};

/// CPU seconds the calling thread has run: the difference of two readings is
/// the thread's own work, without the time it spent preempted.
[[nodiscard]] double thread_cpu_seconds();

}  // namespace ebem
