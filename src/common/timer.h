#ifndef GPUDB_COMMON_TIMER_H_
#define GPUDB_COMMON_TIMER_H_

#include <chrono>

namespace gpudb {

/// \brief Wall-clock stopwatch for the "measured" columns of the benchmark
/// harness (the "paper-shape" columns come from gpu::PerfModel instead; see
/// DESIGN.md section 5).
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed milliseconds since construction.
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gpudb

#endif  // GPUDB_COMMON_TIMER_H_
