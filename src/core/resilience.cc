#include "src/core/resilience.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace gpudb {
namespace core {

double RetryPolicy::DelayMs(int retry_index) const {
  double delay = backoff_base_ms;
  for (int i = 0; i < retry_index; ++i) delay *= backoff_multiplier;
  return std::min(delay, backoff_max_ms);
}

bool IsTransientFault(const Status& status) {
  return status.IsDeviceLost();
}

bool IsDeviceFault(const Status& status) {
  return status.IsDeviceLost() || status.IsResourceExhausted() ||
         status.IsInternal();
}

void BackoffSleep(double ms, bool real) {
  if (!real || ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace core
}  // namespace gpudb
