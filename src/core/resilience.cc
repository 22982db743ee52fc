#include "src/core/resilience.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace gpudb {
namespace core {

double RetryDelayMs(int retry_index) {
  return std::min(std::ldexp(1.0, retry_index), 64.0);
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
