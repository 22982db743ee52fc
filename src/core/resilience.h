#ifndef GPUDB_CORE_RESILIENCE_H_
#define GPUDB_CORE_RESILIENCE_H_

#include <cstdint>

#include "src/common/status.h"

namespace gpudb {
namespace core {

/// Bounded retry of transient device faults: attempts per device,
/// including the first. Retries apply only to the kDeviceLost category
/// (see IsTransientFault): a lost context or injected watchdog kill may
/// succeed on the next attempt, while deterministic failures (bad
/// arguments, a texture that cannot fit VRAM) never will.
inline constexpr int kMaxAttempts = 3;

/// Backoff before retry `retry_index` (0-based): 1 ms, doubling per retry,
/// capped at 64 ms.
double RetryDelayMs(int retry_index);

/// True for faults worth retrying in place: the transient kDeviceLost
/// category (driver context loss, injected watchdog/readback faults).
bool IsTransientFault(const Status& status);

/// True for faults that indict the device path as a whole and count
/// toward the device's quarantine (gpu::DevicePool): kDeviceLost,
/// kResourceExhausted (VRAM), and kInternal (simulator invariant
/// violations). A deadline is the *user's* budget running out, not a
/// device fault, and user errors (InvalidArgument & co.) are neither.
bool IsDeviceFault(const Status& status);

/// \brief Resilience configuration of a PoolExecutor's dispatch ladder
/// (DESIGN.md section 11): retry in place, replica, CPU tier.
struct ResilienceOptions {
  /// Actually sleep the backoff between retries. Off, retry schedules are
  /// deterministic and instant (tests, benchmarks).
  bool sleep = false;
  /// Degrade device faults to the cpu/ baseline where an equivalent
  /// implementation exists (count/select/aggregate/kth/range).
  bool allow_cpu_fallback = true;
  /// Per-statement wall-clock deadline, armed once as an absolute expiry
  /// that every dispatch of the statement honours; 0 disables.
  double deadline_ms = 0.0;
};

/// Sleeps for `ms` when `real` is set; no-op otherwise (deterministic
/// test schedules).
void BackoffSleep(double ms, bool real);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_RESILIENCE_H_
