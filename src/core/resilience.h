#ifndef GPUDB_CORE_RESILIENCE_H_
#define GPUDB_CORE_RESILIENCE_H_

#include <cstdint>

#include "src/common/status.h"

namespace gpudb {
namespace core {

/// \brief Bounded-retry policy for transient device faults.
///
/// Retries apply only to the kDeviceLost category (see IsTransientFault):
/// a lost context or injected watchdog kill may succeed on the next
/// attempt, while deterministic failures (bad arguments, a texture that
/// cannot fit VRAM) never will. Backoff is exponential with a cap; tests
/// keep `sleep` off so retry schedules stay deterministic and instant.
struct RetryPolicy {
  int max_attempts = 3;          ///< Total attempts, including the first.
  double backoff_base_ms = 1.0;  ///< Delay before the first retry.
  double backoff_multiplier = 2.0;
  double backoff_max_ms = 64.0;
  bool sleep = false;  ///< Actually sleep between attempts.

  /// Backoff before retry `retry_index` (0-based): base * multiplier^i,
  /// clamped to backoff_max_ms.
  double DelayMs(int retry_index) const;
};

/// True for faults worth retrying in place: the transient kDeviceLost
/// category (driver context loss, injected watchdog/readback faults).
bool IsTransientFault(const Status& status);

/// True for faults that indict the device path as a whole and count
/// toward the circuit breaker: kDeviceLost, kResourceExhausted (VRAM),
/// and kInternal (simulator invariant violations). Deadline and
/// cancellation are the *user's* budget running out, not a device fault,
/// and user errors (InvalidArgument & co.) are neither.
bool IsDeviceFault(const Status& status);

/// \brief Consecutive-failure circuit breaker guarding the GPU path.
///
/// After `threshold` consecutive device faults the breaker opens and the
/// Executor routes eligible queries straight to the CPU baseline without
/// touching the device. While open, every `probe_interval`-th eligible
/// call is let through as a probe (counted in calls, not wall time, so
/// behaviour stays deterministic under test); one success closes the
/// breaker again.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(int threshold = 3, int probe_interval = 8)
      : threshold_(threshold), probe_interval_(probe_interval) {}

  void RecordFailure();
  void RecordSuccess();

  bool open() const { return consecutive_failures_ >= threshold_; }
  int consecutive_failures() const { return consecutive_failures_; }
  int threshold() const { return threshold_; }

  /// While open: true when this call should probe the GPU path anyway.
  /// Advances the skipped-call counter.
  bool AllowProbe();

  void set_threshold(int threshold) { threshold_ = threshold; }
  void Reset();

 private:
  int threshold_;
  int probe_interval_;
  int consecutive_failures_ = 0;
  int skipped_calls_ = 0;
};

/// \brief Cumulative resilience outcomes of one executor: in-place retry
/// attempts and answers served by the CPU tier. A statement takes the
/// difference across its own run, as it does for DeviceCounters, so its
/// query-log entry counts only its own executors' events -- never another
/// session's, as a process-wide counter delta would under concurrency.
struct ResilienceTally {
  uint64_t retries = 0;
  uint64_t fallbacks = 0;
};

/// \brief Per-executor resilience configuration (DESIGN.md section 11).
struct ResilienceOptions {
  bool enabled = true;
  RetryPolicy retry;
  int breaker_threshold = 3;
  /// Degrade device faults to the cpu/ baseline where an equivalent
  /// implementation exists (count/select/aggregate/kth/range).
  bool allow_cpu_fallback = true;
  /// Per-query wall-clock deadline armed on the device around each
  /// top-level operator; 0 disables.
  double deadline_ms = 0.0;
};

/// \brief Shard failover policy for the scatter/gather path (DESIGN.md §15).
///
/// A shard's dispatch ladder is primary device -> replica device -> CPU
/// tier. A hop happens when the device pool refuses the device (quarantined
/// or force-lost) or the per-device attempt exhausts its in-place retries
/// with a device fault (IsDeviceFault). User errors never fail over: the
/// replica holds an identical copy and would return the identical error, so
/// hopping could only waste the query's deadline.
struct FailoverPolicy {
  bool try_replica = true;        ///< Hop to the shard's replica device.
  bool allow_cpu_fallback = true; ///< Final rung: per-shard CPU tier.
};

/// Sleeps for `ms` when `real` is set; no-op otherwise (deterministic
/// test schedules).
void BackoffSleep(double ms, bool real);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_RESILIENCE_H_
