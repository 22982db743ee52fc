#ifndef GPUDB_GPU_DEVICE_POOL_H_
#define GPUDB_GPU_DEVICE_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/gpu/device.h"
#include "src/gpu/fault_injector.h"

namespace gpudb {
namespace gpu {

/// \brief Health of one device in a DevicePool (DESIGN.md §15).
///
///   healthy ──failure──▶ degraded ──threshold──▶ quarantined
///      ▲                    │ success                │ probe success
///      └────────────────────┴─────────────────────────┘
///
/// `degraded` means 1..DevicePool::kQuarantineThreshold-1 consecutive device
/// faults: the device still serves dispatches, but it is one bad streak away
/// from quarantine. `quarantined` devices are skipped by AdmitDispatch
/// except for every DevicePool::kProbeInterval-th ask (counted in calls, not
/// wall time, so recovery is deterministic under test); one probe success
/// returns them to healthy.
enum class DeviceHealth { kHealthy, kDegraded, kQuarantined };

std::string_view ToString(DeviceHealth health);

/// \brief Construction parameters for a DevicePool.
struct DevicePoolOptions {
  int devices = 1;            ///< Pool size (N simulated adapters).
  uint32_t width = 1000;      ///< Framebuffer width of every device.
  uint32_t height = 1000;     ///< Framebuffer height of every device.
  int worker_threads = 0;     ///< Pixel engines per device; 0 = default.
  uint64_t vram_budget = 0;   ///< Per-device VRAM budget bytes; 0 = default.
  /// Base fault configuration; device i runs with `device_id = i`, so each
  /// failure domain draws from its own deterministic stream (seed ^
  /// SplitMix64(i)) regardless of dispatch interleaving.
  FaultConfig faults;
};

/// \brief A pool of N simulated Devices, each its own failure domain.
///
/// The pool owns its devices (Make), or borrows one (Borrow: a session's
/// own device as a pool of one), and keeps two orthogonal pieces of state
/// per device:
///
///  * an **execution mutex** -- devices are single-context (the 2004 driver
///    model), so callers take an exclusive Lease per dispatch. Queries on
///    different devices run concurrently; dispatches to the same device
///    serialize. The health state below is *not* covered by the lease.
///  * a **health state machine** (DeviceHealth above) fed by
///    RecordFailure/RecordSuccess from the dispatch ladder
///    (core/pool_executor). A quarantined or force-lost device is refused
///    by AdmitDispatch, which is what moves a dispatch on to the replica
///    device or the CPU tier.
///
/// ForceDeviceLost models pulling a card mid-flight: the device refuses all
/// dispatches (probes included) until Revive. Metrics: the
/// `pool.device_state` gauge is the sum of state ordinals across the pool
/// (0 = all healthy) and `pool.failovers`, bumped by the dispatch ladder,
/// counts every shard that had to move off its primary. Thread-safe.
class DevicePool {
 public:
  /// Consecutive device faults that quarantine a device.
  static constexpr int kQuarantineThreshold = 3;
  /// A quarantined device is probed on every kProbeInterval-th ask.
  static constexpr int kProbeInterval = 8;

  [[nodiscard]] static Result<std::unique_ptr<DevicePool>> Make(
      const DevicePoolOptions& options);

  /// A pool of one over `device`, which stays the caller's and must outlive
  /// the pool: the health gate and lease of the single-device route. The
  /// device keeps its own fault configuration and worker threads; the
  /// pool's health sets the `pool.device_state` gauge as any pool's does.
  [[nodiscard]] static std::unique_ptr<DevicePool> Borrow(Device* device);

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  int size() const { return static_cast<int>(slots_.size()); }
  const DevicePoolOptions& options() const { return options_; }

  /// \brief Exclusive use of one device for the lease's lifetime.
  class Lease {
   public:
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = default;

    Device& device() { return *device_; }
    int id() const { return id_; }

   private:
    friend class DevicePool;
    Lease(Device* device, int id, std::unique_lock<std::mutex> lock)
        : device_(device), id_(id), lock_(std::move(lock)) {}

    Device* device_;
    int id_;
    std::unique_lock<std::mutex> lock_;
  };

  /// Blocks until device `id` is free, then returns its exclusive lease.
  [[nodiscard]] Lease Acquire(int id);

  /// Acquire plus a hot-unplug re-check under the health lock. An
  /// AdmitDispatch verdict is a snapshot: the card can be pulled
  /// (ForceDeviceLost) while the caller waits for the lease -- exactly the
  /// window a recovery probe to a busy device sits in. Re-checking once the
  /// lease is held turns that race into a deterministic Unavailable, so the
  /// caller fails over instead of dispatching to a yanked device. (The
  /// remaining mid-dispatch window is inherent to hot-unplug and surfaces
  /// as a device fault.)
  [[nodiscard]] Result<Lease> TryAcquire(int id);

  /// Health gate consulted before dispatching to `id`: true when the device
  /// should be tried. Healthy/degraded devices always pass; quarantined
  /// devices pass only on every kProbeInterval-th ask (the recovery
  /// probe); force-lost devices never pass.
  bool AdmitDispatch(int id);

  DeviceHealth health(int id) const;

  /// One device fault (kDeviceLost/kResourceExhausted/kInternal after
  /// retries) attributed to `id`.
  void RecordFailure(int id);

  /// A dispatch to `id` succeeded; closes the failure streak (a quarantined
  /// device that just served a probe returns to healthy).
  void RecordSuccess(int id);

  /// Simulated hot-unplug: `id` refuses all dispatches until Revive.
  void ForceDeviceLost(int id);
  void Revive(int id);
  bool forced_lost(int id) const;

  /// Direct device access for setup (texture preload, viewport checks).
  /// Callers that dispatch work must go through Acquire instead.
  Device& device(int id) { return *slots_[static_cast<size_t>(id)].device; }

 private:
  struct Slot {
    Device* device = nullptr;
    std::unique_ptr<Device> owned;  ///< null when the device is borrowed
    std::unique_ptr<std::mutex> exec_mu;  ///< The Lease lock.
    // Health fields below are guarded by DevicePool::mu_.
    int consecutive_failures = 0;
    int asks_while_quarantined = 0;
    bool forced_lost = false;
  };

  explicit DevicePool(const DevicePoolOptions& options)
      : options_(options) {}

  DeviceHealth HealthLocked(const Slot& slot) const REQUIRES(mu_);
  void UpdateStateGaugeLocked() REQUIRES(mu_);

  // lint: lock-free (written only inside Make, before the pool is shared)
  DevicePoolOptions options_;
  /// The vector's shape is fixed in Make; Slot.device/exec_mu are stable
  /// thereafter. The mutable per-slot health fields are documented as
  /// guarded by mu_ on Slot (a nested struct cannot name the enclosing
  /// instance's capability in a GUARDED_BY attribute).
  // lint: lock-free (shape fixed after Make; Slot health fields under mu_)
  std::vector<Slot> slots_;
  /// Guards slot health fields. Lock-order level: `pool`
  /// (health) -- taken briefly while a Lease (device level) is already
  /// held when the executor records a dispatch outcome, and never held
  /// across a call into device, session, or catalog code.
  mutable Mutex mu_;
};

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_DEVICE_POOL_H_
