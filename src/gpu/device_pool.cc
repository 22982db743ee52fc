#include "src/gpu/device_pool.h"

#include <utility>

#include "src/common/metrics.h"

namespace gpudb {
namespace gpu {

namespace {

/// Pool metrics, cached like DeviceMetrics in device.cc. Every pool, a
/// borrowed pool of one included, registers both when it is built, so the
/// registry lists the same rows whatever the fault history; the dispatch
/// ladder (core/pool_executor) bumps `pool.failovers` on every hop.
struct PoolMetrics {
  MetricGauge& device_state =
      MetricsRegistry::Global().gauge("pool.device_state");
  MetricCounter& failovers =
      MetricsRegistry::Global().counter("pool.failovers");

  static PoolMetrics& Get() {
    static PoolMetrics* m = new PoolMetrics();
    return *m;
  }
};

}  // namespace

std::string_view ToString(DeviceHealth health) {
  switch (health) {
    case DeviceHealth::kHealthy:
      return "healthy";
    case DeviceHealth::kDegraded:
      return "degraded";
    case DeviceHealth::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

Result<std::unique_ptr<DevicePool>> DevicePool::Make(
    const DevicePoolOptions& options) {
  if (options.devices < 1) {
    return Status::InvalidArgument("DevicePool needs at least one device");
  }
  auto pool = std::unique_ptr<DevicePool>(new DevicePool(options));
  pool->slots_.resize(static_cast<size_t>(options.devices));
  for (int i = 0; i < options.devices; ++i) {
    Slot& slot = pool->slots_[static_cast<size_t>(i)];
    slot.owned = std::make_unique<Device>(options.width, options.height);
    slot.device = slot.owned.get();
    slot.exec_mu = std::make_unique<std::mutex>();
    if (options.worker_threads > 0) {
      GPUDB_RETURN_NOT_OK(slot.device->SetWorkerThreads(options.worker_threads));
    }
    if (options.vram_budget > 0) {
      GPUDB_RETURN_NOT_OK(slot.device->SetVideoMemoryBudget(options.vram_budget));
    }
    // Each device is its own failure domain: same base (seed, rate), its own
    // draw stream selected by device_id (fault_injector.h).
    FaultConfig faults = options.faults;
    faults.device_id = static_cast<uint32_t>(i);
    slot.device->ConfigureFaults(faults);
  }
  {
    MutexLock lock(&pool->mu_);
    pool->UpdateStateGaugeLocked();
  }
  return pool;
}

std::unique_ptr<DevicePool> DevicePool::Borrow(Device* device) {
  DevicePoolOptions options;
  options.width = device->framebuffer().width();
  options.height = device->framebuffer().height();
  auto pool = std::unique_ptr<DevicePool>(new DevicePool(options));
  pool->slots_.resize(1);
  pool->slots_[0].device = device;
  pool->slots_[0].exec_mu = std::make_unique<std::mutex>();
  {
    MutexLock lock(&pool->mu_);
    pool->UpdateStateGaugeLocked();
  }
  return pool;
}

DevicePool::Lease DevicePool::Acquire(int id) {
  Slot& slot = slots_[static_cast<size_t>(id)];
  return Lease(slot.device, id, std::unique_lock<std::mutex>(*slot.exec_mu));
}

Result<DevicePool::Lease> DevicePool::TryAcquire(int id) {
  Lease lease = Acquire(id);
  {
    MutexLock lock(&mu_);
    if (slots_[static_cast<size_t>(id)].forced_lost) {
      return Status::DeviceLost("device " + std::to_string(id) +
                                " was force-lost after admission");
    }
  }
  return lease;
}

DeviceHealth DevicePool::HealthLocked(const Slot& slot) const {
  if (slot.forced_lost ||
      slot.consecutive_failures >= kQuarantineThreshold) {
    return DeviceHealth::kQuarantined;
  }
  if (slot.consecutive_failures > 0) return DeviceHealth::kDegraded;
  return DeviceHealth::kHealthy;
}

void DevicePool::UpdateStateGaugeLocked() {
  double total = 0.0;
  for (const Slot& slot : slots_) {
    total += static_cast<double>(HealthLocked(slot));
  }
  PoolMetrics::Get().device_state.Set(total);
}

bool DevicePool::AdmitDispatch(int id) {
  MutexLock lock(&mu_);
  Slot& slot = slots_[static_cast<size_t>(id)];
  if (slot.forced_lost) return false;  // hot-unplugged: not even probes
  if (HealthLocked(slot) != DeviceHealth::kQuarantined) return true;
  // Quarantined: admit every kProbeInterval-th ask as a recovery probe.
  ++slot.asks_while_quarantined;
  if (slot.asks_while_quarantined >= kProbeInterval) {
    slot.asks_while_quarantined = 0;
    return true;
  }
  return false;
}

DeviceHealth DevicePool::health(int id) const {
  MutexLock lock(&mu_);
  return HealthLocked(slots_[static_cast<size_t>(id)]);
}

void DevicePool::RecordFailure(int id) {
  MutexLock lock(&mu_);
  Slot& slot = slots_[static_cast<size_t>(id)];
  ++slot.consecutive_failures;
  UpdateStateGaugeLocked();
}

void DevicePool::RecordSuccess(int id) {
  MutexLock lock(&mu_);
  Slot& slot = slots_[static_cast<size_t>(id)];
  slot.consecutive_failures = 0;
  slot.asks_while_quarantined = 0;
  UpdateStateGaugeLocked();
}

void DevicePool::ForceDeviceLost(int id) {
  MutexLock lock(&mu_);
  slots_[static_cast<size_t>(id)].forced_lost = true;
  UpdateStateGaugeLocked();
}

void DevicePool::Revive(int id) {
  MutexLock lock(&mu_);
  Slot& slot = slots_[static_cast<size_t>(id)];
  slot.forced_lost = false;
  slot.consecutive_failures = 0;
  slot.asks_while_quarantined = 0;
  UpdateStateGaugeLocked();
}

bool DevicePool::forced_lost(int id) const {
  MutexLock lock(&mu_);
  return slots_[static_cast<size_t>(id)].forced_lost;
}

}  // namespace gpu
}  // namespace gpudb
