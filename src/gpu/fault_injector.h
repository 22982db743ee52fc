#ifndef GPUDB_GPU_FAULT_INJECTOR_H_
#define GPUDB_GPU_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace gpudb {
namespace gpu {

/// SplitMix64 finalizer: a full-avalanche mix so consecutive draw indices
/// (and consecutive device ids) map to statistically independent values.
uint64_t SplitMix64(uint64_t x);

/// \brief Configuration for deterministic fault injection.
///
/// `rate` is the per-site fault probability in [0, 1]; 0 disables the
/// injector entirely (the fault sites reduce to a single predicted branch,
/// keeping the per-pass hot path intact). `seed` selects the pseudo-random
/// draw sequence: the injector draws one value per fault site it passes
/// through, always on the thread issuing the device call, so a given
/// (seed, rate) pair produces the same fault sequence for the same sequence
/// of device calls -- at any worker-thread count.
///
/// `device_id` is the failure domain: each device in a gpu::DevicePool draws
/// from its own stream, `seed ^ SplitMix64(device_id)`, so a multi-device
/// fault sweep is reproducible per device regardless of the order sessions
/// dispatch to the pool. Single-device code passes 0 (the default).
struct FaultConfig {
  uint64_t seed = 0;
  double rate = 0.0;
  uint32_t device_id = 0;

  /// The per-domain seed actually used for draws.
  uint64_t effective_seed() const { return seed ^ SplitMix64(device_id); }

  bool enabled() const { return rate > 0.0; }
};

/// \brief Seeded, deterministic fault injector owned by gpu::Device.
///
/// Models the failure modes of a real 2004-era driver stack (DESIGN.md
/// section 11): VRAM allocation failure, per-pass watchdog timeout,
/// transient occlusion-query failure, and readback corruption. Every
/// injected fault surfaces as `Status::DeviceLost` with an "injected:"
/// message prefix -- the transient-fault category that the dispatch ladder
/// (core/pool_executor.h) retries and, past the quarantine threshold,
/// degrades to the CPU baseline.
///
/// Not thread-safe by design: all fault sites are on Device entry points,
/// which are called from the query thread only (worker bands never draw).
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Installs `config` and restarts the draw sequence (draw and fault
  /// tallies reset to zero).
  void Configure(const FaultConfig& config);

  const FaultConfig& config() const { return config_; }
  bool enabled() const { return config_.rate > 0.0; }

  // --- Fault sites -------------------------------------------------------
  // Each returns OK (almost always) or kDeviceLost when the seeded draw
  // fires, after incrementing the `faults.injected` metrics.

  /// Texture/VRAM allocation of `bytes` bytes.
  [[nodiscard]] Status OnAllocation(uint64_t bytes);

  /// One rendering pass (quad or triangle batch): the watchdog-timeout
  /// model -- a real driver kills passes that hold the chip too long.
  [[nodiscard]] Status OnPass();

  /// NV_occlusion_query result readback: the count is lost in transit.
  [[nodiscard]] Status OnOcclusionReadback();

  /// Buffer/texture readback `what` (stencil/depth/color/texture):
  /// detected transfer corruption.
  [[nodiscard]] Status OnReadback(std::string_view what);

  uint64_t faults_injected() const { return faults_; }
  uint64_t draws() const { return draws_; }

 private:
  /// Advances the draw counter; true when this site faults.
  bool Draw();

  /// Records one injected fault at `site` and wraps it as kDeviceLost.
  [[nodiscard]] Status Inject(const char* site, std::string message);

  FaultConfig config_;
  uint64_t draws_ = 0;
  uint64_t faults_ = 0;
};

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_FAULT_INJECTOR_H_
