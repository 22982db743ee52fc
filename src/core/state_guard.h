#ifndef GPUDB_CORE_STATE_GUARD_H_
#define GPUDB_CORE_STATE_GUARD_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief RAII save/restore of the device render state and fragment program
/// around multi-pass algorithms, so core operations compose without leaking
/// test configuration into each other.
class StateGuard {
 public:
  explicit StateGuard(gpu::Device* device)
      : device_(device),
        saved_state_(device->state()),
        saved_program_(device->program()) {}

  StateGuard(const StateGuard&) = delete;
  StateGuard& operator=(const StateGuard&) = delete;

  ~StateGuard() {
    device_->state() = saved_state_;
    device_->UseProgram(saved_program_);
  }

 private:
  gpu::Device* device_;
  gpu::RenderState saved_state_;
  const gpu::FragmentProgram* saved_program_;
};

/// \brief RAII save/restore of the device viewport, which RenderState does
/// not hold: for operators that draw over a different pixel range than the
/// records they were called for.
class ViewportGuard {
 public:
  explicit ViewportGuard(gpu::Device* device)
      : device_(device), saved_(device->viewport_pixels()) {}

  ViewportGuard(const ViewportGuard&) = delete;
  ViewportGuard& operator=(const ViewportGuard&) = delete;

  // The saved viewport was valid on this device, so restoring cannot fail.
  ~ViewportGuard() {
    DropStatus(device_->SetViewport(saved_), "ViewportGuard restore");
  }

 private:
  gpu::Device* device_;
  uint64_t saved_;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_STATE_GUARD_H_
