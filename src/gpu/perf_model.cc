#include "src/gpu/perf_model.h"

#include <algorithm>

namespace gpudb {
namespace gpu {

double PerfModel::PassFillMs(const PassRecord& pass) const {
  DeviceCounters one;
  one.Add(pass);
  return Estimate(one).fill_ms;
}

GpuTimeBreakdown PerfModel::Estimate(const DeviceCounters& counters) const {
  GpuTimeBreakdown b;
  const double throughput =
      params_.clock_hz * static_cast<double>(params_.pixel_pipes);
  // Each pipe retires one instruction per fragment per clock; fill_cycles
  // already charges fixed-function fragments one cycle each.
  b.fill_ms = static_cast<double>(counters.fill_cycles) / throughput * 1e3;
  b.depth_write_ms = static_cast<double>(counters.depth_writes) *
                     params_.depth_write_cycles / throughput * 1e3;
  b.setup_ms = static_cast<double>(counters.passes) * params_.pass_setup_ms;
  b.readback_ms = static_cast<double>(counters.occlusion_readbacks) *
                  params_.occlusion_readback_ms;
  b.upload_ms = static_cast<double>(counters.bytes_uploaded) /
                params_.upload_bytes_per_ms;
  b.swap_ms = static_cast<double>(counters.bytes_swapped) /
              params_.upload_bytes_per_ms;
  // Occlusion counts (4 bytes each) are covered by the latency term above;
  // bulk buffer readbacks are charged at PCI bandwidth.
  const double bulk_bytes =
      static_cast<double>(counters.bytes_read_back) -
      4.0 * static_cast<double>(counters.occlusion_readbacks);
  b.buffer_readback_ms =
      std::max(0.0, bulk_bytes) / params_.readback_bytes_per_ms;
  return b;
}

double PerfModel::Utilization(const DeviceCounters& counters) const {
  const GpuTimeBreakdown b = Estimate(counters);
  const double total = b.ComputeMs();
  if (total <= 0) return 1.0;
  return b.fill_ms / total;
}

}  // namespace gpu
}  // namespace gpudb
