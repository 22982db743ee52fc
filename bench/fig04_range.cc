// Figure 4: range query at 60% selectivity (values between the 20th and
// 80th percentile) via the depth bounds test. The paper reports ~5.5x
// overall and ~40x computation-only speedups.

#include <algorithm>

#include "bench/bench_util.h"
#include "src/core/range.h"
#include "src/cpu/scan.h"

namespace gpudb {
namespace bench {
namespace {

int Run() {
  PrintHeader("Figure 4",
              "range query (p20 <= data_count <= p80), 60% selectivity",
              "GPU ~5.5x faster overall, ~40x faster computation-only");
  PrintRowHeader();
  const db::Column& column =
      *TcpIpTable().ColumnByName("data_count").ValueOrDie();
  gpu::PerfModel gpu_model;
  cpu::XeonModel cpu_model;

  for (size_t n : RecordSweep()) {
    std::vector<float> sorted = Slice(column, n);
    std::sort(sorted.begin(), sorted.end());
    const float low = sorted[static_cast<size_t>(0.2 * (n - 1))];
    const float high = sorted[static_cast<size_t>(0.8 * (n - 1))];

    auto device = MakeDevice();
    core::AttributeBinding attr = UploadColumn(device.get(), column, n);
    device->ResetCounters();
    gpu::PassLogScope passes(device.get());
    Timer gpu_timer;
    auto gpu_count = core::RangeSelect(device.get(), attr, low, high);
    const double gpu_wall = gpu_timer.ElapsedMs();
    if (!gpu_count.ok()) return 1;
    const gpu::GpuTimeBreakdown b = gpu_model.Estimate(device->counters());

    const std::vector<float> values = Slice(column, n);
    std::vector<uint8_t> mask;
    Timer cpu_timer;
    const uint64_t cpu_count = cpu::RangeScan(values, low, high, &mask);
    const double cpu_wall = cpu_timer.ElapsedMs();

    ResultRow row;
    row.label = std::to_string(n);
    row.gpu_model_total_ms = b.TotalMs();
    const gpu::PassRecord& bounds_pass = passes.records().back();
    row.gpu_model_compute_ms = gpu_model.PassFillMs(bounds_pass) +
                               gpu_model.params().pass_setup_ms +
                               gpu_model.params().occlusion_readback_ms;
    row.cpu_model_ms = cpu_model.RangeScanMs(n);
    row.gpu_wall_ms = gpu_wall;
    row.cpu_wall_ms = cpu_wall;
    row.check_passed = gpu_count.ValueOrDie() == cpu_count;
    PrintRow(row);
  }
  PrintFooter(
      "The depth-bounds test evaluates both comparisons in one pass, so the "
      "GPU range query costs the same as a single predicate while the CPU "
      "pays for two comparisons: overall ~5.5x, compute-only ~40x (Figure 4).");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gpudb

int main(int argc, char** argv) {
  gpudb::bench::InitBench(argc, argv);
  return gpudb::bench::Run();
}
