// Capstone workload: a realistic mixed analytics session -- eight SQL
// queries over the 1M-flow table, each priced on both 2004 testbeds. This is
// the paper's conclusion in benchmark form: "it would be useful for database
// designers to utilize GPU capabilities alongside traditional CPU-based
// code" -- the co-processor split falls directly out of the per-query
// numbers.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/db/catalog.h"
#include "src/sql/session.h"

namespace gpudb {
namespace bench {
namespace {

struct SuiteQuery {
  const char* sql;
  /// Which CPU-model primitive prices the baseline, with its detail arg.
  enum class CpuKind { kPredicate, kMulti2, kMulti3, kQuickSelect, kSum } kind;
};

int Run() {
  PrintHeader("Workload suite",
              "eight mixed SQL queries over 1M TCP/IP flows",
              "co-processing: selections on the GPU, SUM on the CPU "
              "(Section 7's conclusion)");
  const db::Table& table = TcpIpTable();
  auto device = MakeDevice();
  db::Catalog catalog;
  if (!catalog.Register("flows", &table).ok()) return 1;
  sql::Session session(device.get(), &catalog);
  gpu::PerfModel gpu_model;
  cpu::XeonModel cpu_model;
  const size_t n = table.num_rows();

  const std::vector<SuiteQuery> suite = {
      {"SELECT COUNT(*) FROM flows WHERE data_count >= 100000",
       SuiteQuery::CpuKind::kPredicate},
      {"SELECT COUNT(*) FROM flows WHERE data_loss > 0 AND "
       "retransmissions > 10",
       SuiteQuery::CpuKind::kMulti2},
      {"SELECT COUNT(*) FROM flows WHERE data_count BETWEEN 1000 AND 200000",
       SuiteQuery::CpuKind::kMulti2},
      {"SELECT COUNT(*) FROM flows WHERE data_loss >= retransmissions AND "
       "flow_rate > 500",
       SuiteQuery::CpuKind::kMulti2},
      {"SELECT MEDIAN(data_count) FROM flows",
       SuiteQuery::CpuKind::kQuickSelect},
      {"SELECT KTH_LARGEST(flow_rate, 1000) FROM flows",
       SuiteQuery::CpuKind::kQuickSelect},
      {"SELECT MAX(retransmissions) FROM flows",
       SuiteQuery::CpuKind::kQuickSelect},
      {"SELECT SUM(data_loss) FROM flows", SuiteQuery::CpuKind::kSum},
  };

  std::printf("%-68s %12s %12s %8s\n", "query", "gpu_ms", "cpu_ms", "winner");
  double gpu_total = 0, cpu_total = 0, best_total = 0;
  for (const SuiteQuery& q : suite) {
    device->ResetCounters();
    auto r = session.Execute(q.sql);
    if (!r.ok()) {
      std::fprintf(stderr, "%s -> %s\n", q.sql, r.status().ToString().c_str());
      return 1;
    }
    const double gpu_ms = gpu_model.EstimateMs(device->counters());
    double cpu_ms = 0;
    switch (q.kind) {
      case SuiteQuery::CpuKind::kPredicate:
        cpu_ms = cpu_model.PredicateScanMs(n);
        break;
      case SuiteQuery::CpuKind::kMulti2:
        cpu_ms = cpu_model.MultiAttributeScanMs(n, 2);
        break;
      case SuiteQuery::CpuKind::kMulti3:
        cpu_ms = cpu_model.MultiAttributeScanMs(n, 3);
        break;
      case SuiteQuery::CpuKind::kQuickSelect:
        cpu_ms = cpu_model.QuickSelectMs(n);
        break;
      case SuiteQuery::CpuKind::kSum:
        cpu_ms = cpu_model.SumMs(n);
        break;
    }
    gpu_total += gpu_ms;
    cpu_total += cpu_ms;
    best_total += std::min(gpu_ms, cpu_ms);
    std::printf("%-68s %12.3f %12.3f %8s\n", q.sql, gpu_ms, cpu_ms,
                gpu_ms <= cpu_ms ? "GPU" : "CPU");
  }
  std::printf("%-68s %12.3f %12.3f\n", "TOTAL (single processor)", gpu_total,
              cpu_total);
  std::printf("%-68s %25.3f\n", "TOTAL (co-processing, per-query winner)",
              best_total);
  PrintFooter(
      "Running everything on one processor leaves time on the table in both "
      "directions; routing each query to its winner (the Planner's job) "
      "beats either alone -- the paper's closing argument, quantified.");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gpudb

int main(int argc, char** argv) {
  gpudb::bench::InitBench(argc, argv);
  return gpudb::bench::Run();
}
