// SQL shell over the GPU session: run the paper's SQL fragment (SELECT
// <agg|*> FROM t WHERE <boolean combination>) against the TCP/IP table,
// plus the introspection statements this build adds: ANALYZE, and queries
// against the gpudb_* system tables.
//
//   $ ./build/examples/sql_shell                      # runs a demo script
//   $ ./build/examples/sql_shell "SELECT COUNT(*) FROM flows WHERE data_loss > 0"
//   $ ./build/examples/sql_shell "ANALYZE flows"
//   $ ./build/examples/sql_shell "EXPLAIN ANALYZE SELECT COUNT(*) FROM flows"
//   $ ./build/examples/sql_shell "EXPLAIN PROFILE SELECT COUNT(*) FROM flows"
//   $ ./build/examples/sql_shell "SELECT * FROM gpudb_queries"
//   $ echo "SELECT MEDIAN(data_count) FROM flows" | ./build/examples/sql_shell -
//
// Flags:
//   --trace=FILE        write a Chrome trace_event JSON of every traced span
//                       to FILE on exit (open in chrome://tracing/Perfetto)
//   --profile           enable the gpuprof deep pipeline counters for every
//                       query (EXPLAIN PROFILE computes them for its own
//                       statement even without this flag); feeds the
//                       gpudb_profile system table
//   --metrics           dump the process metrics registry after the queries
//   --metrics-prom=FILE write the registry in Prometheus text exposition
//                       format to FILE on exit
//   --slow-ms=N         flag and echo statements slower than N wall-clock ms
//   --threads=N         pixel-engine worker threads for the session's device
//                       (default: $GPUDB_THREADS, else hardware concurrency;
//                       results are bit-identical at any thread count)
//   --deadline-ms=N     per-query wall-clock deadline; an overrunning query
//                       returns DeadlineExceeded
//   --fault-seed=N      seed for the deterministic fault injector
//   --fault-rate=P      per-site fault probability in [0,1]; 0 disables
//                       injection entirely
//   --vram-budget=N     simulated video-memory budget in bytes; allocations
//                       beyond it fail with ResourceExhausted and the query
//                       degrades to the CPU tier
//   --plan-cache        cache depth planes of hot columns across queries
//                       (keyed on table version; evicted LRU-first under the
//                       VRAM budget)
//   --devices=N         run poolable statements range-sharded across a pool
//                       of N simulated devices with R=2 replica failover
//                       (1 = classic single device)
//   --tenant=NAME       tenant identity for admission quotas and query-log
//                       attribution
//   --admission-queue=N bounded admission queue: N statements may wait for
//                       an execution slot, one more is rejected immediately
//                       with ResourceExhausted (0 disables admission)
//
// Columns: data_count, data_loss, flow_rate, retransmissions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/common/query_log.h"
#include "src/common/trace.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "src/sql/session.h"

namespace {

void RunOne(gpudb::sql::Session* session, const std::string& query) {
  std::printf("gpudb> %s\n", query.c_str());
  auto result = session->Execute(query);
  if (!result.ok()) {
    std::printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  const gpudb::sql::QueryResult& r = result.ValueOrDie();
  if (r.analyzed) {
    std::printf("%s  simulated GPU time: %.3f ms\n", r.explain.c_str(),
                r.simulated_total_ms);
    if (r.profiled && !r.profile.empty()) {
      std::printf("pass profile:\n%s", r.profile.c_str());
    }
  }
  if (r.kind == gpudb::sql::Query::Kind::kSelectRows) {
    // System-table snapshots travel in table_view; user tables are resident.
    const gpudb::db::Table* view = r.table_view.get();
    if (view == nullptr) {
      auto exec = session->ExecutorFor("flows");
      if (exec.ok()) view = &exec.ValueOrDie()->table();
    }
    if (view != nullptr) {
      std::printf("%s", view->FormatRows(r.row_ids, /*max_rows=*/12).c_str());
    } else {
      std::printf("  %zu row(s)\n", r.row_ids.size());
    }
    return;
  }
  if (r.analyzed) {
    // ToString would repeat the tree; just print the value line.
    std::printf("  %s\n",
                r.ToString().substr(0, r.ToString().find('\n')).c_str());
    return;
  }
  std::printf("  %s\n", r.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file;
  std::string prom_file;
  bool dump_metrics = false;
  int threads = 0;  // 0 = device default ($GPUDB_THREADS / hardware)
  gpudb::gpu::FaultConfig faults;  // rate 0: injection off
  double deadline_ms = 0.0;        // 0 = no deadline
  uint64_t vram_budget = 0;        // 0 = the device's default budget
  bool plan_cache = false;
  int devices = 1;
  std::string tenant;
  int admission_queue = 0;  // 0 = no admission control
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
      if (threads < 1) {
        std::fprintf(stderr, "--threads requires a count >= 1\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      faults.seed = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--fault-rate=", 13) == 0) {
      faults.rate = std::atof(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--vram-budget=", 14) == 0) {
      vram_budget = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_file = argv[i] + 8;
      // Record every query, not just EXPLAIN ANALYZE ones.
      gpudb::Tracer::Global().set_enabled(true);
    } else if (std::strncmp(argv[i], "--metrics-prom=", 15) == 0) {
      prom_file = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--plan-cache") == 0) {
      plan_cache = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      gpudb::Profiler::Global().set_enabled(true);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strncmp(argv[i], "--slow-ms=", 10) == 0) {
      gpudb::QueryLog::Global().set_slow_threshold_ms(
          std::atof(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--devices=", 10) == 0) {
      devices = std::atoi(argv[i] + 10);
      if (devices < 1) {
        std::fprintf(stderr, "--devices requires a count >= 1\n");
        return 2;
      }
    } else if (std::strncmp(argv[i], "--tenant=", 9) == 0) {
      tenant = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--admission-queue=", 18) == 0) {
      admission_queue = std::atoi(argv[i] + 18);
    } else {
      args.emplace_back(argv[i]);
    }
  }

  std::printf("loading 100K-flow TCP/IP table...\n");
  auto table = gpudb::db::MakeTcpIpTable(100'000);
  if (!table.ok()) return 1;
  gpudb::gpu::Device device(1000, 1000);
  if (threads > 0) {
    if (auto s = device.SetWorkerThreads(threads); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }
  device.ConfigureFaults(faults);
  if (faults.enabled()) {
    std::printf("fault injection on: seed=%llu rate=%g\n",
                static_cast<unsigned long long>(faults.seed), faults.rate);
  }
  if (vram_budget > 0) {
    if (auto s = device.SetVideoMemoryBudget(vram_budget); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }
  gpudb::db::Catalog catalog;
  if (auto s = catalog.Register("flows", &table.ValueOrDie()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  gpudb::sql::Session session(&device, &catalog);
  gpudb::core::ResilienceOptions resilience;
  resilience.deadline_ms = deadline_ms;
  resilience.sleep = true;  // real backoff in the interactive shell
  session.set_resilience_options(resilience);
  // Multi-device tier (DESIGN.md §15): poolable statements scatter across
  // the pool; every device is its own failure domain and fault stream.
  std::unique_ptr<gpudb::gpu::DevicePool> pool;
  if (devices > 1) {
    gpudb::gpu::DevicePoolOptions pool_options;
    pool_options.devices = devices;
    pool_options.faults = faults;
    if (threads > 0) pool_options.worker_threads = threads;
    if (vram_budget > 0) pool_options.vram_budget = vram_budget;
    auto pool_or = gpudb::gpu::DevicePool::Make(pool_options);
    if (!pool_or.ok()) {
      std::fprintf(stderr, "%s\n", pool_or.status().ToString().c_str());
      return 2;
    }
    pool = std::move(pool_or).ValueOrDie();
    session.SetDevicePool(pool.get());
    std::printf("device pool on: %d devices, R=2 replica placement\n",
                devices);
  }
  std::unique_ptr<gpudb::sql::AdmissionController> admission;
  if (admission_queue > 0) {
    gpudb::sql::AdmissionOptions admission_options;
    admission_options.max_concurrent = devices > 1 ? devices : 1;
    admission_options.queue_capacity = admission_queue;
    admission = std::make_unique<gpudb::sql::AdmissionController>(
        admission_options);
    session.set_admission(admission.get());
  }
  if (!tenant.empty()) session.set_tenant(tenant);
  if (plan_cache) {
    gpudb::core::PlanOptions plan_options;
    plan_options.plane_cache = true;
    session.set_plan_options(plan_options);
    std::printf("depth-plane cache on (LRU under the VRAM budget)\n");
  }

  if (!args.empty() && args[0] == "-") {
    // Read queries line by line from stdin.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) RunOne(&session, line);
    }
  } else if (!args.empty()) {
    for (const std::string& q : args) {
      RunOne(&session, q);
    }
  } else {
    // Demo script.
    const std::vector<std::string> demo = {
        "SELECT COUNT(*) FROM flows",
        "SELECT COUNT(*) FROM flows WHERE data_loss > 0 AND flow_rate >= "
        "1000",
        "SELECT AVG(data_count) FROM flows WHERE retransmissions > 0",
        "SELECT MEDIAN(data_count) FROM flows",
        "SELECT KTH_LARGEST(data_count, 100) FROM flows",
        "SELECT MAX(flow_rate) FROM flows WHERE data_count BETWEEN 1000 AND "
        "100000",
        "SELECT COUNT(*) FROM flows WHERE NOT (data_loss = 0 OR "
        "retransmissions = 0)",
        "SELECT COUNT(*) FROM flows WHERE data_loss >= retransmissions AND "
        "data_loss > 0",
        "SELECT COUNT(data_count) FROM flows GROUP BY retransmissions",
        "SELECT * FROM flows ORDER BY data_count DESC LIMIT 5",
        // The observability story, part 1: collect statistics, then see
        // estimated vs. actual rows per operator.
        "ANALYZE flows",
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM flows WHERE data_loss > 0 AND "
        "flow_rate >= 1000",
        "EXPLAIN ANALYZE SELECT KTH_LARGEST(data_count, 100) FROM flows",
        // Deep pipeline counters: per-pass fragment fates and plane traffic.
        "EXPLAIN PROFILE SELECT COUNT(*) FROM flows WHERE data_loss > 0 AND "
        "flow_rate >= 1000",
        // Part 2: the process inspecting itself through SQL.
        "SELECT * FROM gpudb_profile",
        "SELECT * FROM gpudb_tables",
        "SELECT * FROM gpudb_columns WHERE distinct > 100",
        "SELECT COUNT(*) FROM gpudb_metrics WHERE value > 0",
        "SELECT * FROM gpudb_queries ORDER BY id DESC LIMIT 5",
        // A couple of deliberate errors to show diagnostics:
        "SELECT COUNT(*) FROM flows WHERE no_such_column > 1",
        "SELECT NOPE(data_count) FROM flows",
    };
    for (const std::string& q : demo) {
      RunOne(&session, q);
    }
  }

  if (!trace_file.empty()) {
    // Counter tracks (band timings, engine busy time) ride along as Chrome
    // trace "C" events next to the spans.
    const std::vector<gpudb::FinishedSpan> spans =
        gpudb::Tracer::Global().Finished();
    const std::vector<gpudb::CounterSample> samples =
        gpudb::Tracer::Global().CounterSamples();
    std::ofstream out(trace_file);
    out << gpudb::Tracer::ToChromeTrace(spans, samples);
    std::printf("wrote %zu span(s) and %zu counter sample(s) to %s\n",
                spans.size(), samples.size(), trace_file.c_str());
  }
  if (!prom_file.empty()) {
    std::ofstream out(prom_file);
    out << gpudb::MetricsRegistry::Global().DumpPrometheus();
    std::printf("wrote Prometheus metrics to %s\n", prom_file.c_str());
  }
  if (dump_metrics) {
    std::printf("-- metrics --\n%s",
                gpudb::MetricsRegistry::Global().DumpText().c_str());
  }
  return 0;
}
