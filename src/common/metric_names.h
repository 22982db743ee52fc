#ifndef GPUDB_COMMON_METRIC_NAMES_H_
#define GPUDB_COMMON_METRIC_NAMES_H_

#include <string_view>

namespace gpudb {
namespace metric_names {

/// \brief Central registry of every metric name the engine emits.
///
/// Dashboards, alert rules, and the Prometheus scrape config key off these
/// strings, so a counter that is renamed at a call site but not here (or
/// vice versa) leaves a panel silently flat. gpulint rule R5 closes the
/// loop: every string literal passed to `MetricsRegistry::counter()`,
/// `gauge()`, or `histogram()` -- or to `Tracer::Counter()`, whose track
/// names double as metric names -- anywhere under src/ must match an entry
/// in this table, and names built from a dynamic suffix (e.g.
/// `"executor." + op`) must match a `*` wildcard entry.
///
/// To add a metric: pick a dotted name, add it here (keep the table
/// sorted), then use the same literal at the call site. Removing a metric
/// means removing it from both places — gpulint does not flag unused
/// registry entries, but reviewers should prune them.
inline constexpr std::string_view kAll[] = {
    "admission.queue_depth",
    "admission.rejected",
    "analyze.tables",
    "executor.*",
    "faults.injected",
    "faults.injected.alloc",
    "faults.injected.occlusion",
    "faults.injected.pass",
    "faults.injected.readback",
    "gpu.alpha_killed",
    "gpu.band_imbalance",
    "gpu.band_ms",
    "gpu.bytes_read_back",
    "gpu.bytes_swapped",
    "gpu.bytes_uploaded",
    "gpu.depth_killed",
    "gpu.engine_busy_ms",
    "gpu.fragments_generated",
    "gpu.occlusion_readbacks",
    "gpu.passes",
    "gpu.plane_bytes_read",
    "gpu.plane_bytes_written",
    "gpu.stencil_killed",
    "gpu.texture_swap_ins",
    "plancache.evictions",
    "plancache.hits",
    "plancache.misses",
    "planner.fused_plans",
    "planner.misestimates",
    "pool.device_state",
    "pool.failovers",
    "queries.deadline_exceeded",
    "queries.dropped_status",
    "queries.dropped_status.*",
    "queries.fell_back",
    "queries.fell_back.*",
    "queries.retried",
    "queries.retry_attempts",
    "sql.exec_ms",
    "sql.queries",
    "sql.query_wall_ms",
    "sql.queue_wait_ms",
    "sql.slow_queries",
    "tenant.throttled",
};

}  // namespace metric_names
}  // namespace gpudb

#endif  // GPUDB_COMMON_METRIC_NAMES_H_
