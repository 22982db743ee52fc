#ifndef GPUDB_SQL_EXPLAIN_H_
#define GPUDB_SQL_EXPLAIN_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/trace.h"
#include "src/core/executor.h"
#include "src/sql/parser.h"

namespace gpudb {
namespace sql {

/// \brief Renders the spans of one traced query as an indented operator
/// tree.
///
/// Operator spans (those the executor opens via GpuOpSpan) print one line
/// each with the operator's simulated total and self time -- self time is
/// total minus the totals of its direct children, so summing the self column
/// over the whole tree reproduces the root's total exactly. Device-level
/// spans ("pass:*" and "gpu.*") are rolled up into one bracketed summary
/// line per operator: pass count, fragments generated vs passed, and bytes
/// moved across the bus.
std::string FormatSpanTree(const std::vector<FinishedSpan>& spans);

/// \brief Executes an already-parsed query under tracing (EXPLAIN ANALYZE
/// and EXPLAIN PROFILE).
///
/// Enables the global tracer for the duration of the query (restoring its
/// previous state afterwards), wraps execution in a root "query" span, and
/// fills QueryResult's analysis fields: the rendered tree, the run's spans,
/// and the PerfModel breakdown of the query's device-counter delta. The
/// root span's total_ms equals breakdown.TotalMs() by construction.
///
/// For EXPLAIN PROFILE (query.explain_profile) the Profiler is additionally
/// enabled for the query's duration and the result carries the per-pass
/// deep-counter groups and their rendered table (QueryResult::profile);
/// those counters are deterministic, so the table is byte-identical across
/// worker-thread counts.
///
/// `Exec` is core::Executor or a one-shard core::PoolExecutor (more shards
/// return kNotImplemented: per-pass attribution needs one device).
template <typename Exec>
[[nodiscard]] Result<QueryResult> ExecuteAnalyze(Exec* executor,
                                                 const Query& query,
                                                 std::string_view input);

}  // namespace sql
}  // namespace gpudb

#endif  // GPUDB_SQL_EXPLAIN_H_
