#ifndef GPUDB_SQL_EXPLAIN_H_
#define GPUDB_SQL_EXPLAIN_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/trace.h"
#include "src/core/pool_executor.h"
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

/// \brief Executes an already-parsed query as EXPLAIN ANALYZE or EXPLAIN
/// PROFILE on a one-shard executor (more shards return kNotImplemented:
/// per-pass attribution needs one device).
///
/// Everything the analysis reads is scoped to this statement. Its spans go
/// to a TraceCapture that lives as long as the call, under a root "query"
/// span, so no other thread's spans mix in and nothing is retained after
/// it (if Tracer::Global() is enabled, it receives the spans too). The
/// result carries the rendered tree, the spans, and the PerfModel
/// breakdown of the statement's dispatches (`executor->last_stats()
/// .counters`, the delta the query log prices too); on one shard that is
/// the root span's window, so its total_ms equals breakdown.TotalMs().
///
/// For EXPLAIN PROFILE (query.explain_profile) the statement's
/// gpu::PassLogScope also asks its device for deep counters, and the result
/// carries its passes grouped by label in first-appearance order (the fold
/// of Profiler::RecordPass) and their rendered table
/// (QueryResult::profile). Those counters are deterministic, so the table
/// is byte-identical across worker-thread counts.
[[nodiscard]] Result<QueryResult> ExecuteAnalyze(core::PoolExecutor* executor,
                                                 const Query& query,
                                                 std::string_view input);

}  // namespace sql
}  // namespace gpudb

#endif  // GPUDB_SQL_EXPLAIN_H_
