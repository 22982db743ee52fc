#ifndef GPUDB_CORE_ANALYZE_H_
#define GPUDB_CORE_ANALYZE_H_

#include "src/common/result.h"
#include "src/core/pool_executor.h"
#include "src/db/stats.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace core {

/// \brief `ANALYZE <table>`: collects per-column statistics for the table
/// of a one-shard executor.
///
/// Row count, min and max come from the column metadata; the distinct count
/// is exact (one hash-set pass on the CPU). The equi-depth histogram fences
/// are the interesting part: integer columns compute them on the GPU with
/// PoolExecutor::Quantiles (Routine 4.5's b_max-pass binary search per
/// fence, one dispatch per column), which is exactly the
/// selectivity-estimation machinery paper Section 5.11 points at for join
/// processing. Float columns (which the depth-buffer quantile routine
/// cannot handle exactly) fall back to a CPU sort with the same rank
/// semantics, so both paths yield fences[i] = value at rank
/// ceil((i+1) * n / buckets). kNotImplemented on more than one shard.
[[nodiscard]] Result<db::TableStats> CollectTableStats(PoolExecutor* executor,
                                                       int buckets = 16);

/// \brief Estimated selectivity of a WHERE tree in [0, 1] from ANALYZE
/// statistics, using the textbook independence assumptions:
///
///   * leaf `a op const`  -> ColumnStats::SelectivityCompare (equi-depth
///     histogram interpolation; equality via 1/distinct),
///   * leaf `a op b` (attribute-attribute) -> 1/3 (the classic heuristic:
///     <, =, > are equally likely),
///   * AND -> s1 * s2, OR -> s1 + s2 - s1*s2, NOT -> 1 - s,
///   * null expression (no WHERE) -> 1.
///
/// Columns missing from `stats` contribute the conservative estimate 1.
double EstimateSelectivity(const db::TableStats& stats,
                           const predicate::ExprPtr& expr);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_ANALYZE_H_
