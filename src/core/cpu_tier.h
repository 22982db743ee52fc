#ifndef GPUDB_CORE_CPU_TIER_H_
#define GPUDB_CORE_CPU_TIER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/core/aggregates.h"
#include "src/db/table.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace core {
namespace cpu_tier {

/// \brief The CPU fallback tier (DESIGN.md §11), as free functions.
///
/// Exact scalar equivalents of the GPU operators over a db::Table: the last
/// rung of PoolExecutor's dispatch ladder, for a pool of one as for a
/// shard of many (DESIGN.md §15). Each helper mirrors the GPU method's
/// validation order and error messages, so a query answered by either tier
/// -- or recombined from per-shard CPU answers -- is indistinguishable to
/// the caller, including which error it gets for bad arguments.

/// WHERE mask over every row; a null expression selects everything.
[[nodiscard]] Result<std::vector<uint8_t>> SelectionMask(
    const db::Table& table, const predicate::ExprPtr& where);

/// SELECT COUNT(*) WHERE `where`.
[[nodiscard]] Result<uint64_t> Count(const db::Table& table,
                                     const predicate::ExprPtr& where);

/// Selected rows as sorted row ids.
[[nodiscard]] Result<std::vector<uint32_t>> RowIds(
    const db::Table& table, const predicate::ExprPtr& where);

/// SELECT <agg>(column) WHERE `where`, short of FinishAggregate: the
/// selection count beside the value (the SUM for AVG; none for an empty
/// MIN/MAX).
[[nodiscard]] Result<PartialAggregate> AggregatePartial(
    const db::Table& table, AggregateKind kind, std::string_view column,
    const predicate::ExprPtr& where);

/// The k-th largest value of `column` among rows matching `where`.
[[nodiscard]] Result<uint32_t> KthLargest(const db::Table& table,
                                          std::string_view column, uint64_t k,
                                          const predicate::ExprPtr& where);

}  // namespace cpu_tier
}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_CPU_TIER_H_
