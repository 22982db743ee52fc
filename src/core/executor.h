#ifndef GPUDB_CORE_EXECUTOR_H_
#define GPUDB_CORE_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/aggregates.h"
#include "src/core/compare.h"
#include "src/core/eval_cnf.h"
#include "src/core/group_by.h"
#include "src/core/semilinear.h"
#include "src/db/stats.h"
#include "src/db/table.h"
#include "src/gpu/device.h"
#include "src/predicate/cnf.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace core {

/// \brief Planner rewrite controls for an executor's selections (DESIGN.md
/// §14). Pass fusion always runs (pure win, bit-exact); the depth-plane
/// cache is opt-in (`--plan-cache`) because it trades VRAM for repeated-query
/// latency and needs a table identity for its keys.
struct PlanOptions {
  bool plane_cache = false;  ///< depth/stencil plane caching for hot columns
};

/// \brief The public query facade: executes the paper's SQL fragment
/// (SELECT <aggregate|rows> FROM table WHERE <boolean combination>) against
/// a relational table using the GPU algorithms.
///
/// The executor owns the table's GPU residency: each referenced column is
/// uploaded once as a single-channel texture (lazily, cached), and each
/// column list a semi-linear pass reads (an attribute-attribute
/// predicate's pair, a SemilinearCount's columns) is packed into one
/// multi-channel texture once. It runs the GPU
/// operators only: a device fault comes back as a Status. Retry, quarantine
/// and the CPU tier are core::PoolExecutor's dispatch ladder.
///
///   gpu::Device device(1000, 1000);
///   GPUDB_ASSIGN_OR_RETURN(auto exec, core::Executor::Make(&device, &table));
///   auto where = predicate::Expr::And(
///       predicate::Expr::Pred(0, gpu::CompareOp::kGreaterEqual, 100.0f),
///       predicate::Expr::Pred(1, gpu::CompareOp::kLess, 5.0f));
///   GPUDB_ASSIGN_OR_RETURN(uint64_t n, exec->Count(where));
class Executor {
 public:
  /// Creates an executor for `table` on `device`. Fails if the table is
  /// empty or does not fit the device framebuffer. Sets the device viewport
  /// to the table's row count. Both pointers must outlive the executor.
  [[nodiscard]] static Result<std::unique_ptr<Executor>> Make(gpu::Device* device,
                                                const db::Table* table);

  /// Evaluates a WHERE clause on the GPU, leaving the selection mask in the
  /// stencil buffer. A null expression selects every record.
  [[nodiscard]] Result<StencilSelection> Where(const predicate::ExprPtr& expr);

  /// SELECT COUNT(*) FROM t WHERE expr.
  [[nodiscard]] Result<uint64_t> Count(const predicate::ExprPtr& where);

  /// Selected rows as sorted row ids.
  [[nodiscard]] Result<std::vector<uint32_t>> SelectRowIds(const predicate::ExprPtr& where);

  /// SELECT <agg>(column) FROM t WHERE expr (null = no WHERE): the
  /// FinishAggregate of AggregatePartial.
  [[nodiscard]] Result<double> Aggregate(AggregateKind kind, std::string_view column,
                           const predicate::ExprPtr& where = nullptr);

  /// The same statement short of its final step: the selection count
  /// beside the value, from one WHERE. AVG runs the SUM; MIN/MAX/AVG over
  /// an empty selection stop after the WHERE. The shard pool merges these.
  [[nodiscard]] Result<PartialAggregate> AggregatePartial(
      AggregateKind kind, std::string_view column,
      const predicate::ExprPtr& where = nullptr);

  /// SELECT the k-th largest value of `column` among rows matching `where`.
  [[nodiscard]] Result<uint32_t> KthLargest(std::string_view column, uint64_t k,
                              const predicate::ExprPtr& where = nullptr);

  /// ORDER BY column: all row ids sorted by the column's value (ties broken
  /// by ascending row id when ascending). Runs the GPU bitonic network over
  /// (key, row id) pairs -- the sorting future-work of Section 7, priced
  /// honestly at n log^2 n fragment operations (see ext_bitonic_sort).
  [[nodiscard]] Result<std::vector<uint32_t>> OrderByRowIds(std::string_view column,
                                              bool ascending = true);

  /// Range query with the depth-bounds fast path (Routine 4.4); equivalent
  /// to Where(Between(...)) but one comparison pass cheaper.
  [[nodiscard]] Result<uint64_t> RangeCount(std::string_view column, double low,
                              double high);

  /// Semi-linear count: #records with dot(weights, columns) op b, over up to
  /// four columns given as (column name, weight) pairs.
  [[nodiscard]] Result<uint64_t> SemilinearCount(
      const std::vector<std::pair<std::string, float>>& weighted_columns,
      gpu::CompareOp op, float b);

  /// SELECT key, <agg>(value) FROM t GROUP BY key, for a low-cardinality
  /// integer key column (OLAP roll-up; see core/group_by.h).
  [[nodiscard]] Result<std::vector<GroupByRow>> GroupBy(std::string_view key_column,
                                          std::string_view value_column,
                                          AggregateKind kind,
                                          uint64_t max_groups = 256);

  /// q-quantiles of an integer column (equi-depth histogram boundaries).
  [[nodiscard]] Result<std::vector<uint32_t>> Quantiles(std::string_view column, int q);

  const db::Table& table() const { return *table_; }
  gpu::Device& device() { return *device_; }

  /// Attaches an ANALYZE statistics snapshot (shared with the db::Catalog;
  /// may be null to detach). The executor holds its share until the next
  /// call, so a re-ANALYZE elsewhere can neither free nor rewrite what a
  /// running statement reads. With stats attached, Where() tags each
  /// selection span with `est_rows` -- the histogram-based cardinality
  /// estimate -- so EXPLAIN ANALYZE reports estimated vs. actual rows, and
  /// estimates off by more than 2x increment the `planner.misestimates`
  /// counter.
  void set_table_stats(std::shared_ptr<const db::TableStats> stats) {
    stats_ = std::move(stats);
  }

  /// Planner rewrite controls (the plane cache) for this executor's
  /// selections. Never changes results -- only the pass sequence.
  void set_plan_options(const PlanOptions& options) { plan_options_ = options; }
  const PlanOptions& plan_options() const { return plan_options_; }

  /// Name of the catalog table backing `table_`, for depth-plane cache
  /// keys. A registered table never changes, so the name (with column,
  /// encoding and viewport) pins down every cached plane's bits. Without an
  /// identity the plane cache is inert.
  void SetTableIdentity(std::string name) { table_name_ = std::move(name); }

  /// The GPU binding (texture/channel/encoding) for a column; uploads the
  /// column texture on first use. Exposed for benchmarks that drive the
  /// low-level routines directly.
  [[nodiscard]] Result<AttributeBinding> BindingFor(size_t column_index);

 private:
  Executor(gpu::Device* device, const db::Table* table);

  /// Fraction of the table a selection covers, for span tags.
  double Selectivity(uint64_t selected) const {
    return table_->num_rows() == 0
               ? 0.0
               : static_cast<double>(selected) /
                     static_cast<double>(table_->num_rows());
  }

  /// Texture holding `columns` in channels 0.. in order (at most four),
  /// packed and uploaded on first use: an attribute pair's for the
  /// semi-linear rewrite, a SemilinearCount's one or two.
  [[nodiscard]] Result<gpu::TextureId> PackedTexture(
      const std::vector<size_t>& columns);

  /// Lowers CNF clauses / DNF terms into GPU predicates (the per-predicate
  /// lowering is identical for both normal forms).
  [[nodiscard]] Result<std::vector<GpuClause>> Lower(
      const std::vector<std::vector<predicate::SimplePredicate>>& groups);

  gpu::Device* device_;
  const db::Table* table_;
  std::shared_ptr<const db::TableStats> stats_;  ///< ANALYZE snapshot
  PlanOptions plan_options_;
  std::string table_name_;  ///< catalog identity for plane-cache keys
  std::vector<gpu::TextureId> column_textures_;  // -1 = not uploaded yet
  std::map<std::vector<size_t>, gpu::TextureId> packed_textures_;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_EXECUTOR_H_
