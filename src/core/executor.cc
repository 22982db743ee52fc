#include "src/core/executor.h"

#include <algorithm>
#include <string>

#include "src/common/metrics.h"
#include "src/core/analyze.h"
#include "src/core/bitonic_sort.h"
#include "src/core/depth_encoding.h"
#include "src/core/histogram.h"
#include "src/core/kth_largest.h"
#include "src/core/op_span.h"
#include "src/core/range.h"
#include "src/core/selection.h"

namespace gpudb {
namespace core {

namespace {

/// Query-facade metrics: how often each executor entry point runs.
MetricCounter& OpCounter(std::string_view op) {
  return MetricsRegistry::Global().counter("executor." + std::string(op));
}

}  // namespace

Executor::Executor(gpu::Device* device, const db::Table* table)
    : device_(device),
      table_(table),
      column_textures_(table->num_columns(), -1) {}

Result<std::unique_ptr<Executor>> Executor::Make(gpu::Device* device,
                                                 const db::Table* table) {
  if (device == nullptr || table == nullptr) {
    return Status::InvalidArgument("Executor requires a device and a table");
  }
  if (table->num_rows() == 0 || table->num_columns() == 0) {
    return Status::InvalidArgument("Executor requires a non-empty table");
  }
  if (table->num_rows() > device->framebuffer().pixel_count()) {
    return Status::ResourceExhausted(
        "table has " + std::to_string(table->num_rows()) +
        " rows but the device framebuffer holds only " +
        std::to_string(device->framebuffer().pixel_count()) +
        " pixels; use a larger framebuffer or partition the table");
  }
  GPUDB_RETURN_NOT_OK(device->SetViewport(table->num_rows()));
  return std::unique_ptr<Executor>(new Executor(device, table));
}

Result<AttributeBinding> Executor::BindingFor(size_t column_index) {
  if (column_index >= table_->num_columns()) {
    return Status::OutOfRange("column index " + std::to_string(column_index) +
                              " out of range");
  }
  if (column_textures_[column_index] < 0) {
    const uint32_t width = static_cast<uint32_t>(
        std::min<uint64_t>(table_->num_rows(), db::kDefaultTextureWidth));
    GPUDB_ASSIGN_OR_RETURN(gpu::Texture tex,
                           table_->ColumnTexture(column_index, width));
    GPUDB_ASSIGN_OR_RETURN(gpu::TextureId id,
                           device_->UploadTexture(std::move(tex)));
    column_textures_[column_index] = id;
  }
  AttributeBinding binding;
  binding.texture = column_textures_[column_index];
  binding.channel = 0;
  binding.encoding = DepthEncoding::ForColumn(table_->column(column_index));
  binding.column = static_cast<int>(column_index);
  return binding;
}

Result<gpu::TextureId> Executor::PackedTexture(
    const std::vector<size_t>& columns) {
  auto it = packed_textures_.find(columns);
  if (it != packed_textures_.end()) return it->second;
  const uint32_t width = static_cast<uint32_t>(
      std::min<uint64_t>(table_->num_rows(), db::kDefaultTextureWidth));
  GPUDB_ASSIGN_OR_RETURN(gpu::Texture tex, table_->ToTexture(columns, width));
  GPUDB_ASSIGN_OR_RETURN(gpu::TextureId id,
                         device_->UploadTexture(std::move(tex)));
  packed_textures_.emplace(columns, id);
  return id;
}

Result<std::vector<GpuClause>> Executor::Lower(
    const std::vector<std::vector<predicate::SimplePredicate>>& groups) {
  std::vector<GpuClause> clauses;
  clauses.reserve(groups.size());
  for (const auto& clause : groups) {
    GpuClause lowered;
    lowered.reserve(clause.size());
    for (const predicate::SimplePredicate& p : clause) {
      if (p.rhs_is_attr) {
        // a_i op a_j  ->  a_i - a_j op 0 as a semi-linear query (Section
        // 4.1.2) over a two-channel texture.
        GPUDB_ASSIGN_OR_RETURN(gpu::TextureId tex,
                               PackedTexture({p.attr, p.rhs_attr}));
        lowered.push_back(GpuPredicate::Semilinear(
            tex, SemilinearQuery::AttrCompare(0, p.op, 1)));
      } else {
        GPUDB_ASSIGN_OR_RETURN(AttributeBinding binding, BindingFor(p.attr));
        lowered.push_back(
            GpuPredicate::DepthCompare(binding, p.op, p.constant));
      }
    }
    clauses.push_back(std::move(lowered));
  }
  return clauses;
}

Result<StencilSelection> Executor::Where(const predicate::ExprPtr& expr) {
  OpCounter("where").Increment();
  GpuOpSpan op("Where", device_);
  op.AddTag("rows", table_->num_rows());
  // With ANALYZE statistics attached, estimate the result cardinality up
  // front and compare against the actual occlusion-query count afterwards;
  // EXPLAIN ANALYZE renders the pair as `rows est=X actual=Y`.
  const bool have_stats = stats_ != nullptr && stats_->analyzed();
  uint64_t est_rows = table_->num_rows();
  if (expr == nullptr) {
    op.AddTag("normal_form", "all");
    if (have_stats) op.AddTag("est_rows", est_rows);
    GPUDB_ASSIGN_OR_RETURN(StencilSelection sel, SelectAll(device_));
    op.AddTag("selected", sel.count);
    op.AddTag("selectivity", Selectivity(sel.count));
    return sel;
  }
  GPUDB_RETURN_NOT_OK(expr->Validate(*table_));
  if (have_stats) {
    const double est_sel = EstimateSelectivity(*stats_, expr);
    est_rows = static_cast<uint64_t>(
        est_sel * static_cast<double>(table_->num_rows()) + 0.5);
    op.AddTag("est_rows", est_rows);
  }
  // Normal-form choice: convert to both CNF and DNF and evaluate whichever
  // needs fewer simple predicates (each predicate is roughly one copy + one
  // comparison pass). A naturally-conjunctive query stays CNF, a
  // naturally-disjunctive one stays DNF, and an expression whose conversion
  // blows up in one form falls back to the other.
  auto cnf = predicate::ToCnf(expr);
  auto dnf = predicate::ToDnf(expr);
  if (!cnf.ok() && !dnf.ok()) {
    return cnf.status();
  }
  const bool use_cnf =
      cnf.ok() && (!dnf.ok() || cnf.ValueOrDie().predicate_count() <=
                                    dnf.ValueOrDie().predicate_count());
  // Planner pass rewrite (DESIGN.md §14): the cache needs a catalog table
  // identity for its keys; without one it stays inert.
  const bool use_cache = plan_options_.plane_cache && !table_name_.empty();
  SelectionExecOptions exec;
  exec.use_cache = use_cache;
  exec.table = table_name_;
  StencilSelection sel;
  if (use_cnf) {
    GPUDB_ASSIGN_OR_RETURN(std::vector<GpuClause> clauses,
                           Lower(cnf.ValueOrDie().clauses));
    op.AddTag("normal_form", "cnf");
    op.AddTag("clauses", clauses.size());
    exec.plan = PlanSelectionPasses(clauses, NormalForm::kCnf, use_cache);
    GPUDB_ASSIGN_OR_RETURN(sel, EvalCnf(device_, clauses, &exec));
  } else {
    GPUDB_ASSIGN_OR_RETURN(std::vector<GpuTerm> terms,
                           Lower(dnf.ValueOrDie().terms));
    op.AddTag("normal_form", "dnf");
    op.AddTag("terms", terms.size());
    exec.plan = PlanSelectionPasses(terms, NormalForm::kDnf, use_cache);
    GPUDB_ASSIGN_OR_RETURN(sel, EvalDnf(device_, terms, &exec));
  }
  if (exec.plan.Rewritten()) {
    MetricsRegistry::Global().counter("planner.fused_plans").Increment();
  }
  // EXPLAIN annotations (DESIGN.md §14): how many passes ran fused, and
  // whether the plane cache answered the attribute copies.
  op.AddTag("fused", exec.fused_passes);
  if (exec.cache_hits + exec.cache_misses > 0) {
    op.AddTag("cache", exec.cache_misses == 0
                           ? "hit"
                           : (exec.cache_hits == 0 ? "miss" : "mixed"));
  }
  op.AddTag("selected", sel.count);
  op.AddTag("selectivity", Selectivity(sel.count));
  if (have_stats) {
    // Factor-of-2 misestimate test with one-row smoothing so empty
    // selections do not divide by zero.
    const double actual = static_cast<double>(std::max<uint64_t>(sel.count, 1));
    const double est = static_cast<double>(std::max<uint64_t>(est_rows, 1));
    if (actual / est > 2.0 || est / actual > 2.0) {
      MetricsRegistry::Global().counter("planner.misestimates").Increment();
    }
  }
  return sel;
}

Result<double> Executor::Aggregate(AggregateKind kind, std::string_view column,
                                   const predicate::ExprPtr& where) {
  GPUDB_ASSIGN_OR_RETURN(PartialAggregate partial,
                         AggregatePartial(kind, column, where));
  return FinishAggregate(kind, partial);
}

Result<uint64_t> Executor::Count(const predicate::ExprPtr& where) {
  OpCounter("count").Increment();
  GpuOpSpan op("Count", device_);
  op.AddTag("rows", table_->num_rows());
  GPUDB_ASSIGN_OR_RETURN(StencilSelection sel, Where(where));
  op.AddTag("selected", sel.count);
  op.AddTag("selectivity", Selectivity(sel.count));
  return sel.count;
}

Result<std::vector<uint32_t>> Executor::SelectRowIds(
    const predicate::ExprPtr& where) {
  OpCounter("select_row_ids").Increment();
  GpuOpSpan op("SelectRowIds", device_);
  GPUDB_ASSIGN_OR_RETURN(StencilSelection sel, Where(where));
  return SelectionToRowIds(device_, sel, table_->num_rows());
}

Result<PartialAggregate> Executor::AggregatePartial(
    AggregateKind kind, std::string_view column,
    const predicate::ExprPtr& where) {
  OpCounter("aggregate").Increment();
  GpuOpSpan op("Aggregate", device_);
  op.AddTag("kind", ToString(kind));
  op.AddTag("column", column);
  GPUDB_ASSIGN_OR_RETURN(size_t col, table_->ColumnIndex(column));
  const db::Column& c = table_->column(col);
  if (kind != AggregateKind::kCount &&
      c.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented(
        "GPU aggregation of '" + std::string(column) +
        "' requires an integer column (Accumulator and KthLargest operate on "
        "binary representations; paper Sections 4.3.2-4.3.3)");
  }
  std::optional<StencilSelection> selection;
  if (where != nullptr) {
    GPUDB_ASSIGN_OR_RETURN(StencilSelection sel, Where(where));
    selection = sel;
  }
  GPUDB_ASSIGN_OR_RETURN(AttributeBinding binding, BindingFor(col));
  PartialAggregate partial;
  partial.count = selection.has_value() ? selection->count
                                        : device_->viewport_pixels();
  // MIN/MAX/AVG of nothing: FinishAggregate reports it, and a shard merge
  // skips it, without a pass beyond the WHERE.
  if (partial.count == 0 && (kind == AggregateKind::kMin ||
                             kind == AggregateKind::kMax ||
                             kind == AggregateKind::kAvg)) {
    return partial;
  }
  GPUDB_ASSIGN_OR_RETURN(
      partial.value,
      AggregateAttribute(device_,
                         kind == AggregateKind::kAvg ? AggregateKind::kSum
                                                     : kind,
                         binding, c.bit_width(), selection));
  return partial;
}

Result<uint32_t> Executor::KthLargest(std::string_view column, uint64_t k,
                                         const predicate::ExprPtr& where) {
  OpCounter("kth_largest").Increment();
  GPUDB_ASSIGN_OR_RETURN(size_t col, table_->ColumnIndex(column));
  const db::Column& c = table_->column(col);
  if (c.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented(
        "KthLargest requires an integer column (Routine 4.5 builds the "
        "result bit by bit)");
  }
  KthOptions options;
  if (where != nullptr) {
    GPUDB_ASSIGN_OR_RETURN(StencilSelection sel, Where(where));
    options.selection = sel;
  }
  GPUDB_ASSIGN_OR_RETURN(AttributeBinding binding, BindingFor(col));
  return core::KthLargest(device_, binding, c.bit_width(), k, options);
}

Result<std::vector<uint32_t>> Executor::OrderByRowIds(
    std::string_view column, bool ascending) {
  OpCounter("order_by").Increment();
  GpuOpSpan op("OrderByRowIds", device_);
  op.AddTag("column", column);
  op.AddTag("ascending", ascending ? "true" : "false");
  op.AddTag("rows", table_->num_rows());
  GPUDB_ASSIGN_OR_RETURN(size_t col, table_->ColumnIndex(column));
  const db::Column& c = table_->column(col);
  std::vector<uint32_t> row_ids(table_->num_rows());
  for (uint32_t i = 0; i < row_ids.size(); ++i) row_ids[i] = i;
  GPUDB_ASSIGN_OR_RETURN(SortedPairs sorted,
                         BitonicSortPairs(device_, c.values(), row_ids));
  if (!ascending) {
    std::reverse(sorted.payloads.begin(), sorted.payloads.end());
  }
  return sorted.payloads;
}

Result<uint64_t> Executor::RangeCount(std::string_view column, double low,
                                         double high) {
  OpCounter("range_count").Increment();
  GpuOpSpan op("RangeCount", device_);
  op.AddTag("column", column);
  GPUDB_ASSIGN_OR_RETURN(size_t col, table_->ColumnIndex(column));
  GPUDB_ASSIGN_OR_RETURN(AttributeBinding binding, BindingFor(col));
  return RangeSelect(device_, binding, low, high);
}

Result<uint64_t> Executor::SemilinearCount(
    const std::vector<std::pair<std::string, float>>& weighted_columns,
    gpu::CompareOp op, float b) {
  OpCounter("semilinear_count").Increment();
  GpuOpSpan span("SemilinearCount", device_);
  span.AddTag("columns", weighted_columns.size());
  if (weighted_columns.empty() || weighted_columns.size() > 8) {
    return Status::InvalidArgument(
        "semi-linear queries take 1-8 weighted columns (vectors longer than "
        "one texture's four channels are split across two texture units, "
        "paper Section 4.1.2)");
  }
  std::vector<size_t> cols;
  cols.reserve(weighted_columns.size());
  for (const auto& [name, weight] : weighted_columns) {
    GPUDB_ASSIGN_OR_RETURN(size_t col, table_->ColumnIndex(name));
    cols.push_back(col);
  }
  if (weighted_columns.size() <= static_cast<size_t>(gpu::kMaxChannels)) {
    SemilinearQuery query;
    query.op = op;
    query.b = b;
    for (size_t i = 0; i < weighted_columns.size(); ++i) {
      query.weights[i] = weighted_columns[i].second;
    }
    GPUDB_ASSIGN_OR_RETURN(gpu::TextureId id, PackedTexture(cols));
    return SemilinearSelect(device_, id, query);
  }

  // 5-8 columns: split across two textures and run the wide program.
  const std::vector<size_t> first(cols.begin(), cols.begin() + 4);
  const std::vector<size_t> second(cols.begin() + 4, cols.end());
  std::array<float, 8> weights = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < weighted_columns.size(); ++i) {
    weights[i] = weighted_columns[i].second;
  }
  GPUDB_ASSIGN_OR_RETURN(gpu::TextureId id_a, PackedTexture(first));
  GPUDB_ASSIGN_OR_RETURN(gpu::TextureId id_b, PackedTexture(second));
  return SemilinearSelectWide(device_, id_a, id_b, weights, op, b);
}

Result<std::vector<GroupByRow>> Executor::GroupBy(
    std::string_view key_column, std::string_view value_column,
    AggregateKind kind, uint64_t max_groups) {
  OpCounter("group_by").Increment();
  GpuOpSpan op("GroupBy", device_);
  op.AddTag("key", key_column);
  op.AddTag("value", value_column);
  op.AddTag("kind", ToString(kind));
  GPUDB_ASSIGN_OR_RETURN(size_t key_col, table_->ColumnIndex(key_column));
  GPUDB_ASSIGN_OR_RETURN(size_t value_col, table_->ColumnIndex(value_column));
  const db::Column& key = table_->column(key_col);
  const db::Column& value = table_->column(value_col);
  if (key.type() != db::ColumnType::kInt24 ||
      value.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented(
        "GROUP BY requires integer key and value columns");
  }
  GPUDB_ASSIGN_OR_RETURN(AttributeBinding key_attr, BindingFor(key_col));
  GPUDB_ASSIGN_OR_RETURN(AttributeBinding value_attr, BindingFor(value_col));
  return GroupByAggregate(device_, key_attr, key.bit_width(), value_attr,
                          value.bit_width(), kind, max_groups);
}

Result<std::vector<uint32_t>> Executor::Quantiles(std::string_view column,
                                                     int q) {
  OpCounter("quantiles").Increment();
  GpuOpSpan op("Quantiles", device_);
  op.AddTag("column", column);
  op.AddTag("q", q);
  GPUDB_ASSIGN_OR_RETURN(size_t col, table_->ColumnIndex(column));
  const db::Column& c = table_->column(col);
  if (c.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented("quantiles require an integer column");
  }
  GPUDB_ASSIGN_OR_RETURN(AttributeBinding attr, BindingFor(col));
  return GpuQuantiles(device_, attr, c.bit_width(), q);
}

}  // namespace core
}  // namespace gpudb
