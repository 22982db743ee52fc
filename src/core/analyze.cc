#include "src/core/analyze.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "src/common/metrics.h"
#include "src/core/op_span.h"

namespace gpudb {
namespace core {

namespace {

/// Exact distinct count; one hash-set pass (float bit patterns are stable
/// keys because column values never hold NaN).
uint64_t CountDistinct(const std::vector<float>& values) {
  std::unordered_set<float> seen(values.begin(), values.end());
  return seen.size();
}

/// CPU equi-depth fences for float columns: fences[i] (i >= 1) is the value
/// at rank ceil(i * n / buckets), matching GpuQuantiles' rank convention.
std::vector<double> CpuFences(const std::vector<float>& values, int buckets) {
  std::vector<float> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  const uint64_t n = sorted.size();
  std::vector<double> fences;
  fences.reserve(static_cast<size_t>(buckets) + 1);
  fences.push_back(sorted.front());
  for (int i = 1; i <= buckets; ++i) {
    const uint64_t rank =
        (static_cast<uint64_t>(i) * n + buckets - 1) / buckets;  // ceil
    fences.push_back(sorted[std::max<uint64_t>(rank, 1) - 1]);
  }
  return fences;
}

double Estimate(const db::TableStats& stats, const predicate::Expr& expr);

/// Leaf estimate for `a_i op rhs`. TableStats::columns is parallel to the
/// table's column order, so the predicate's column index selects its stats
/// directly; columns missing from the stats estimate 1 (no information).
double EstimateLeaf(const db::TableStats& stats,
                    const predicate::SimplePredicate& pred) {
  if (pred.rhs_is_attr) {
    // Attribute-attribute comparison: the classic "three outcomes, all
    // equally likely" heuristic.
    return 1.0 / 3.0;
  }
  if (pred.attr >= stats.columns.size()) return 1.0;
  return stats.columns[pred.attr].SelectivityCompare(
      pred.op, static_cast<double>(pred.constant));
}

double Estimate(const db::TableStats& stats, const predicate::Expr& expr) {
  switch (expr.kind()) {
    case predicate::Expr::Kind::kPredicate:
      return EstimateLeaf(stats, expr.pred());
    case predicate::Expr::Kind::kAnd: {
      double s = 1.0;
      for (const auto& child : expr.children()) {
        s *= Estimate(stats, *child);
      }
      return s;
    }
    case predicate::Expr::Kind::kOr: {
      // Inclusion-exclusion under independence: 1 - prod(1 - s_i).
      double miss = 1.0;
      for (const auto& child : expr.children()) {
        miss *= 1.0 - Estimate(stats, *child);
      }
      return 1.0 - miss;
    }
    case predicate::Expr::Kind::kNot:
      return 1.0 - Estimate(stats, *expr.children().front());
  }
  return 1.0;
}

}  // namespace

Result<db::TableStats> CollectTableStats(PoolExecutor* executor,
                                         int buckets) {
  if (executor == nullptr) {
    return Status::InvalidArgument("CollectTableStats requires an executor");
  }
  if (buckets < 1 || buckets > 256) {
    return Status::InvalidArgument("histogram buckets must be in [1, 256]");
  }
  GPUDB_RETURN_NOT_OK(executor->RequireOneShard("ANALYZE"));
  const db::Table& table = executor->table();
  GpuOpSpan op("Analyze", &executor->device());
  op.AddTag("rows", table.num_rows());
  op.AddTag("columns", table.num_columns());
  op.AddTag("buckets", buckets);

  db::TableStats stats;
  stats.row_count = table.num_rows();
  stats.histogram_buckets = buckets;
  stats.columns.reserve(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const db::Column& column = table.column(i);
    db::ColumnStats cs;
    cs.name = column.name();
    cs.row_count = column.size();
    cs.min = column.min();
    cs.max = column.max();
    cs.distinct = CountDistinct(column.values());
    if (column.type() == db::ColumnType::kInt24) {
      // GPU path: one CopyToDepth + `buckets` bit-searches (Routine 4.5).
      GPUDB_ASSIGN_OR_RETURN(std::vector<uint32_t> fences,
                             executor->Quantiles(column.name(), buckets));
      cs.fences.reserve(fences.size() + 1);
      cs.fences.push_back(column.min());
      for (uint32_t f : fences) cs.fences.push_back(f);
    } else {
      cs.fences = CpuFences(column.values(), buckets);
    }
    stats.columns.push_back(std::move(cs));
  }
  MetricsRegistry::Global().counter("analyze.tables").Increment();
  return stats;
}

double EstimateSelectivity(const db::TableStats& stats,
                           const predicate::ExprPtr& expr) {
  if (expr == nullptr) return 1.0;
  return std::clamp(Estimate(stats, *expr), 0.0, 1.0);
}

}  // namespace core
}  // namespace gpudb
