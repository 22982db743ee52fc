#ifndef GPUDB_DB_STATS_H_
#define GPUDB_DB_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/gpu/types.h"

namespace gpudb {
namespace db {

/// \brief Per-column statistics collected by `ANALYZE <table>`.
///
/// `fences` is an equi-depth histogram: fences[0] is the column minimum and
/// fences[i] (i >= 1) the value at rank ceil(i * n / buckets), so each of
/// the `buckets()` spans [fences[i], fences[i+1]] holds ~n/buckets rows.
/// Integer columns collect fences on the GPU via the b_max-pass quantile
/// binary search (core/histogram, Routine 4.5 machinery); float columns use
/// a CPU sort. Selectivity answers interpolate within a span, the classic
/// uniform-within-bucket assumption.
struct ColumnStats {
  std::string name;
  uint64_t row_count = 0;
  double min = 0.0;
  double max = 0.0;
  uint64_t distinct = 0;         ///< Exact distinct-value count.
  std::vector<double> fences;    ///< buckets()+1 equi-depth boundaries.

  int buckets() const {
    return fences.size() < 2 ? 0 : static_cast<int>(fences.size()) - 1;
  }

  /// Estimated fraction of values <= v, in [0,1].
  double CumulativeFraction(double v) const;

  /// Estimated selectivity of `column op value`. Equality uses the 1/distinct
  /// uniform assumption; inequalities use the histogram.
  double SelectivityCompare(gpu::CompareOp op, double value) const;
};

/// \brief Statistics for one table, stored in the Catalog after ANALYZE and
/// consumed by the Planner/Executor for estimated-vs-actual row reporting.
/// `columns` is parallel to the table's column order.
struct TableStats {
  std::string table_name;
  uint64_t row_count = 0;
  int histogram_buckets = 0;
  std::vector<ColumnStats> columns;

  bool analyzed() const { return !columns.empty(); }

  /// Stats of a named column; nullptr when absent.
  const ColumnStats* Find(std::string_view column) const;
};

}  // namespace db
}  // namespace gpudb

#endif  // GPUDB_DB_STATS_H_
