#include "src/db/stats.h"

#include <algorithm>
#include <cmath>

namespace gpudb {
namespace db {

double ColumnStats::CumulativeFraction(double v) const {
  if (row_count == 0) return 0.0;
  if (buckets() == 0) {
    // No histogram: assume uniform over [min, max].
    if (max <= min) return v >= min ? 1.0 : 0.0;
    return std::clamp((v - min) / (max - min), 0.0, 1.0);
  }
  if (v < fences.front()) return 0.0;
  if (v >= fences.back()) return 1.0;
  // Last fence index i with fences[i] <= v; interpolate within the span
  // [fences[i], fences[i+1]), which holds 1/buckets of the rows.
  const auto it = std::upper_bound(fences.begin(), fences.end(), v);
  const auto i = static_cast<size_t>(it - fences.begin()) - 1;
  const double per_bucket = 1.0 / static_cast<double>(buckets());
  const double lo = fences[i];
  const double hi = fences[i + 1];
  const double within = hi > lo ? (v - lo) / (hi - lo) : 1.0;
  return std::clamp((static_cast<double>(i) + within) * per_bucket, 0.0, 1.0);
}

double ColumnStats::SelectivityCompare(gpu::CompareOp op, double value) const {
  if (row_count == 0) return 0.0;
  const bool in_range = value >= min && value <= max;
  // Uniform-frequency assumption: each distinct value covers 1/distinct of
  // the rows. Degenerate stats (distinct 0) fall back to one row.
  const double eq =
      in_range ? std::min(1.0, 1.0 / static_cast<double>(std::max<uint64_t>(
                                        distinct, 1)))
               : 0.0;
  switch (op) {
    case gpu::CompareOp::kNever:
      return 0.0;
    case gpu::CompareOp::kAlways:
      return 1.0;
    case gpu::CompareOp::kEqual:
      return eq;
    case gpu::CompareOp::kNotEqual:
      return 1.0 - eq;
    case gpu::CompareOp::kLessEqual:
      return CumulativeFraction(value);
    case gpu::CompareOp::kLess:
      return std::max(0.0, CumulativeFraction(value) - eq);
    case gpu::CompareOp::kGreater:
      return 1.0 - CumulativeFraction(value);
    case gpu::CompareOp::kGreaterEqual:
      return std::min(1.0, 1.0 - CumulativeFraction(value) + eq);
  }
  return 1.0;
}

const ColumnStats* TableStats::Find(std::string_view column) const {
  for (const ColumnStats& c : columns) {
    if (c.name == column) return &c;
  }
  return nullptr;
}

}  // namespace db
}  // namespace gpudb
