#include "src/db/column.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/bit_util.h"
#include "src/gpu/texture.h"

namespace gpudb {
namespace db {

Column::Column(std::string name, ColumnType type, std::vector<float> values)
    : name_(std::move(name)), type_(type), values_(std::move(values)) {
  auto [lo, hi] = std::minmax_element(values_.begin(), values_.end());
  min_ = values_.empty() ? 0.0f : *lo;
  max_ = values_.empty() ? 0.0f : *hi;
}

Result<Column> Column::MakeInt24(std::string name,
                                 const std::vector<uint32_t>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("column '" + name + "' has no values");
  }
  std::vector<float> as_float(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] >= gpu::kMaxExactInt) {
      return Status::OutOfRange(
          "column '" + name + "': value " + std::to_string(values[i]) +
          " is not exactly representable in a float texture (max 2^24-1)");
    }
    as_float[i] = static_cast<float>(values[i]);
  }
  return Column(std::move(name), ColumnType::kInt24, std::move(as_float));
}

Result<Column> Column::MakeFloat(std::string name, std::vector<float> values) {
  if (values.empty()) {
    return Status::InvalidArgument("column '" + name + "' has no values");
  }
  for (float v : values) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("column '" + name +
                                     "' contains a non-finite value");
    }
  }
  return Column(std::move(name), ColumnType::kFloat32, std::move(values));
}

Result<Column> Column::MakeDictionary(std::string name,
                                      const std::vector<std::string>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("column '" + name + "' has no values");
  }
  std::vector<std::string> dictionary = values;
  std::sort(dictionary.begin(), dictionary.end());
  dictionary.erase(std::unique(dictionary.begin(), dictionary.end()),
                   dictionary.end());
  if (dictionary.size() >= gpu::kMaxExactInt) {
    return Status::OutOfRange("column '" + name +
                              "': dictionary exceeds 2^24-1 distinct values");
  }
  std::vector<float> codes(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const auto it =
        std::lower_bound(dictionary.begin(), dictionary.end(), values[i]);
    codes[i] = static_cast<float>(it - dictionary.begin());
  }
  Column column(std::move(name), ColumnType::kInt24, std::move(codes));
  column.dictionary_ = std::move(dictionary);
  return column;
}

int Column::bit_width() const {
  if (type_ != ColumnType::kInt24) return 0;
  const auto max_int = static_cast<uint64_t>(max_);
  return std::max(1, bit_util::BitWidth(max_int));
}

float Column::Percentile(double fraction) const {
  std::vector<float> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(fraction, 0.0, 1.0);
  if (clamped <= 0.0) return sorted.front();
  const auto rank = static_cast<size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  return sorted[std::min(rank, sorted.size()) - 1];
}

}  // namespace db
}  // namespace gpudb
