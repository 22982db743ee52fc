#ifndef GPUDB_DB_COLUMN_H_
#define GPUDB_DB_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace gpudb {
namespace db {

/// \brief Logical type of a column.
///
/// The paper stores every attribute "as a floating-point number encoded in a
/// 32 bit RGBA texture" (Section 5.1); integer attributes are exact up to 24
/// bits. kInt24 columns hold integral float values in [0, 2^24) and are the
/// only type the depth-buffer algorithms (Compare, KthLargest, Accumulator)
/// accept exactly; kFloat32 columns are used by semi-linear queries.
enum class ColumnType {
  kInt24,
  kFloat32,
};

/// \brief A named column of float-encoded attribute values.
class Column {
 public:
  /// Creates an integer column. Fails if any value is negative, non-integral,
  /// or >= 2^24 (not exactly representable; paper Section 3.3).
  static Result<Column> MakeInt24(std::string name,
                                  const std::vector<uint32_t>& values);

  /// Creates a float column (no range restriction).
  static Result<Column> MakeFloat(std::string name, std::vector<float> values);

  /// Creates a dictionary-encoded string column: the distinct strings are
  /// sorted into a dictionary and each row stores its code as a kInt24
  /// value, so the GPU algorithms operate on codes (order-preserving within
  /// the dictionary) while display layers render the strings. This is how
  /// the introspection system tables (db/catalog) carry metric names and
  /// SQL text through the float-texture engine.
  static Result<Column> MakeDictionary(std::string name,
                                       const std::vector<std::string>& values);

  const std::string& name() const { return name_; }
  ColumnType type() const { return type_; }
  size_t size() const { return values_.size(); }
  const std::vector<float>& values() const { return values_; }
  float value(size_t i) const { return values_[i]; }

  /// Value as integer; only meaningful for kInt24 columns.
  uint32_t int_value(size_t i) const {
    return static_cast<uint32_t>(values_[i]);
  }

  /// True for dictionary-encoded string columns (type() is kInt24; the
  /// stored values are codes into dictionary()).
  bool has_dictionary() const { return !dictionary_.empty(); }
  const std::vector<std::string>& dictionary() const { return dictionary_; }

  /// The dictionary string behind row i's code (dictionary columns only).
  const std::string& dict_value(size_t i) const {
    return dictionary_[int_value(i)];
  }

  float min() const { return min_; }
  float max() const { return max_; }

  /// Number of bits needed to represent the maximum value; the paper's
  /// `b_max` driving the pass counts of KthLargest and Accumulator.
  /// Zero-filled columns report 1 so bit-loop algorithms still terminate.
  int bit_width() const;

  /// The smallest value v in the column such that at least `fraction` of all
  /// values are <= v (fraction in [0,1]). Used to target the selectivities
  /// of the paper's experiments (e.g. 60% selectivity = predicate
  /// `x >= Percentile(0.4)`).
  float Percentile(double fraction) const;

 private:
  Column(std::string name, ColumnType type, std::vector<float> values);

  std::string name_;
  ColumnType type_;
  std::vector<float> values_;
  std::vector<std::string> dictionary_;  ///< Sorted; empty unless dict column.
  float min_;
  float max_;
};

}  // namespace db
}  // namespace gpudb

#endif  // GPUDB_DB_COLUMN_H_
