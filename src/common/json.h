#ifndef GPUDB_COMMON_JSON_H_
#define GPUDB_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace gpudb {
namespace json {

/// \brief Minimal JSON document model, enough to validate and inspect the
/// observability layer's own output (Chrome traces, metrics dumps, bench
/// result files) without an external dependency.
///
/// Numbers are kept as double; object member order is not preserved
/// (std::map), which is fine for validation and field lookup.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Value Array(std::vector<Value> items);
  static Value Object(std::map<std::string, Value> members);

  Type type() const { return type_; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& as_array() const { return array_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// \brief Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Positions in error messages are byte
/// offsets.
[[nodiscard]] Result<Value> Parse(std::string_view input);

/// \brief Escapes and quotes a string for embedding in JSON output.
std::string Quote(std::string_view s);

/// \brief Formats a double the way the observability exporters embed it:
/// integral values (within the 53-bit exact range) print without a decimal
/// point, everything else with enough digits to round-trip. NaN/Inf (not
/// representable in JSON) degrade to 0.
std::string Number(double value);

}  // namespace json
}  // namespace gpudb

#endif  // GPUDB_COMMON_JSON_H_
