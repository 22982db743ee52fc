#ifndef GPUDB_COMMON_RESULT_H_
#define GPUDB_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "src/common/status.h"

namespace gpudb {

/// \brief Either a value of type T or a non-OK Status.
///
/// Mirrors arrow::Result / absl::StatusOr. Constructing a Result from an OK
/// Status is a programming error (there would be no value to return).
///
///   Result<uint64_t> r = Count(device, pred);
///   if (!r.ok()) return r.status();
///   uint64_t n = r.ValueOrDie();
///
/// Like Status, Result is [[nodiscard]]: a dropped Result loses both the
/// value and the failure, so the compiler and gpulint rule R1 reject it.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit conversion from a value (the common success path).
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit conversion from a failure Status.
  Result(Status status) : rep_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(rep_).ok() &&
           "Result constructed from an OK Status");
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The failure status, or OK if this Result holds a value.
  [[nodiscard]] Status status() const {
    return ok() ? Status::OK() : std::get<Status>(rep_);
  }

  /// The contained value. Must only be called when ok().
  const T& ValueOrDie() const& {
    assert(ok() && "ValueOrDie called on errored Result");
    return std::get<T>(rep_);
  }
  T& ValueOrDie() & {
    assert(ok() && "ValueOrDie called on errored Result");
    return std::get<T>(rep_);
  }
  T&& ValueOrDie() && {
    assert(ok() && "ValueOrDie called on errored Result");
    return std::move(std::get<T>(rep_));
  }

  /// Alias matching absl::StatusOr for reader familiarity.
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }

 private:
  std::variant<Status, T> rep_;
};

/// Assigns the value of a Result expression to `lhs`, or propagates its
/// Status. `lhs` may include a declaration, e.g.
///   GPUDB_ASSIGN_OR_RETURN(uint64_t n, Count(device));
#define GPUDB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).ValueOrDie();

#define GPUDB_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define GPUDB_ASSIGN_OR_RETURN_NAME(x, y) GPUDB_ASSIGN_OR_RETURN_CONCAT(x, y)

#define GPUDB_ASSIGN_OR_RETURN(lhs, expr)                                     \
  GPUDB_ASSIGN_OR_RETURN_IMPL(                                                \
      GPUDB_ASSIGN_OR_RETURN_NAME(_gpudb_result_, __COUNTER__), lhs, expr)

}  // namespace gpudb

#endif  // GPUDB_COMMON_RESULT_H_
