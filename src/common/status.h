#ifndef GPUDB_COMMON_STATUS_H_
#define GPUDB_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace gpudb {

/// \brief Machine-readable category of a failure.
///
/// The library does not use exceptions (see DESIGN.md); every fallible API
/// returns a Status or a Result<T>. Codes follow the Arrow/Abseil convention.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotImplemented = 3,
  kFailedPrecondition = 4,
  kInternal = 5,
  kResourceExhausted = 6,
  kNotFound = 7,
  kDeadlineExceeded = 9,
  kDeviceLost = 10,
};

/// \brief Returns a human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// \brief Result of an operation that can fail.
///
/// A Status is cheap to copy in the success case (a null pointer); failure
/// states carry a code and a message. Typical use:
///
///   Status s = device.RenderQuad(depth);
///   if (!s.ok()) return s;
///
/// or, with the convenience macro:
///
///   GPUDB_RETURN_NOT_OK(device.RenderQuad(depth));
///
/// The class is [[nodiscard]]: silently dropping a Status is a build error
/// (-Werror=unused-result) and a gpulint R1 diagnostic. The rare vetted
/// log-and-continue path must go through DropStatus() so the drop is
/// counted in metrics.
class [[nodiscard]] Status {
 public:
  /// Constructs a success status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      state_ = std::make_shared<State>(State{code, std::move(message)});
    }
  }

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  [[nodiscard]] static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  [[nodiscard]] static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  [[nodiscard]] static Status DeviceLost(std::string msg) {
    return Status(StatusCode::kDeviceLost, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return state_ == nullptr; }

  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  /// The failure message; empty for OK statuses.
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->message;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsDeviceLost() const { return code() == StatusCode::kDeviceLost; }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  // Null for OK; shared so Status copies are cheap.
  std::shared_ptr<const State> state_;
};

/// The one sanctioned way to drop a Status on a log-and-continue path.
///
/// Best-effort work (telemetry snapshots, query-log writes, cache refresh)
/// sometimes must swallow a failure rather than abort the query. A bare
/// discard is invisible; DropStatus makes the drop observable: every non-OK
/// drop increments the `queries.dropped_status` counter (and a per-code
/// `queries.dropped_status.<Code>` counter), so a dashboard can tell
/// "nothing failed" from "failures were eaten". OK statuses are free.
///
/// gpulint rule R1 treats DropStatus as consumption; a `(void)` cast is NOT
/// accepted for Status-returning calls.
void DropStatus(const Status& status, std::string_view context);

/// Propagates a non-OK Status to the caller.
#define GPUDB_RETURN_NOT_OK(expr)                \
  do {                                           \
    ::gpudb::Status _st = (expr);                \
    if (!_st.ok()) return _st;                   \
  } while (0)

}  // namespace gpudb

#endif  // GPUDB_COMMON_STATUS_H_
