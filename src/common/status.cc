#include "src/common/status.h"

#include "src/common/metrics.h"

namespace gpudb {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kDeviceLost:
      return "DeviceLost";
  }
  return "Unknown";
}

void DropStatus(const Status& status, std::string_view context) {
  if (status.ok()) return;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("queries.dropped_status").Increment();
  std::string per_code("queries.dropped_status.");
  per_code += StatusCodeToString(status.code());
  registry.counter(per_code).Increment();
  (void)context;  // Recorded for readers of the call site, not telemetry.
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code()));
  out += ": ";
  out += message();
  return out;
}

}  // namespace gpudb
