#include "src/core/join.h"

#include <vector>

#include "src/core/group_by.h"

namespace gpudb {
namespace core {

namespace {

Status ValidateSides(gpu::Device* device, const JoinSide& left,
                     const JoinSide& right) {
  if (device == nullptr) {
    return Status::InvalidArgument("null device");
  }
  for (const JoinSide* side : {&left, &right}) {
    if (side->rows == 0) {
      return Status::InvalidArgument("join side has no rows");
    }
    if (side->rows > device->framebuffer().pixel_count()) {
      return Status::ResourceExhausted(
          "join side exceeds the framebuffer; partition first");
    }
    if (side->key_bits < 1 || side->key_bits > 24) {
      return Status::InvalidArgument("key_bits must be in [1, 24]");
    }
  }
  return Status::OK();
}

/// Distinct keys of the left side, with the viewport pointed at it.
Result<std::vector<uint32_t>> LeftKeys(gpu::Device* device,
                                       const JoinSide& left,
                                       uint64_t max_keys) {
  GPUDB_RETURN_NOT_OK(device->SetViewport(left.rows));
  return DistinctValues(device, left.key, left.key_bits, max_keys);
}

}  // namespace

Result<uint64_t> EquiJoinSize(gpu::Device* device, const JoinSide& left,
                              const JoinSide& right,
                              const EquiJoinOptions& options) {
  GPUDB_RETURN_NOT_OK(ValidateSides(device, left, right));
  GPUDB_ASSIGN_OR_RETURN(std::vector<uint32_t> keys,
                         LeftKeys(device, left, options.max_keys));
  uint64_t size = 0;
  for (uint32_t key : keys) {
    // Deadline check between per-key probes (lint rule R2).
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    GPUDB_RETURN_NOT_OK(device->SetViewport(right.rows));
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t right_count,
        Compare(device, right.key, gpu::CompareOp::kEqual,
                static_cast<double>(key)));
    if (right_count == 0) continue;
    GPUDB_RETURN_NOT_OK(device->SetViewport(left.rows));
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t left_count,
        Compare(device, left.key, gpu::CompareOp::kEqual,
                static_cast<double>(key)));
    size += left_count * right_count;
  }
  return size;
}

}  // namespace core
}  // namespace gpudb
