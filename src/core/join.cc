#include "src/core/join.h"

#include <algorithm>
#include <string>

#include "src/core/group_by.h"
#include "src/core/selection.h"

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

Result<std::vector<JoinPair>> EquiJoin(gpu::Device* device,
                                       const JoinSide& left,
                                       const JoinSide& right,
                                       const EquiJoinOptions& options) {
  GPUDB_RETURN_NOT_OK(ValidateSides(device, left, right));
  GPUDB_ASSIGN_OR_RETURN(std::vector<uint32_t> keys,
                         LeftKeys(device, left, options.max_keys));

  std::vector<JoinPair> result;
  for (uint32_t key : keys) {
    // Deadline check between per-key probes (lint rule R2).
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    // Selectivity probe on the right side: keys without partners cost one
    // occlusion-counted pass and nothing more.
    GPUDB_RETURN_NOT_OK(device->SetViewport(right.rows));
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t right_count,
        Compare(device, right.key, gpu::CompareOp::kEqual,
                static_cast<double>(key)));
    if (right_count == 0) continue;

    GPUDB_ASSIGN_OR_RETURN(
        uint64_t right_selected,
        CompareSelect(device, right.key, gpu::CompareOp::kEqual,
                      static_cast<double>(key)));
    GPUDB_ASSIGN_OR_RETURN(
        std::vector<uint32_t> right_rows,
        SelectionToRowIds(device, StencilSelection{1, right_selected},
                          right.rows));

    GPUDB_RETURN_NOT_OK(device->SetViewport(left.rows));
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t left_selected,
        CompareSelect(device, left.key, gpu::CompareOp::kEqual,
                      static_cast<double>(key)));
    GPUDB_ASSIGN_OR_RETURN(
        std::vector<uint32_t> left_rows,
        SelectionToRowIds(device, StencilSelection{1, left_selected},
                          left.rows));

    if (result.size() + left_rows.size() * right_rows.size() >
        options.max_result_pairs) {
      return Status::ResourceExhausted(
          "join result exceeds " + std::to_string(options.max_result_pairs) +
          " pairs");
    }
    for (uint32_t l : left_rows) {
      for (uint32_t r : right_rows) {
        result.push_back(JoinPair{l, r});
      }
    }
  }
  return result;
}

namespace {

Result<JoinSide> UploadJoinSide(gpu::Device* device, const db::Table& table,
                                std::string_view key_column) {
  GPUDB_ASSIGN_OR_RETURN(size_t col, table.ColumnIndex(key_column));
  const db::Column& key = table.column(col);
  if (key.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented(
        "equi-join requires integer key columns (distinct-key discovery "
        "runs the bit-search of Routine 4.5)");
  }
  const uint32_t width = static_cast<uint32_t>(std::min<uint64_t>(
      table.num_rows(), device->framebuffer().width()));
  GPUDB_ASSIGN_OR_RETURN(gpu::Texture tex, table.ColumnTexture(col, width));
  GPUDB_ASSIGN_OR_RETURN(gpu::TextureId id,
                         device->UploadTexture(std::move(tex)));
  JoinSide side;
  side.key.texture = id;
  side.key.channel = 0;
  side.key.encoding = DepthEncoding::ForColumn(key);
  side.rows = table.num_rows();
  side.key_bits = key.bit_width();
  return side;
}

}  // namespace

Result<std::vector<JoinPair>> EquiJoinTables(gpu::Device* device,
                                             const db::Table& left,
                                             std::string_view left_key,
                                             const db::Table& right,
                                             std::string_view right_key,
                                             const EquiJoinOptions& options) {
  if (device == nullptr) {
    return Status::InvalidArgument("null device");
  }
  GPUDB_ASSIGN_OR_RETURN(JoinSide left_side,
                         UploadJoinSide(device, left, left_key));
  GPUDB_ASSIGN_OR_RETURN(JoinSide right_side,
                         UploadJoinSide(device, right, right_key));
  return EquiJoin(device, left_side, right_side, options);
}

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
