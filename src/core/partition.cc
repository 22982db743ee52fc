#include "src/core/partition.h"

#include <algorithm>
#include <string>

#include "src/common/bit_util.h"
#include "src/core/accumulator.h"
#include "src/core/state_guard.h"

namespace gpudb {
namespace core {

Result<PartitionedColumn> PartitionedColumn::Make(
    gpu::Device* device, const db::Column& column,
    const PartitionOptions& options) {
  if (device == nullptr) {
    return Status::InvalidArgument("null device");
  }
  if (column.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented(
        "partitioned execution currently supports Int24 columns (the "
        "bit-loop algorithms require exact integer encoding)");
  }
  if (column.size() == 0) {
    return Status::InvalidArgument("empty column");
  }
  PartitionedColumn part(device, column.bit_width(), options);
  const uint64_t tile_capacity = device->framebuffer().pixel_count();
  const uint32_t width = device->framebuffer().width();
  const auto& values = column.values();
  for (uint64_t start = 0; start < values.size(); start += tile_capacity) {
    const uint64_t count =
        std::min<uint64_t>(tile_capacity, values.size() - start);
    const std::vector<float> slice(values.begin() + start,
                                   values.begin() + start + count);
    GPUDB_ASSIGN_OR_RETURN(gpu::Texture tex,
                           gpu::Texture::FromColumns({&slice}, width));
    GPUDB_ASSIGN_OR_RETURN(gpu::TextureId id,
                           device->UploadTexture(std::move(tex)));
    Tile tile;
    tile.binding.texture = id;
    tile.binding.channel = 0;
    tile.binding.encoding = DepthEncoding::ExactInt24();
    tile.records = count;
    // Zone map: computed while slicing, the way real loaders build them.
    const auto [lo, hi] = std::minmax_element(slice.begin(), slice.end());
    tile.min = *lo;
    tile.max = *hi;
    part.tiles_.push_back(tile);
    part.total_records_ += count;
  }
  return part;
}

PartitionedColumn::TileMatch PartitionedColumn::Classify(const Tile& tile,
                                                         gpu::CompareOp op,
                                                         double constant) {
  const double lo = tile.min;
  const double hi = tile.max;
  switch (op) {
    case gpu::CompareOp::kLess:
      if (hi < constant) return TileMatch::kAll;
      if (lo >= constant) return TileMatch::kNone;
      return TileMatch::kPartial;
    case gpu::CompareOp::kLessEqual:
      if (hi <= constant) return TileMatch::kAll;
      if (lo > constant) return TileMatch::kNone;
      return TileMatch::kPartial;
    case gpu::CompareOp::kEqual:
      if (lo == hi && lo == constant) return TileMatch::kAll;
      if (constant < lo || constant > hi) return TileMatch::kNone;
      return TileMatch::kPartial;
    case gpu::CompareOp::kGreaterEqual:
      if (lo >= constant) return TileMatch::kAll;
      if (hi < constant) return TileMatch::kNone;
      return TileMatch::kPartial;
    case gpu::CompareOp::kGreater:
      if (lo > constant) return TileMatch::kAll;
      if (hi <= constant) return TileMatch::kNone;
      return TileMatch::kPartial;
    case gpu::CompareOp::kNotEqual:
      if (constant < lo || constant > hi) return TileMatch::kAll;
      if (lo == hi && lo == constant) return TileMatch::kNone;
      return TileMatch::kPartial;
    case gpu::CompareOp::kAlways:
      return TileMatch::kAll;
    case gpu::CompareOp::kNever:
      return TileMatch::kNone;
  }
  return TileMatch::kPartial;
}

Result<uint64_t> PartitionedColumn::CrossTileCount(gpu::CompareOp op,
                                                   double constant) const {
  uint64_t total = 0;
  for (const Tile& tile : tiles_) {
    // Deadline check between per-tile passes (lint rule R2).
    GPUDB_RETURN_NOT_OK(device_->CheckInterrupt());
    if (options_.use_zone_maps) {
      const TileMatch match = Classify(tile, op, constant);
      if (match == TileMatch::kAll) {
        total += tile.records;
        ++tiles_pruned_;
        continue;
      }
      if (match == TileMatch::kNone) {
        ++tiles_pruned_;
        continue;
      }
    }
    GPUDB_RETURN_NOT_OK(device_->SetViewport(tile.records));
    GPUDB_ASSIGN_OR_RETURN(uint64_t n,
                           Compare(device_, tile.binding, op, constant));
    total += n;
  }
  return total;
}

Result<uint64_t> PartitionedColumn::Count(gpu::CompareOp op,
                                          double constant) const {
  return CrossTileCount(op, constant);
}

Result<uint64_t> PartitionedColumn::Sum() const {
  uint64_t total = 0;
  for (const Tile& tile : tiles_) {
    GPUDB_RETURN_NOT_OK(device_->SetViewport(tile.records));
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t tile_sum,
        Accumulate(device_, tile.binding.texture, 0, bit_width_));
    total += tile_sum;
  }
  return total;
}

Result<uint32_t> PartitionedColumn::KthLargest(uint64_t k) const {
  if (k == 0 || k > total_records_) {
    return Status::OutOfRange("k=" + std::to_string(k) +
                              " out of range for " +
                              std::to_string(total_records_) + " records");
  }
  // Routine 4.5 with the count of each step summed across tiles. Each step
  // costs tiles x (copy + comparison) passes -- the price of not fitting in
  // video memory, as Section 6.1 anticipates.
  uint64_t x = 0;
  for (int i = bit_width_ - 1; i >= 0; --i) {
    // Deadline check between bit-probe rounds (lint rule R2).
    GPUDB_RETURN_NOT_OK(device_->CheckInterrupt());
    const uint64_t tentative = x + bit_util::PowerOfTwo(i);
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t count,
        CrossTileCount(gpu::CompareOp::kGreaterEqual,
                       static_cast<double>(tentative)));
    if (count > k - 1) x = tentative;
  }
  return static_cast<uint32_t>(x);
}

Result<uint32_t> PartitionedColumn::Median() const {
  // Median = ceil(n/2)-th smallest = (n - ceil(n/2) + 1)-th largest.
  const uint64_t k_smallest = (total_records_ + 1) / 2;
  return KthLargest(total_records_ - k_smallest + 1);
}

}  // namespace core
}  // namespace gpudb
