#ifndef GPUDB_CORE_PARTITION_H_
#define GPUDB_CORE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/core/compare.h"
#include "src/db/column.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief Out-of-core execution for tables larger than the framebuffer --
/// the technique the paper prescribes in Section 6.1 ("Memory Management"):
/// "due to the limited video memory, we may not be able to copy very large
/// databases into GPU memory. In such situations, we would use out-of-core
/// techniques and swap textures in and out of video memory."
///
/// A column is split into tiles that each fit the device; every operation
/// processes the tiles in sequence and combines the per-tile occlusion
/// counts, which are additive:
///  * COUNT: sum of tile counts;
///  * SUM: the Accumulator's per-bit counts sum across tiles;
///  * k-th largest: each step of Routine 4.5 needs only the total
///    #{v >= m}, which is the sum of per-tile comparison counts, so the
///    bitwise search works unchanged at tiles x bit_width passes.
/// Options for partitioned execution.
struct PartitionOptions {
  /// Keep per-tile min/max "zone maps" (computed while slicing) and use them
  /// to skip tiles a comparison cannot partially intersect: an all-matching
  /// tile contributes its record count with no rendering at all, a
  /// non-matching tile is skipped outright. Order statistics benefit most --
  /// each bit-search step prunes every tile whose range lies entirely on one
  /// side of the threshold. Disable for the ablation benchmark.
  bool use_zone_maps = true;
};

class PartitionedColumn {
 public:
  /// Splits `column` (which must be an Int24 column) into device-sized tiles
  /// and uploads each as its own texture (modeling the texture working set;
  /// each tile upload is charged to the bus counters once).
  [[nodiscard]] static Result<PartitionedColumn> Make(gpu::Device* device,
                                        const db::Column& column,
                                        const PartitionOptions& options = {});

  size_t tile_count() const { return tiles_.size(); }
  uint64_t total_records() const { return total_records_; }
  int bit_width() const { return bit_width_; }

  /// COUNT(*) WHERE value op constant, across all tiles.
  [[nodiscard]] Result<uint64_t> Count(gpu::CompareOp op, double constant) const;

  /// Exact SUM across all tiles (Routine 4.6 per tile).
  [[nodiscard]] Result<uint64_t> Sum() const;

  /// k-th largest across all tiles (Routine 4.5 with cross-tile counts).
  [[nodiscard]] Result<uint32_t> KthLargest(uint64_t k) const;

  /// Median across all tiles.
  [[nodiscard]] Result<uint32_t> Median() const;

  /// Tiles skipped by zone-map pruning since construction.
  uint64_t tiles_pruned() const { return tiles_pruned_; }

 private:
  struct Tile {
    AttributeBinding binding;
    uint64_t records = 0;
    float min = 0;  ///< zone map
    float max = 0;
  };

  /// Zone-map verdict for `value op constant` over a tile's range.
  enum class TileMatch { kAll, kNone, kPartial };
  static TileMatch Classify(const Tile& tile, gpu::CompareOp op,
                            double constant);

  PartitionedColumn(gpu::Device* device, int bit_width,
                    const PartitionOptions& options)
      : device_(device), bit_width_(bit_width), options_(options) {}

  /// Total #{v op constant} summed over tiles; shared by Count and the
  /// KthLargest inner loop.
  [[nodiscard]] Result<uint64_t> CrossTileCount(gpu::CompareOp op, double constant) const;

  gpu::Device* device_;
  int bit_width_;
  PartitionOptions options_;
  uint64_t total_records_ = 0;
  std::vector<Tile> tiles_;
  mutable uint64_t tiles_pruned_ = 0;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_PARTITION_H_
