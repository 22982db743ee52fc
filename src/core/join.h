#ifndef GPUDB_CORE_JOIN_H_
#define GPUDB_CORE_JOIN_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/core/compare.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// Options for the distinct-key join.
struct EquiJoinOptions {
  /// Cap on the driving side's distinct-key cardinality; each key costs
  /// rendering passes, so high-cardinality keys do not fit this execution
  /// model (the reason the paper leaves general joins to future work).
  uint64_t max_keys = 1024;
};

/// \brief A GPU-resident join side: the key attribute, how many of the
/// viewport's records belong to this relation, and the key's bit width.
struct JoinSide {
  AttributeBinding key;
  uint64_t rows = 0;
  int key_bits = 0;
};

/// \brief Exact equi-join cardinality via distinct-key iteration -- a
/// concrete take on the "join" entry of the paper's future-work list
/// (Section 7), built from its own primitives:
///
///  1. the left side's distinct keys are discovered in ascending order
///     (selection + masked MIN per key, as in GROUP BY);
///  2. for each key, an occlusion-count probe on the right side prunes keys
///     with no partners (the per-key exact analogue of the histogram-based
///     selectivity pruning of Section 5.11);
///  3. surviving keys add the product of the two sides' occlusion counts.
///
/// Nothing is materialized. This is what a query optimizer wants from the
/// GPU (compare EstimateEquiJoinSize for the histogram approximation). Put
/// the lower-cardinality relation on the left. Both relations' key textures
/// must be resident on the same device; the viewport is switched per side.
[[nodiscard]] Result<uint64_t> EquiJoinSize(gpu::Device* device, const JoinSide& left,
                              const JoinSide& right,
                              const EquiJoinOptions& options = {});

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_JOIN_H_
