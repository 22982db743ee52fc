#ifndef GPUDB_CORE_SPATIAL_JOIN_H_
#define GPUDB_CORE_SPATIAL_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief A convex polygon in window coordinates (counter-clockwise
/// vertices), the spatial object of the screen-space join.
struct Polygon2D {
  std::vector<std::pair<float, float>> vertices;
};

/// \brief Spatial overlap join: all (i, j) pairs whose polygons' rasterized
/// footprints intersect, tested in screen space in the style of Sun et al.
/// [35], the prior work the paper positions itself against (Section 2.1:
/// "They use color blending capabilities available on graphics processors
/// to test if two polygons intersect in screen-space ... The technique ...
/// is quite conservative").
///
/// Bounding boxes prune pairs on the CPU (free). For each surviving pair,
/// our variant uses the stencil buffer instead of blending: polygon A is
/// rasterized into the stencil (scissored to the pair's bounding-box
/// intersection), then polygon B is rendered under an occlusion query with
/// the stencil test passing only over A's footprint. A non-zero pixel pass
/// count means the rasterized footprints overlap.
///
/// The test is exact at pixel resolution and conservative in the same sense
/// as the original: geometry is discretized to the pixel grid, so overlaps
/// thinner than a pixel can be missed and near-misses within a pixel can be
/// reported. Polygons must be strictly convex, counter-clockwise, and lie
/// inside the framebuffer.
[[nodiscard]] Result<std::vector<std::pair<uint32_t, uint32_t>>> SpatialOverlapJoin(
    gpu::Device* device, const std::vector<Polygon2D>& layer_a,
    const std::vector<Polygon2D>& layer_b);

/// CPU reference: exact convex-polygon intersection via the separating-axis
/// theorem (boundaries touching counts as overlap).
bool ConvexPolygonsIntersect(const Polygon2D& a, const Polygon2D& b);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_SPATIAL_JOIN_H_
