#ifndef GPUDB_CORE_SPATIAL_H_
#define GPUDB_CORE_SPATIAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/eval_cnf.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief The half-plane a*x + b*y <= c.
struct HalfPlane {
  float a = 0;
  float b = 0;
  float c = 0;
};

/// \brief Converts a convex polygon (>= 3 vertices in counter-clockwise
/// order) into its bounding half-planes. Fails if the polygon is not
/// strictly convex and counter-clockwise.
[[nodiscard]] Result<std::vector<HalfPlane>> ConvexPolygonToHalfPlanes(
    const std::vector<std::pair<float, float>>& ccw_vertices);

/// \brief Selects the points of an (x, y) two-channel texture that lie
/// inside a convex polygon (>= 3 vertices in counter-clockwise order).
///
/// This is the paper's motivating GIS application of semi-linear sets
/// (Section 4.1.2: "Applications encountered in Geographical Information
/// Systems ... define geometric data objects as linear inequalities of the
/// attributes"): each of the polygon's half-planes is one semi-linear
/// predicate, and region membership is their conjunction, evaluated with
/// EvalCNF.
///
/// On return the stencil marks the selected points; the count is returned.
[[nodiscard]] Result<StencilSelection> SelectPointsInConvexPolygon(
    gpu::Device* device, gpu::TextureId xy_texture,
    const std::vector<std::pair<float, float>>& ccw_vertices);

/// CPU reference: point-in-half-planes test.
bool PointInHalfPlanes(float x, float y,
                       const std::vector<HalfPlane>& half_planes);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_SPATIAL_H_
