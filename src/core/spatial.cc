#include "src/core/spatial.h"

#include <string>

#include "src/core/semilinear.h"

namespace gpudb {
namespace core {

Result<std::vector<HalfPlane>> ConvexPolygonToHalfPlanes(
    const std::vector<std::pair<float, float>>& ccw_vertices) {
  const size_t n = ccw_vertices.size();
  if (n < 3) {
    return Status::InvalidArgument("a polygon needs at least 3 vertices");
  }
  // Convexity + orientation check: every consecutive cross product must be
  // positive (strictly convex, counter-clockwise).
  for (size_t i = 0; i < n; ++i) {
    const auto& p = ccw_vertices[i];
    const auto& q = ccw_vertices[(i + 1) % n];
    const auto& r = ccw_vertices[(i + 2) % n];
    const double cross =
        static_cast<double>(q.first - p.first) * (r.second - q.second) -
        static_cast<double>(q.second - p.second) * (r.first - q.first);
    if (cross <= 0) {
      return Status::InvalidArgument(
          "vertices must form a strictly convex counter-clockwise polygon "
          "(violated at vertex " +
          std::to_string((i + 1) % n) + ")");
    }
  }
  std::vector<HalfPlane> planes;
  planes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& p = ccw_vertices[i];
    const auto& q = ccw_vertices[(i + 1) % n];
    // Interior of a CCW polygon is left of each edge:
    //   cross(q - p, r - p) >= 0
    // which rearranges to  (ey)x + (-ex)y <= ey*px - ex*py.
    const float ex = q.first - p.first;
    const float ey = q.second - p.second;
    HalfPlane h;
    h.a = ey;
    h.b = -ex;
    h.c = ey * p.first - ex * p.second;
    planes.push_back(h);
  }
  return planes;
}

Result<StencilSelection> SelectPointsInConvexPolygon(
    gpu::Device* device, gpu::TextureId xy_texture,
    const std::vector<std::pair<float, float>>& ccw_vertices) {
  GPUDB_ASSIGN_OR_RETURN(std::vector<HalfPlane> planes,
                         ConvexPolygonToHalfPlanes(ccw_vertices));
  // Each half-plane is one semi-linear predicate over the (x, y) channels;
  // membership is their conjunction (Routine 4.3 with singleton clauses).
  std::vector<GpuClause> clauses;
  clauses.reserve(planes.size());
  for (const HalfPlane& h : planes) {
    SemilinearQuery query;
    query.weights = {h.a, h.b, 0, 0};
    query.op = gpu::CompareOp::kLessEqual;
    query.b = h.c;
    clauses.push_back({GpuPredicate::Semilinear(xy_texture, query)});
  }
  return EvalCnf(device, clauses);
}

bool PointInHalfPlanes(float x, float y,
                       const std::vector<HalfPlane>& half_planes) {
  for (const HalfPlane& h : half_planes) {
    if (h.a * x + h.b * y > h.c) return false;
  }
  return true;
}

}  // namespace core
}  // namespace gpudb
