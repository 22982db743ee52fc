#include "src/core/spatial_join.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/core/state_guard.h"

namespace gpudb {
namespace core {

namespace {

struct Box {
  float x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  bool Intersects(const Box& other) const {
    return x0 <= other.x1 && other.x0 <= x1 && y0 <= other.y1 &&
           other.y0 <= y1;
  }
};

Box BoundingBox(const Polygon2D& p) {
  Box box{p.vertices[0].first, p.vertices[0].second, p.vertices[0].first,
          p.vertices[0].second};
  for (const auto& [x, y] : p.vertices) {
    box.x0 = std::min(box.x0, x);
    box.y0 = std::min(box.y0, y);
    box.x1 = std::max(box.x1, x);
    box.y1 = std::max(box.y1, y);
  }
  return box;
}

Status ValidatePolygon(const gpu::Device& device, const Polygon2D& p) {
  if (p.vertices.size() < 3) {
    return Status::InvalidArgument("polygon needs at least 3 vertices");
  }
  const auto w = static_cast<float>(device.framebuffer().width());
  const auto h = static_cast<float>(device.framebuffer().height());
  for (size_t i = 0; i < p.vertices.size(); ++i) {
    const auto& [x, y] = p.vertices[i];
    if (x < 0 || y < 0 || x > w || y > h) {
      return Status::OutOfRange(
          "polygon vertex outside the framebuffer window");
    }
    const auto& q = p.vertices[(i + 1) % p.vertices.size()];
    const auto& r = p.vertices[(i + 2) % p.vertices.size()];
    const double cross =
        static_cast<double>(q.first - x) * (r.second - q.second) -
        static_cast<double>(q.second - y) * (r.first - q.first);
    if (cross <= 0) {
      return Status::InvalidArgument(
          "polygon must be strictly convex and counter-clockwise");
    }
  }
  return Status::OK();
}

/// Fan triangulation of a convex polygon into a DrawTriangles vertex list.
std::vector<gpu::Vertex> Triangulate(const Polygon2D& p) {
  std::vector<gpu::Vertex> out;
  out.reserve((p.vertices.size() - 2) * 3);
  auto vertex = [](const std::pair<float, float>& v) {
    return gpu::Vertex{v.first, v.second, 0.0f};
  };
  for (size_t i = 1; i + 1 < p.vertices.size(); ++i) {
    out.push_back(vertex(p.vertices[0]));
    out.push_back(vertex(p.vertices[i]));
    out.push_back(vertex(p.vertices[i + 1]));
  }
  return out;
}

gpu::ScissorRect ClipToPixels(const Box& box, const gpu::Device& device) {
  gpu::ScissorRect rect;
  rect.x0 = static_cast<uint32_t>(std::max(0.0f, std::floor(box.x0)));
  rect.y0 = static_cast<uint32_t>(std::max(0.0f, std::floor(box.y0)));
  rect.x1 = std::min(device.framebuffer().width(),
                     static_cast<uint32_t>(std::ceil(box.x1)));
  rect.y1 = std::min(device.framebuffer().height(),
                     static_cast<uint32_t>(std::ceil(box.y1)));
  return rect;
}

/// The two-pass screen-space test, assuming validation and bbox pruning are
/// already done. `scissor` bounds the work to the pair's overlap region.
Result<bool> OverlapTest(gpu::Device* device, const Polygon2D& a,
                         const Polygon2D& b, const gpu::ScissorRect& scissor) {
  StateGuard guard(device);
  // Passes and clears stop at the viewport, and polygons may lie anywhere
  // in the window: open the viewport to the whole framebuffer (the scissor
  // below bounds the work).
  ViewportGuard viewport(device);
  GPUDB_RETURN_NOT_OK(
      device->SetViewport(device->framebuffer().pixel_count()));
  device->UseProgram(nullptr);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetDepthTest(false, gpu::CompareOp::kAlways);
  device->SetDepthBoundsTest(false);
  device->SetColorWriteMask(false);
  device->state().scissor_test_enabled = true;
  device->state().scissor = scissor;
  device->ClearStencil(0);

  // Pass 1: rasterize A's footprint into the stencil.
  device->SetStencilTest(true, gpu::CompareOp::kAlways, 1);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kReplace);
  GPUDB_RETURN_NOT_OK(device->DrawTriangles(Triangulate(a)));

  // Pass 2: count B's pixels covered by A's footprint.
  device->SetStencilTest(true, gpu::CompareOp::kEqual, 1);
  device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kKeep);
  GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
  const Status render = device->DrawTriangles(Triangulate(b));
  GPUDB_ASSIGN_OR_RETURN(uint64_t count, device->EndOcclusionQuery());
  GPUDB_RETURN_NOT_OK(render);
  return count > 0;
}

}  // namespace

bool ConvexPolygonsIntersect(const Polygon2D& a, const Polygon2D& b) {
  // Separating axis theorem: two convex polygons are disjoint iff some edge
  // normal of either polygon separates their projections.
  auto project = [](const Polygon2D& poly, double nx, double ny,
                    double* lo, double* hi) {
    *lo = 1e300;
    *hi = -1e300;
    for (const auto& [x, y] : poly.vertices) {
      const double d = nx * x + ny * y;
      *lo = std::min(*lo, d);
      *hi = std::max(*hi, d);
    }
  };
  for (const Polygon2D* poly : {&a, &b}) {
    const size_t n = poly->vertices.size();
    for (size_t i = 0; i < n; ++i) {
      const auto& p = poly->vertices[i];
      const auto& q = poly->vertices[(i + 1) % n];
      const double nx = static_cast<double>(q.second) - p.second;
      const double ny = static_cast<double>(p.first) - q.first;
      double a_lo, a_hi, b_lo, b_hi;
      project(a, nx, ny, &a_lo, &a_hi);
      project(b, nx, ny, &b_lo, &b_hi);
      if (a_hi < b_lo || b_hi < a_lo) return false;  // separated
    }
  }
  return true;
}

Result<std::vector<std::pair<uint32_t, uint32_t>>> SpatialOverlapJoin(
    gpu::Device* device, const std::vector<Polygon2D>& layer_a,
    const std::vector<Polygon2D>& layer_b) {
  if (device == nullptr) {
    return Status::InvalidArgument("null device");
  }
  for (const Polygon2D& p : layer_a) {
    GPUDB_RETURN_NOT_OK(ValidatePolygon(*device, p));
  }
  for (const Polygon2D& p : layer_b) {
    GPUDB_RETURN_NOT_OK(ValidatePolygon(*device, p));
  }
  std::vector<Box> boxes_a(layer_a.size());
  std::vector<Box> boxes_b(layer_b.size());
  for (size_t i = 0; i < layer_a.size(); ++i) {
    boxes_a[i] = BoundingBox(layer_a[i]);
  }
  for (size_t j = 0; j < layer_b.size(); ++j) {
    boxes_b[j] = BoundingBox(layer_b[j]);
  }

  std::vector<std::pair<uint32_t, uint32_t>> result;
  for (size_t i = 0; i < layer_a.size(); ++i) {
    for (size_t j = 0; j < layer_b.size(); ++j) {
      // Deadline check between per-pair tests (lint rule R2).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      if (!boxes_a[i].Intersects(boxes_b[j])) continue;  // CPU bbox prune
      const Box overlap{std::max(boxes_a[i].x0, boxes_b[j].x0),
                        std::max(boxes_a[i].y0, boxes_b[j].y0),
                        std::min(boxes_a[i].x1, boxes_b[j].x1),
                        std::min(boxes_a[i].y1, boxes_b[j].y1)};
      const gpu::ScissorRect scissor = ClipToPixels(overlap, *device);
      if (scissor.x0 >= scissor.x1 || scissor.y0 >= scissor.y1) continue;
      GPUDB_ASSIGN_OR_RETURN(
          bool overlaps, OverlapTest(device, layer_a[i], layer_b[j], scissor));
      if (overlaps) {
        result.emplace_back(static_cast<uint32_t>(i),
                            static_cast<uint32_t>(j));
      }
    }
  }
  return result;
}

}  // namespace core
}  // namespace gpudb
