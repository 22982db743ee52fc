#ifndef GPUDB_GPU_RASTERIZER_H_
#define GPUDB_GPU_RASTERIZER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace gpudb {
namespace gpu {

/// \brief Scissor rectangle in window coordinates, half-open:
/// pixels with x in [x0, x1) and y in [y0, y1) pass.
struct ScissorRect {
  uint32_t x0 = 0, y0 = 0;
  uint32_t x1 = 0, y1 = 0;

  bool Contains(uint32_t x, uint32_t y) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }
};

/// \brief A vertex as DrawTriangles takes it: window coordinates (pixels)
/// and window depth in [0,1]. There is no vertex transform; every algorithm
/// draws in the window space its fragments address records by.
struct Vertex {
  float x = 0, y = 0;
  float depth = 0;
};

/// \brief A fragment emitted by the setup/rasterization stage: pixel
/// coordinates plus interpolated depth.
struct RasterFragment {
  uint32_t x = 0, y = 0;
  float depth = 0;
};

namespace raster_detail {

/// Signed area of (a,b,p) in double precision; integer-cornered quads and
/// half-integer sample points stay exact.
inline double Orient(double ax, double ay, double bx, double by, double px,
                     double py) {
  return (bx - ax) * (py - ay) - (by - ay) * (px - ax);
}

/// Top-left fill rule: a fragment exactly on an edge belongs to the
/// triangle only if that edge is a top or left edge, so a shared edge is
/// covered exactly once. With the positive-orientation winding used below
/// (y grows downward): a "left" edge goes downward (b.y > a.y), a "top"
/// edge is horizontal going leftward (b.x < a.x).
inline bool IsTopLeft(const Vertex& a, const Vertex& b) {
  if (a.y == b.y) return b.x < a.x;
  return b.y > a.y;
}

}  // namespace raster_detail

/// \brief The setup engine + rasterizer (paper Section 3.1: "Transformed
/// vertex data is streamed to the setup engine which generates slope and
/// initial value information ... used during rasterization for constructing
/// fragments at each pixel location covered by the primitive").
///
/// Rasterizes one triangle given window-space vertices: edge-function
/// coverage with the top-left fill rule (shared edges covered exactly once),
/// pixel centers at (x+0.5, y+0.5), barycentric interpolation of depth.
/// Fragments outside the scissor rectangle are culled before the
/// emitter is called. Winding is irrelevant (no face culling).
///
/// `Emit` is any callable taking `const RasterFragment&`. Templating the
/// emitter (instead of routing through a std::function) lets the per-fragment
/// call inline into the scanline loop, which matters when a pass covers a
/// million pixels.
template <typename Emit>
void RasterizeTriangle(const Vertex& a, const Vertex& b, const Vertex& c,
                       const ScissorRect& scissor,
                       Emit&& emit) {
  using raster_detail::IsTopLeft;
  using raster_detail::Orient;

  const Vertex* v0 = &a;
  const Vertex* v1 = &b;
  const Vertex* v2 = &c;
  double area = Orient(v0->x, v0->y, v1->x, v1->y, v2->x, v2->y);
  if (area == 0) return;  // degenerate
  if (area < 0) {
    std::swap(v1, v2);
    area = -area;
  }

  // Bounding box clipped to the scissor rectangle.
  const double min_x = std::min({v0->x, v1->x, v2->x});
  const double max_x = std::max({v0->x, v1->x, v2->x});
  const double min_y = std::min({v0->y, v1->y, v2->y});
  const double max_y = std::max({v0->y, v1->y, v2->y});
  const auto x_begin = static_cast<int64_t>(
      std::max<double>(scissor.x0, std::floor(min_x)));
  const auto x_end = static_cast<int64_t>(
      std::min<double>(scissor.x1, std::ceil(max_x)));
  const auto y_begin = static_cast<int64_t>(
      std::max<double>(scissor.y0, std::floor(min_y)));
  const auto y_end = static_cast<int64_t>(
      std::min<double>(scissor.y1, std::ceil(max_y)));
  if (x_begin >= x_end || y_begin >= y_end) return;

  const bool flat_depth = v0->depth == v1->depth && v1->depth == v2->depth;
  const bool e01_tl = IsTopLeft(*v0, *v1);
  const bool e12_tl = IsTopLeft(*v1, *v2);
  const bool e20_tl = IsTopLeft(*v2, *v0);

  RasterFragment frag;
  for (int64_t y = y_begin; y < y_end; ++y) {
    const double py = static_cast<double>(y) + 0.5;
    for (int64_t x = x_begin; x < x_end; ++x) {
      const double px = static_cast<double>(x) + 0.5;
      // Edge functions; fragment is in iff all are positive, or zero on a
      // top-left edge.
      const double e01 = Orient(v0->x, v0->y, v1->x, v1->y, px, py);
      if (e01 < 0 || (e01 == 0 && !e01_tl)) continue;
      const double e12 = Orient(v1->x, v1->y, v2->x, v2->y, px, py);
      if (e12 < 0 || (e12 == 0 && !e12_tl)) continue;
      const double e20 = Orient(v2->x, v2->y, v0->x, v0->y, px, py);
      if (e20 < 0 || (e20 == 0 && !e20_tl)) continue;

      frag.x = static_cast<uint32_t>(x);
      frag.y = static_cast<uint32_t>(y);
      // Constant depth passes through exactly (the setup engine computes
      // zero slopes); this preserves the bit-exact depth the database
      // algorithms rely on when rendering screen-aligned quads. Otherwise
      // vertex i is weighted by the edge function of the opposite edge.
      if (flat_depth) {
        frag.depth = v0->depth;
      } else {
        const double w0 = e12 / area;
        const double w1 = e20 / area;
        const double w2 = e01 / area;
        frag.depth = static_cast<float>(w0 * v0->depth + w1 * v1->depth +
                                        w2 * v2->depth);
      }
      emit(frag);
    }
  }
}

/// \brief Span fast path for screen-aligned rectangles at constant depth:
/// emits one fragment per covered pixel in row-major order without
/// evaluating edge functions.
///
/// A rect split into its two triangles and fed to RasterizeTriangle covers
/// exactly the pixels with centers inside [x0,x1) x [y0,y1), once each (the
/// shared diagonal is top-left on exactly one triangle), with depth passed
/// through exactly (flat). This routine emits the identical fragment stream directly, so quad passes
/// -- the only geometry the database algorithms draw -- skip triangle setup
/// entirely. `rect` must already be clipped to the scissor.
template <typename Emit>
void RasterizeRectRows(const ScissorRect& rect, float depth, uint32_t y_begin,
                       uint32_t y_end, Emit&& emit) {
  y_begin = std::max(y_begin, rect.y0);
  y_end = std::min(y_end, rect.y1);
  RasterFragment frag;
  frag.depth = depth;
  for (uint32_t y = y_begin; y < y_end; ++y) {
    frag.y = y;
    for (uint32_t x = rect.x0; x < rect.x1; ++x) {
      frag.x = x;
      emit(frag);
    }
  }
}

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_RASTERIZER_H_
