#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/gpu/device.h"
#include "src/gpu/rasterizer.h"
#include "tests/test_util.h"

namespace gpudb {
namespace gpu {
namespace {

// ---------------------------------------------------------------------------
// RasterizeTriangle
// ---------------------------------------------------------------------------

std::map<std::pair<uint32_t, uint32_t>, int> Rasterize(
    const Vertex& a, const Vertex& b, const Vertex& c,
    const ScissorRect& scissor) {
  std::map<std::pair<uint32_t, uint32_t>, int> hits;
  RasterizeTriangle(a, b, c, scissor,
                    [&](const RasterFragment& f) { ++hits[{f.x, f.y}]; });
  return hits;
}

TEST(RasterizerTest, RightTriangleCoversExpectedPixels) {
  // Triangle (0,0)-(4,0)-(0,4): covers the strict lower-left half.
  const ScissorRect full{0, 0, 16, 16};
  auto hits = Rasterize({0, 0}, {4, 0}, {0, 4}, full);
  // Centers (x+.5, y+.5) with x+y+1 < 4 are strictly inside; the hypotenuse
  // passes through (0.5,3.5),(1.5,2.5),... which are exactly on the edge.
  int expected = 0;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const double ex = x + 0.5, ey = y + 0.5;
      if (ex + ey <= 4.0) ++expected;  // on-edge handling checked below
    }
  }
  EXPECT_EQ(static_cast<int>(hits.size()), expected);
  for (const auto& [pixel, count] : hits) {
    EXPECT_EQ(count, 1);
  }
}

TEST(RasterizerTest, SplitRectangleCoversEachPixelExactlyOnce) {
  // The critical invariant for the database semantics: a rectangle split
  // into two triangles along the diagonal covers every pixel exactly once,
  // including centers exactly on the diagonal (square => diagonal passes
  // through centers).
  const uint32_t kSize = 8;
  const ScissorRect full{0, 0, kSize, kSize};
  std::map<std::pair<uint32_t, uint32_t>, int> hits;
  const Vertex c00{0, 0}, c10{kSize, 0}, c11{kSize, kSize},
      c01{0, kSize};
  auto emit = [&](const RasterFragment& f) { ++hits[{f.x, f.y}]; };
  RasterizeTriangle(c00, c10, c11, full, emit);
  RasterizeTriangle(c00, c11, c01, full, emit);
  EXPECT_EQ(hits.size(), kSize * kSize);
  for (const auto& [pixel, count] : hits) {
    EXPECT_EQ(count, 1) << "pixel (" << pixel.first << "," << pixel.second
                        << ") covered " << count << " times";
  }
}

TEST(RasterizerTest, AdjacentTrianglesShareEdgeWithoutOverlap) {
  // Two triangles sharing a non-axis-aligned edge: fragments on the shared
  // edge must go to exactly one of them (top-left rule).
  const ScissorRect full{0, 0, 32, 32};
  const Vertex a{2, 2}, b{30, 6}, c{6, 30}, d{28, 26};
  std::map<std::pair<uint32_t, uint32_t>, int> hits;
  auto emit = [&](const RasterFragment& f) { ++hits[{f.x, f.y}]; };
  RasterizeTriangle(a, b, c, full, emit);
  RasterizeTriangle(b, d, c, full, emit);
  for (const auto& [pixel, count] : hits) {
    EXPECT_EQ(count, 1) << "pixel (" << pixel.first << "," << pixel.second
                        << ")";
  }
}

TEST(RasterizerTest, WindingDoesNotAffectCoverage) {
  const ScissorRect full{0, 0, 16, 16};
  auto ccw = Rasterize({1, 1}, {9, 2}, {4, 11}, full);
  auto cw = Rasterize({1, 1}, {4, 11}, {9, 2}, full);
  EXPECT_EQ(ccw, cw);
  EXPECT_GT(ccw.size(), 0u);
}

TEST(RasterizerTest, DegenerateTriangleEmitsNothing) {
  const ScissorRect full{0, 0, 16, 16};
  EXPECT_TRUE(Rasterize({1, 1}, {5, 5}, {9, 9}, full).empty());  // collinear
  EXPECT_TRUE(Rasterize({1, 1}, {1, 1}, {1, 1}, full).empty());
}

TEST(RasterizerTest, ScissorClips) {
  const ScissorRect scissor{2, 2, 5, 5};
  auto hits = Rasterize({0, 0}, {16, 0}, {0, 16}, scissor);
  for (const auto& [pixel, count] : hits) {
    EXPECT_TRUE(scissor.Contains(pixel.first, pixel.second));
  }
  EXPECT_EQ(hits.size(), 9u);  // the triangle covers the whole 3x3 window
}

TEST(RasterizerTest, RandomSharedEdgePairsNeverDoubleCover) {
  // Property: for random triangle pairs sharing an edge, the fill rule
  // assigns every fragment to exactly one triangle.
  Random rng(808);
  const ScissorRect full{0, 0, 64, 64};
  for (int trial = 0; trial < 200; ++trial) {
    // Shared edge (a, b) plus points c, d on opposite sides.
    Vertex a{static_cast<float>(rng.NextUint64(64)),
                   static_cast<float>(rng.NextUint64(64))};
    Vertex b{static_cast<float>(rng.NextUint64(64)),
                   static_cast<float>(rng.NextUint64(64))};
    Vertex c{static_cast<float>(rng.NextUint64(64)),
                   static_cast<float>(rng.NextUint64(64))};
    // Reflect c across the midpoint of (a,b) so d is on the other side.
    Vertex d{a.x + b.x - c.x, a.y + b.y - c.y};
    std::map<std::pair<uint32_t, uint32_t>, int> hits;
    auto emit = [&](const RasterFragment& f) { ++hits[{f.x, f.y}]; };
    RasterizeTriangle(a, b, c, full, emit);
    RasterizeTriangle(a, b, d, full, emit);
    for (const auto& [pixel, count] : hits) {
      ASSERT_EQ(count, 1)
          << "trial " << trial << " pixel (" << pixel.first << ","
          << pixel.second << ") a=(" << a.x << "," << a.y << ") b=(" << b.x
          << "," << b.y << ") c=(" << c.x << "," << c.y << ")";
    }
  }
}

TEST(RasterizerTest, DepthInterpolationIsLinear) {
  // Right triangle with depth ramp along x: depth at center (x+.5, 0.5)
  // should be (x+.5)/8.
  const ScissorRect full{0, 0, 8, 8};
  std::vector<RasterFragment> frags;
  RasterizeTriangle({0, 0, 0.0f}, {8, 0, 1.0f}, {0, 8, 0.0f}, full,
                    [&](const RasterFragment& f) { frags.push_back(f); });
  ASSERT_FALSE(frags.empty());
  for (const RasterFragment& f : frags) {
    const float expected = (static_cast<float>(f.x) + 0.5f) / 8.0f;
    EXPECT_NEAR(f.depth, expected, 1e-5f) << "pixel " << f.x << "," << f.y;
  }
}

TEST(RasterizerTest, FlatDepthIsBitExact) {
  // Constant-depth triangles must carry the exact vertex depth through
  // interpolation (the exactness guarantee CopyToDepth relies on).
  const float d = 0.12345678f;
  const ScissorRect full{0, 0, 64, 64};
  RasterizeTriangle({0, 0, d}, {64, 0, d}, {0, 64, d}, full,
                    [&](const RasterFragment& f) {
                      ASSERT_EQ(f.depth, d);
                    });
}

// ---------------------------------------------------------------------------
// Device geometry path
// ---------------------------------------------------------------------------

TEST(DeviceGeometryTest, DrawTrianglesCountsFragments) {
  Device dev(16, 16);
  dev.SetDepthTest(false, CompareOp::kAlways);
  std::vector<Vertex> tri = {{0, 0, 0.5f}, {16, 0, 0.5f}, {0, 16, 0.5f}};
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.DrawTriangles(tri));
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  // 120 strictly interior centers (x+y <= 14) plus the 16 centers exactly on
  // the hypotenuse, which the fill rule assigns to this triangle (the edge
  // goes downward, i.e. is a "left" edge).
  EXPECT_EQ(count, 136u);
  EXPECT_FALSE(dev.DrawTriangles({}).ok());
  EXPECT_FALSE(dev.DrawTriangles({tri[0], tri[1]}).ok());
}

TEST(DeviceGeometryTest, ScissorLimitsQuadFragments) {
  Device dev(16, 16);
  dev.SetDepthTest(false, CompareOp::kAlways);
  dev.state().scissor_test_enabled = true;
  dev.state().scissor = ScissorRect{4, 4, 8, 8};
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderQuad(0.0f));
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 16u);  // 4x4 scissor window
}

TEST(DeviceGeometryTest, ViewportQuadEmitsExactlyViewportFragments) {
  // The record-count invariant after the rasterizer rewrite: a viewport of
  // n pixels produces exactly n fragments, full rows + remainder.
  Device dev(10, 10);
  for (uint64_t n : {1u, 9u, 10u, 11u, 55u, 99u, 100u}) {
    ASSERT_OK(dev.SetViewport(n));
    dev.SetDepthTest(false, CompareOp::kAlways);
    ASSERT_OK(dev.BeginOcclusionQuery());
    ASSERT_OK(dev.RenderQuad(0.25f));
    ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
    EXPECT_EQ(count, n);
  }
}

TEST(DeviceGeometryTest, QuadDepthSurvivesPipelineExactly) {
  // Constant-depth quads must land in the depth buffer at the exact
  // quantized code (bit-exact integer comparisons depend on it).
  Device dev(8, 8);
  dev.SetDepthTest(true, CompareOp::kAlways);
  dev.SetDepthWriteMask(true);
  for (uint32_t code : {0u, 1u, 12345u, (1u << 23) + 1, kDepthMax}) {
    // The inverse of QuantizeDepth (exact for quantized values).
    const float d = static_cast<float>(code) / static_cast<float>(kDepthMax);
    ASSERT_OK(dev.RenderQuad(d));
    EXPECT_EQ(dev.framebuffer().depth(17), code) << code;
  }
}

TEST(DeviceGeometryTest, TexturedQuadTooSmallTextureRejected) {
  Device dev(8, 8);
  std::vector<float> vals(16, 1.0f);
  auto tex = Texture::FromColumns({&vals}, 8);
  ASSERT_OK(tex.status());
  ASSERT_OK_AND_ASSIGN(TextureId id, dev.UploadTexture(std::move(tex).ValueOrDie()));
  ASSERT_OK(dev.BindTexture(id));
  // Viewport 64 pixels > 16 texels.
  EXPECT_FALSE(dev.RenderTexturedQuad().ok());
  ASSERT_OK(dev.SetViewport(16));
  EXPECT_TRUE(dev.RenderTexturedQuad().ok());
}

}  // namespace
}  // namespace gpu
}  // namespace gpudb
