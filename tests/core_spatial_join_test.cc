#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/spatial_join.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

Polygon2D Rect(float x0, float y0, float x1, float y1) {
  // Counter-clockwise in the y-down window convention used throughout:
  // (x0,y0) -> (x1,y0) -> (x1,y1) -> (x0,y1) has positive orientation.
  return Polygon2D{{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}}};
}

class SpatialJoinTest : public ::testing::Test {
 protected:
  SpatialJoinTest() : device_(128, 128) {}

  /// Whether the one-pair join reports `a` and `b` as overlapping.
  Result<bool> Overlaps(const Polygon2D& a, const Polygon2D& b) {
    GPUDB_ASSIGN_OR_RETURN(auto pairs, SpatialOverlapJoin(&device_, {a}, {b}));
    return !pairs.empty();
  }

  gpu::Device device_;
};

TEST_F(SpatialJoinTest, SatReferenceBasics) {
  EXPECT_TRUE(ConvexPolygonsIntersect(Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)));
  EXPECT_FALSE(
      ConvexPolygonsIntersect(Rect(0, 0, 10, 10), Rect(20, 20, 30, 30)));
  // Containment counts as intersection.
  EXPECT_TRUE(ConvexPolygonsIntersect(Rect(0, 0, 20, 20), Rect(5, 5, 8, 8)));
  // Shared edge (touching) counts.
  EXPECT_TRUE(
      ConvexPolygonsIntersect(Rect(0, 0, 10, 10), Rect(10, 0, 20, 10)));
}

TEST_F(SpatialJoinTest, ClearOverlapsAndGapsMatchReference) {
  const Polygon2D a = Rect(10, 10, 50, 50);
  ASSERT_OK_AND_ASSIGN(bool hit, Overlaps(a, Rect(30, 30, 70, 70)));
  EXPECT_TRUE(hit);
  ASSERT_OK_AND_ASSIGN(bool miss, Overlaps(a, Rect(60, 60, 100, 100)));
  EXPECT_FALSE(miss);
  // Containment.
  ASSERT_OK_AND_ASSIGN(bool inside, Overlaps(a, Rect(20, 20, 30, 30)));
  EXPECT_TRUE(inside);
}

TEST_F(SpatialJoinTest, DiagonalNeighborsBboxPruneIsNotEnough) {
  // Two triangles whose bounding boxes overlap heavily but whose areas
  // don't: the screen-space test must reject what the bbox prune cannot.
  const Polygon2D lower = Polygon2D{{{10, 10}, {90, 10}, {10, 90}}};
  const Polygon2D upper = Polygon2D{{{95, 20}, {95, 95}, {20, 95}}};
  EXPECT_FALSE(ConvexPolygonsIntersect(lower, upper));
  ASSERT_OK_AND_ASSIGN(bool hit, Overlaps(lower, upper));
  EXPECT_FALSE(hit);
}

TEST_F(SpatialJoinTest, JoinMatchesSatOnRandomLayers) {
  // Random axis-aligned rectangles. Layer B's grid is offset by 2 pixels
  // from layer A's 4-aligned grid so edges can never coincide: every SAT
  // intersection then has >= 2px of interior overlap and every miss >= 2px
  // of gap, which pixel discretization cannot flip (touching boundaries --
  // where SAT says "intersect" but rasterized footprints share no pixel --
  // are exactly the conservativeness the header documents).
  Random rng(881);
  auto random_layer = [&](size_t count, float offset) {
    std::vector<Polygon2D> layer;
    for (size_t i = 0; i < count; ++i) {
      const float x = offset + static_cast<float>(4 * rng.NextUint64(24));
      const float y = offset + static_cast<float>(4 * rng.NextUint64(24));
      const float w = static_cast<float>(4 + 4 * rng.NextUint64(6));
      const float h = static_cast<float>(4 + 4 * rng.NextUint64(6));
      layer.push_back(Rect(x, y, std::min(x + w, 126.0f),
                           std::min(y + h, 126.0f)));
    }
    return layer;
  };
  const std::vector<Polygon2D> layer_a = random_layer(12, 0.0f);
  const std::vector<Polygon2D> layer_b = random_layer(15, 2.0f);
  ASSERT_OK_AND_ASSIGN(auto pairs,
                       SpatialOverlapJoin(&device_, layer_a, layer_b));
  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (uint32_t i = 0; i < layer_a.size(); ++i) {
    for (uint32_t j = 0; j < layer_b.size(); ++j) {
      if (ConvexPolygonsIntersect(layer_a[i], layer_b[j])) {
        expected.emplace_back(i, j);
      }
    }
  }
  EXPECT_EQ(pairs, expected);
}

TEST_F(SpatialJoinTest, ValidatesInput) {
  const Polygon2D ok = Rect(0, 0, 10, 10);
  EXPECT_FALSE(SpatialOverlapJoin(nullptr, {ok}, {ok}).ok());
  // Too few vertices.
  Polygon2D degenerate{{{0, 0}, {1, 1}}};
  EXPECT_FALSE(Overlaps(degenerate, ok).ok());
  // Clockwise (negative orientation).
  Polygon2D cw{{{0, 0}, {0, 10}, {10, 10}, {10, 0}}};
  EXPECT_FALSE(Overlaps(cw, ok).ok());
  // Out of the window.
  Polygon2D outside = Rect(100, 100, 200, 200);
  EXPECT_FALSE(Overlaps(outside, ok).ok());
  EXPECT_FALSE(SpatialOverlapJoin(&device_, {ok}, {outside}).ok());
}

TEST_F(SpatialJoinTest, ScissorLimitsWorkToOverlapRegion) {
  // The pair's overlap region is 8x8 pixels; the two passes must generate
  // on the order of that many fragments, not the polygons' full areas.
  const Polygon2D a = Rect(0, 0, 64, 64);
  const Polygon2D b = Rect(56, 56, 120, 120);
  device_.ResetCounters();
  ASSERT_OK_AND_ASSIGN(bool hit, Overlaps(a, b));
  EXPECT_TRUE(hit);
  EXPECT_LE(device_.counters().fragments_generated, 2u * 8u * 8u);
}

TEST_F(SpatialJoinTest, OpensTheViewportAndRestoresIt) {
  // Triangles are clipped to the viewport. A viewport left at 10 rows by an
  // earlier operator must neither hide an overlap at row 100 nor be lost.
  ASSERT_OK(device_.SetViewport(10 * 128));
  ASSERT_OK_AND_ASSIGN(
      bool hit, Overlaps(Rect(90, 90, 110, 110), Rect(100, 100, 120, 120)));
  EXPECT_TRUE(hit);
  EXPECT_EQ(device_.viewport_pixels(), 10u * 128u);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
