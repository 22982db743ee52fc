#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/spatial.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

class SpatialTest : public ::testing::Test {
 protected:
  SpatialTest() : device_(64, 64) {}

  /// Uploads a grid of points covering [-range, range]^2.
  gpu::TextureId UploadGrid(int range) {
    xs_.clear();
    ys_.clear();
    for (int i = -range; i <= range; ++i) {
      for (int j = -range; j <= range; ++j) {
        xs_.push_back(static_cast<float>(i));
        ys_.push_back(static_cast<float>(j));
      }
    }
    auto tex = gpu::Texture::FromColumns({&xs_, &ys_}, 64);
    EXPECT_TRUE(tex.ok());
    auto id = device_.UploadTexture(std::move(tex).ValueOrDie());
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(device_.SetViewport(xs_.size()).ok());
    return id.ValueOrDie();
  }

  uint64_t CpuCount(const std::vector<HalfPlane>& planes) const {
    uint64_t n = 0;
    for (size_t i = 0; i < xs_.size(); ++i) {
      n += PointInHalfPlanes(xs_[i], ys_[i], planes) ? 1 : 0;
    }
    return n;
  }

  gpu::Device device_;
  std::vector<float> xs_, ys_;
};

TEST_F(SpatialTest, PolygonToHalfPlanesValidation) {
  // Too few vertices.
  EXPECT_FALSE(ConvexPolygonToHalfPlanes({{0, 0}, {1, 0}}).ok());
  // Clockwise square.
  EXPECT_FALSE(
      ConvexPolygonToHalfPlanes({{0, 0}, {0, 1}, {1, 1}, {1, 0}}).ok());
  // Non-convex (dart).
  EXPECT_FALSE(
      ConvexPolygonToHalfPlanes({{0, 0}, {4, 0}, {1, 1}, {0, 4}}).ok());
  // Proper CCW triangle.
  EXPECT_TRUE(ConvexPolygonToHalfPlanes({{0, 0}, {2, 0}, {1, 2}}).ok());
}

TEST_F(SpatialTest, HalfPlanesContainPolygonInterior) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<HalfPlane> planes,
      ConvexPolygonToHalfPlanes({{-2, -2}, {2, -2}, {2, 2}, {-2, 2}}));
  EXPECT_TRUE(PointInHalfPlanes(0, 0, planes));
  EXPECT_TRUE(PointInHalfPlanes(2, 2, planes));  // boundary inclusive
  EXPECT_FALSE(PointInHalfPlanes(3, 0, planes));
  EXPECT_FALSE(PointInHalfPlanes(0, -2.5f, planes));
}

TEST_F(SpatialTest, SquareSelectionExactCount) {
  const gpu::TextureId grid = UploadGrid(10);  // 21x21 = 441 points
  ASSERT_OK_AND_ASSIGN(
      StencilSelection sel,
      SelectPointsInConvexPolygon(&device_, grid,
                                  {{-3, -3}, {3, -3}, {3, 3}, {-3, 3}}));
  // Inclusive 7x7 lattice.
  EXPECT_EQ(sel.count, 49u);
}

TEST_F(SpatialTest, TriangleSelectionMatchesCpu) {
  const gpu::TextureId grid = UploadGrid(12);
  const std::vector<std::pair<float, float>> triangle = {
      {-10, -5}, {8, -2}, {-1, 9}};
  ASSERT_OK_AND_ASSIGN(std::vector<HalfPlane> planes,
                       ConvexPolygonToHalfPlanes(triangle));
  ASSERT_OK_AND_ASSIGN(StencilSelection sel,
                       SelectPointsInConvexPolygon(&device_, grid, triangle));
  EXPECT_EQ(sel.count, CpuCount(planes));
  EXPECT_GT(sel.count, 0u);
}

TEST_F(SpatialTest, HexagonSelectionMatchesCpuAndStencil) {
  const gpu::TextureId grid = UploadGrid(12);
  const std::vector<std::pair<float, float>> hexagon = {
      {6, 0}, {3, 5}, {-3, 5}, {-6, 0}, {-3, -5}, {3, -5}};
  ASSERT_OK_AND_ASSIGN(std::vector<HalfPlane> planes,
                       ConvexPolygonToHalfPlanes(hexagon));
  ASSERT_OK_AND_ASSIGN(StencilSelection sel,
                       SelectPointsInConvexPolygon(&device_, grid, hexagon));
  EXPECT_EQ(sel.count, CpuCount(planes));
  // Per-point stencil check.
  const std::vector<uint8_t> stencil = device_.ReadStencil().ValueOrDie();
  for (size_t i = 0; i < xs_.size(); ++i) {
    EXPECT_EQ(stencil[i] == sel.valid_value,
              PointInHalfPlanes(xs_[i], ys_[i], planes))
        << "point (" << xs_[i] << "," << ys_[i] << ")";
  }
}

TEST_F(SpatialTest, PolygonOffTheGridSelectsNothing) {
  const gpu::TextureId grid = UploadGrid(5);
  ASSERT_OK_AND_ASSIGN(
      StencilSelection sel,
      SelectPointsInConvexPolygon(&device_, grid,
                                  {{20, 20}, {30, 20}, {30, 30}, {20, 30}}));
  EXPECT_EQ(sel.count, 0u);
  EXPECT_FALSE(
      SelectPointsInConvexPolygon(&device_, grid, {{0, 0}, {1, 1}}).ok());
}

}  // namespace
}  // namespace core
}  // namespace gpudb
