#include <vector>

#include <gtest/gtest.h>

#include "src/core/compare.h"
#include "src/cpu/scan.h"
#include "src/db/column.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;
using testing_util::RandomInts;
using testing_util::ToFloats;
using testing_util::UploadIntAttribute;

class CompareTest : public ::testing::Test {
 protected:
  CompareTest() : device_(100, 100) {}
  gpu::Device device_;
};

TEST_F(CompareTest, CopyToDepthStoresExactQuantizedValues) {
  const std::vector<uint32_t> ints = RandomInts(500, 16, 41);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK(CopyToDepth(&device_, attr));
  for (size_t i = 0; i < ints.size(); ++i) {
    // Exact encoding: quantized depth == the integer attribute value.
    EXPECT_EQ(device_.framebuffer().depth(i), ints[i]) << "record " << i;
  }
}

TEST_F(CompareTest, CopyToDepthRestoresState) {
  const std::vector<uint32_t> ints = RandomInts(10, 8, 42);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  device_.SetStencilTest(true, CompareOp::kEqual, 7);
  device_.SetDepthTest(true, CompareOp::kLess);
  ASSERT_OK(CopyToDepth(&device_, attr));
  EXPECT_TRUE(device_.state().stencil_test_enabled);
  EXPECT_EQ(device_.state().stencil_ref, 7);
  EXPECT_EQ(device_.state().depth_func, CompareOp::kLess);
  EXPECT_EQ(device_.program(), nullptr);
}

TEST_F(CompareTest, CountsMatchCpuForAllOperators) {
  const std::vector<uint32_t> ints = RandomInts(3000, 10, 43);
  const std::vector<float> floats = ToFloats(ints);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  const double c = 512.0;
  for (CompareOp op : {CompareOp::kLess, CompareOp::kLessEqual,
                       CompareOp::kEqual, CompareOp::kGreaterEqual,
                       CompareOp::kGreater, CompareOp::kNotEqual}) {
    std::vector<uint8_t> mask;
    const uint64_t expected =
        cpu::PredicateScan(floats, op, static_cast<float>(c), &mask);
    ASSERT_OK_AND_ASSIGN(uint64_t count, Compare(&device_, attr, op, c));
    EXPECT_EQ(count, expected) << gpu::ToString(op);
  }
}

TEST_F(CompareTest, SelectMaskMatchesCpuMask) {
  const std::vector<uint32_t> ints = RandomInts(2000, 12, 44);
  const std::vector<float> floats = ToFloats(ints);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  std::vector<uint8_t> cpu_mask;
  const uint64_t expected = cpu::PredicateScan(
      floats, CompareOp::kGreaterEqual, 1000.0f, &cpu_mask);
  ASSERT_OK_AND_ASSIGN(
      uint64_t count,
      CompareSelect(&device_, attr, CompareOp::kGreaterEqual, 1000.0));
  EXPECT_EQ(count, expected);
  const std::vector<uint8_t> stencil = device_.ReadStencil().ValueOrDie();
  for (size_t i = 0; i < ints.size(); ++i) {
    EXPECT_EQ(stencil[i] == 1, cpu_mask[i] == 1) << "record " << i;
  }
}

TEST_F(CompareTest, BoundaryValuesExact) {
  // 0 and 2^24-1 are the depth buffer's extreme codes; comparisons at the
  // boundary must be exact (paper Section 6.1 precision discussion).
  const std::vector<uint32_t> ints = {0, 1, (1u << 24) - 2, (1u << 24) - 1};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(uint64_t ge_max,
                       Compare(&device_, attr, CompareOp::kGreaterEqual,
                               (1u << 24) - 1));
  EXPECT_EQ(ge_max, 1u);
  ASSERT_OK_AND_ASSIGN(uint64_t le_zero,
                       Compare(&device_, attr, CompareOp::kLessEqual, 0.0));
  EXPECT_EQ(le_zero, 1u);
  ASSERT_OK_AND_ASSIGN(uint64_t eq_one,
                       Compare(&device_, attr, CompareOp::kEqual, 1.0));
  EXPECT_EQ(eq_one, 1u);
}

TEST_F(CompareTest, CompareLeavesAttributeInDepthBuffer) {
  // KthLargest depends on the comparison passes not disturbing the copied
  // attribute (depth writes are masked off).
  const std::vector<uint32_t> ints = RandomInts(100, 8, 45);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK(CopyToDepth(&device_, attr));
  ASSERT_OK_AND_ASSIGN(
      uint64_t c1,
      CompareCount(&device_, CompareOp::kGreaterEqual, 100.0, attr.encoding));
  ASSERT_OK_AND_ASSIGN(
      uint64_t c2,
      CompareCount(&device_, CompareOp::kGreaterEqual, 100.0, attr.encoding));
  EXPECT_EQ(c1, c2);
  for (size_t i = 0; i < ints.size(); ++i) {
    EXPECT_EQ(device_.framebuffer().depth(i), ints[i]);
  }
}

TEST_F(CompareTest, CompareCountHonorsStencilMask) {
  // Masked counting: only records whose stencil equals the mask value are
  // counted (the mechanism behind Figure 9).
  const std::vector<uint32_t> ints = {10, 20, 30, 40};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK(CopyToDepth(&device_, attr));
  // Mark records 0 and 2 as selected.
  device_.ClearStencil(0);
  device_.framebuffer().set_stencil(0, 1);
  device_.framebuffer().set_stencil(2, 1);
  device_.SetStencilTest(true, CompareOp::kEqual, 1);
  device_.SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                       gpu::StencilOp::kKeep);
  ASSERT_OK_AND_ASSIGN(
      uint64_t count,
      CompareCount(&device_, CompareOp::kGreaterEqual, 15.0, attr.encoding));
  EXPECT_EQ(count, 1u);  // only record 2 (30) is selected AND >= 15
}

TEST_F(CompareTest, FloatEncodingApproximatesWithinQuantum) {
  // Float columns: comparisons are exact to one depth quantum of the
  // column's [min,max] span.
  std::vector<float> floats = {0.0f, 0.25f, 0.5f, 0.75f, 1.0f};
  auto tex = gpu::Texture::FromColumns({&floats}, 5);
  ASSERT_OK(tex.status());
  ASSERT_OK_AND_ASSIGN(gpu::TextureId id,
                       device_.UploadTexture(std::move(tex).ValueOrDie()));
  ASSERT_OK(device_.SetViewport(5));
  AttributeBinding attr;
  attr.texture = id;
  attr.channel = 0;
  attr.encoding = DepthEncoding{1.0, 0.0};  // [0,1] identity
  ASSERT_OK_AND_ASSIGN(
      uint64_t count,
      Compare(&device_, attr, CompareOp::kGreaterEqual, 0.5));
  EXPECT_EQ(count, 3u);
}

TEST_F(CompareTest, SingleValuedFloatColumnComparesCorrectly) {
  // min == max makes the affine [min,max]->[0,1] map degenerate. The
  // encoding must still order the value against out-of-domain constants:
  // a zero scale would encode value and constant to the same depth and
  // e.g. "1 > 0" would select nothing (system tables hit this whenever
  // every counter holds the same value).
  std::vector<float> floats = {1.0f, 1.0f, 1.0f};
  ASSERT_OK_AND_ASSIGN(db::Column column,
                       db::Column::MakeFloat("c", floats));
  const DepthEncoding enc = DepthEncoding::ForColumn(column);
  auto tex = gpu::Texture::FromColumns({&floats}, 3);
  ASSERT_OK(tex.status());
  ASSERT_OK_AND_ASSIGN(gpu::TextureId id,
                       device_.UploadTexture(std::move(tex).ValueOrDie()));
  ASSERT_OK(device_.SetViewport(3));
  AttributeBinding attr;
  attr.texture = id;
  attr.channel = 0;
  attr.encoding = enc;
  const struct {
    CompareOp op;
    double constant;
    uint64_t want;
  } cases[] = {
      {CompareOp::kGreater, 0.0, 3},  {CompareOp::kGreater, 1.0, 0},
      {CompareOp::kGreater, 2.0, 0},  {CompareOp::kLess, 2.0, 3},
      {CompareOp::kEqual, 1.0, 3},    {CompareOp::kEqual, 0.0, 0},
      {CompareOp::kEqual, 5.0, 0},    {CompareOp::kGreaterEqual, 1.0, 3},
  };
  for (const auto& c : cases) {
    ASSERT_OK_AND_ASSIGN(uint64_t count,
                         Compare(&device_, attr, c.op, c.constant));
    EXPECT_EQ(count, c.want)
        << "op=" << static_cast<int>(c.op) << " constant=" << c.constant;
  }
}

TEST_F(CompareTest, PassStructureMatchesPaper) {
  // Routine 4.1 is exactly two passes: the copy and the comparison quad.
  const std::vector<uint32_t> ints = RandomInts(100, 8, 46);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  device_.ResetCounters();
  gpu::PassLogScope log(&device_);
  ASSERT_OK_AND_ASSIGN(uint64_t count,
                       Compare(&device_, attr, CompareOp::kLess, 100.0));
  (void)count;
  EXPECT_EQ(device_.counters().passes, 2u);
  EXPECT_EQ(device_.counters().occlusion_readbacks, 1u);
  // The copy runs the 3-instruction program on every fragment.
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].fp_instructions, 3);
  EXPECT_EQ(log.records()[1].fp_instructions, 0);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
