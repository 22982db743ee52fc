#include <vector>

#include <gtest/gtest.h>

#include "src/core/semilinear.h"
#include "src/cpu/scan.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;
using testing_util::RandomInts;
using testing_util::ToFloats;

class SemilinearTest : public ::testing::Test {
 protected:
  SemilinearTest() : device_(64, 64) {}

  /// Uploads up to four columns as one texture; sets the viewport.
  gpu::TextureId Upload(const std::vector<const std::vector<float>*>& cols) {
    auto tex = gpu::Texture::FromColumns(cols, 64);
    EXPECT_TRUE(tex.ok());
    auto id = device_.UploadTexture(std::move(tex).ValueOrDie());
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(device_.SetViewport(cols[0]->size()).ok());
    return id.ValueOrDie();
  }

  gpu::Device device_;
};

TEST_F(SemilinearTest, FourAttributeQueryMatchesCpu) {
  const std::vector<float> a = ToFloats(RandomInts(2000, 8, 51));
  const std::vector<float> b = ToFloats(RandomInts(2000, 8, 52));
  const std::vector<float> c = ToFloats(RandomInts(2000, 8, 53));
  const std::vector<float> d = ToFloats(RandomInts(2000, 8, 54));
  const gpu::TextureId tex = Upload({&a, &b, &c, &d});

  SemilinearQuery q;
  q.weights = {0.5f, -1.25f, 2.0f, 0.75f};
  q.op = CompareOp::kGreater;
  q.b = 150.0f;

  std::vector<uint8_t> cpu_mask;
  const uint64_t expected =
      cpu::SemilinearScan({&a, &b, &c, &d}, q.weights, q.op, q.b, &cpu_mask);
  ASSERT_OK_AND_ASSIGN(uint64_t count, SemilinearSelect(&device_, tex, q));
  EXPECT_EQ(count, expected);

  const std::vector<uint8_t> stencil = device_.ReadStencil().ValueOrDie();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(stencil[i], cpu_mask[i]) << "record " << i;
  }
}

TEST_F(SemilinearTest, AttrCompareSpecialCase) {
  // a op b rewritten as a - b op 0 (paper Section 4.1.1).
  const std::vector<float> a = ToFloats(RandomInts(1000, 10, 55));
  const std::vector<float> b = ToFloats(RandomInts(1000, 10, 56));
  const gpu::TextureId tex = Upload({&a, &b});
  for (CompareOp op : {CompareOp::kLess, CompareOp::kLessEqual,
                       CompareOp::kEqual, CompareOp::kGreaterEqual,
                       CompareOp::kGreater, CompareOp::kNotEqual}) {
    const SemilinearQuery q = SemilinearQuery::AttrCompare(0, op, 1);
    std::vector<uint8_t> cpu_mask;
    const uint64_t expected = cpu::AttrCompareScan(a, b, op, &cpu_mask);
    ASSERT_OK_AND_ASSIGN(uint64_t count, SemilinearSelect(&device_, tex, q));
    EXPECT_EQ(count, expected) << gpu::ToString(op);
  }
}

TEST_F(SemilinearTest, SinglePassNoCopy) {
  // The semi-linear query needs no depth-buffer copy: exactly one pass with
  // the 4-instruction program (the reason for Figure 6's speedup).
  const std::vector<float> a = ToFloats(RandomInts(100, 8, 57));
  const gpu::TextureId tex = Upload({&a});
  device_.ResetCounters();
  gpu::PassLogScope log(&device_);
  SemilinearQuery q;
  q.weights = {1.0f, 0, 0, 0};
  q.op = CompareOp::kGreaterEqual;
  q.b = 100.0f;
  ASSERT_OK(SemilinearSelect(&device_, tex, q).status());
  EXPECT_EQ(device_.counters().passes, 1u);
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0].fp_instructions, 4);
  EXPECT_EQ(device_.counters().depth_writes, 0u);
}

TEST_F(SemilinearTest, EmptyAndFullSelectivity) {
  const std::vector<float> a = ToFloats(RandomInts(500, 8, 58));
  const gpu::TextureId tex = Upload({&a});
  SemilinearQuery none;
  none.weights = {1.0f, 0, 0, 0};
  none.op = CompareOp::kLess;
  none.b = 0.0f;  // nothing is < 0
  ASSERT_OK_AND_ASSIGN(uint64_t zero, SemilinearSelect(&device_, tex, none));
  EXPECT_EQ(zero, 0u);
  SemilinearQuery all = none;
  all.op = CompareOp::kGreaterEqual;  // everything is >= 0
  ASSERT_OK_AND_ASSIGN(uint64_t full, SemilinearSelect(&device_, tex, all));
  EXPECT_EQ(full, 500u);
}

TEST_F(SemilinearTest, NegativeWeightsAndConstant) {
  const std::vector<float> a = {1, 2, 3, 4, 5};
  const gpu::TextureId tex = Upload({&a});
  SemilinearQuery q;
  q.weights = {-1.0f, 0, 0, 0};
  q.op = CompareOp::kGreater;
  q.b = -3.5f;  // -a > -3.5  <=>  a < 3.5  -> {1,2,3}
  ASSERT_OK_AND_ASSIGN(uint64_t count, SemilinearSelect(&device_, tex, q));
  EXPECT_EQ(count, 3u);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
