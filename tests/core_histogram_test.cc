#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/histogram.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using testing_util::RandomInts;
using testing_util::ToFloats;
using testing_util::UploadIntAttribute;

uint64_t Total(const Histogram& hist) {
  return std::accumulate(hist.counts.begin(), hist.counts.end(), uint64_t{0});
}

class HistogramTest : public ::testing::Test {
 protected:
  HistogramTest() : device_(64, 64) {}
  gpu::Device device_;
};

TEST_F(HistogramTest, GpuMatchesCpuOnIntegerAlignedEdges) {
  const std::vector<uint32_t> ints = RandomInts(3000, 10, 211);
  const std::vector<float> floats = ToFloats(ints);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  // [0, 1024) in 16 buckets: every edge is an integer -> exact.
  ASSERT_OK_AND_ASSIGN(Histogram gpu_hist,
                       GpuHistogram(&device_, attr, 0, 1024, 16));
  ASSERT_OK_AND_ASSIGN(Histogram cpu_hist,
                       CpuHistogram(floats, 0, 1024, 16));
  ASSERT_EQ(gpu_hist.buckets(), 16);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(gpu_hist.counts[i], cpu_hist.counts[i]) << "bucket " << i;
  }
  EXPECT_EQ(Total(gpu_hist), 3000u);
}

TEST_F(HistogramTest, SubrangeExcludesOutOfRangeValues) {
  const std::vector<uint32_t> ints = {5, 10, 15, 20, 25, 30, 35, 40};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  // [10, 30] in 2 buckets: [10,20) and [20,30].
  ASSERT_OK_AND_ASSIGN(Histogram hist,
                       GpuHistogram(&device_, attr, 10, 30, 2));
  EXPECT_EQ(hist.counts[0], 2u);  // 10, 15
  EXPECT_EQ(hist.counts[1], 3u);  // 20, 25, 30
  EXPECT_EQ(Total(hist), 5u);    // 5, 35, 40 excluded
}

TEST_F(HistogramTest, SingleBucketCountsWholeRange) {
  const std::vector<uint32_t> ints = RandomInts(500, 8, 212);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(Histogram hist,
                       GpuHistogram(&device_, attr, 0, 256, 1));
  EXPECT_EQ(hist.counts[0], 500u);
}

TEST_F(HistogramTest, PassCountIsBucketsPlusOnePlusCopy) {
  const std::vector<uint32_t> ints = RandomInts(200, 8, 213);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  device_.ResetCounters();
  ASSERT_OK(GpuHistogram(&device_, attr, 0, 256, 8).status());
  // 1 copy + 9 edge-count passes.
  EXPECT_EQ(device_.counters().passes, 1u + 9u);
  EXPECT_EQ(device_.counters().occlusion_readbacks, 9u);
}

TEST_F(HistogramTest, ValidatesArguments) {
  const std::vector<uint32_t> ints = {1, 2};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  EXPECT_FALSE(GpuHistogram(&device_, attr, 10, 10, 4).ok());
  EXPECT_FALSE(GpuHistogram(&device_, attr, 10, 5, 4).ok());
  EXPECT_FALSE(GpuHistogram(&device_, attr, 0, 10, 0).ok());
  EXPECT_FALSE(GpuHistogram(&device_, attr, 0, 10, 5000).ok());
  EXPECT_FALSE(CpuHistogram({1.0f}, 0, 10, 0).ok());
}

TEST_F(HistogramTest, ZipfSkewLandsInFirstBuckets) {
  ASSERT_OK_AND_ASSIGN(db::Table zipf, db::MakeZipfTable(4000, 1024, 1.2));
  std::vector<uint32_t> ints(zipf.num_rows());
  for (size_t i = 0; i < ints.size(); ++i) {
    ints[i] = zipf.column(0).int_value(i);
  }
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(Histogram hist,
                       GpuHistogram(&device_, attr, 0, 1024, 8));
  // Heavy skew: the first bucket dominates.
  EXPECT_GT(hist.counts[0], Total(hist) / 2);
  EXPECT_EQ(Total(hist), 4000u);
}

TEST_F(HistogramTest, QuantilesMatchSortedReference) {
  const std::vector<uint32_t> ints = RandomInts(2000, 12, 216);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  std::vector<uint32_t> sorted = ints;
  std::sort(sorted.begin(), sorted.end());
  for (int q : {1, 2, 4, 10}) {
    ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> quantiles,
                         GpuQuantiles(&device_, attr, 12, q));
    ASSERT_EQ(quantiles.size(), static_cast<size_t>(q));
    for (int i = 0; i < q; ++i) {
      const size_t rank =
          (static_cast<size_t>(i + 1) * ints.size() + q - 1) / q;
      EXPECT_EQ(quantiles[i], sorted[rank - 1]) << "q=" << q << " i=" << i;
    }
    // The top quantile is always the maximum.
    EXPECT_EQ(quantiles.back(), sorted.back());
  }
}

TEST_F(HistogramTest, QuantilesShareOneCopyPass) {
  const std::vector<uint32_t> ints = RandomInts(500, 10, 217);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  device_.ResetCounters();
  ASSERT_OK(GpuQuantiles(&device_, attr, 10, 4).status());
  EXPECT_EQ(device_.counters().passes, 1u + 4u * 10u);
  EXPECT_FALSE(GpuQuantiles(&device_, attr, 10, 0).ok());
  EXPECT_FALSE(GpuQuantiles(&device_, attr, 10, 5000).ok());
}

TEST(JoinEstimateTest, ExactForUniformDisjointBuckets) {
  // Two relations concentrated in single distinct values per bucket.
  Histogram a, b;
  a.low = b.low = 0;
  a.high = b.high = 4;
  a.counts = {10, 0, 6, 0};
  b.counts = {5, 0, 2, 0};
  // width 1 -> estimate = 10*5 + 6*2 = 62 joined pairs.
  ASSERT_OK_AND_ASSIGN(double size, EstimateEquiJoinSize(a, b));
  EXPECT_DOUBLE_EQ(size, 62.0);
}

TEST(JoinEstimateTest, RequiresMatchingBucketing) {
  Histogram a, b;
  a.low = 0;
  a.high = 4;
  a.counts = {1, 1};
  b = a;
  b.high = 8;
  EXPECT_FALSE(EstimateEquiJoinSize(a, b).ok());
  b = a;
  b.counts = {1, 1, 1};
  EXPECT_FALSE(EstimateEquiJoinSize(a, b).ok());
}

TEST(JoinEstimateTest, GpuHistogramsDriveSaneJoinEstimate) {
  // Build two overlapping uniform relations and check the estimate against
  // the exact join size within a loose factor (it is an estimate).
  gpu::Device device(64, 64);
  const std::vector<uint32_t> a_ints = RandomInts(2000, 8, 214);
  const std::vector<uint32_t> b_ints = RandomInts(1500, 8, 215);
  AttributeBinding a_attr = UploadIntAttribute(&device, a_ints);
  ASSERT_OK_AND_ASSIGN(Histogram ha, GpuHistogram(&device, a_attr, 0, 256, 16));
  AttributeBinding b_attr = UploadIntAttribute(&device, b_ints);
  ASSERT_OK_AND_ASSIGN(Histogram hb, GpuHistogram(&device, b_attr, 0, 256, 16));

  uint64_t exact = 0;
  std::vector<uint64_t> freq(256, 0);
  for (uint32_t v : a_ints) ++freq[v];
  for (uint32_t v : b_ints) exact += freq[v];

  ASSERT_OK_AND_ASSIGN(double estimate, EstimateEquiJoinSize(ha, hb));
  EXPECT_GT(estimate, 0.5 * static_cast<double>(exact));
  EXPECT_LT(estimate, 2.0 * static_cast<double>(exact));
}

}  // namespace
}  // namespace core
}  // namespace gpudb
