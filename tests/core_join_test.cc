#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/histogram.h"
#include "src/core/join.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using testing_util::RandomInts;
using testing_util::UploadIntAttribute;

class EquiJoinTest : public ::testing::Test {
 protected:
  EquiJoinTest() : device_(64, 64) {}

  JoinSide Upload(const std::vector<uint32_t>& keys, int bits) {
    JoinSide side;
    side.key = UploadIntAttribute(&device_, keys);
    side.rows = keys.size();
    side.key_bits = bits;
    return side;
  }

  /// CPU hash-join reference: the number of (left, right) row pairs with
  /// equal keys.
  static uint64_t ReferenceJoinSize(const std::vector<uint32_t>& left,
                                    const std::vector<uint32_t>& right) {
    std::map<uint32_t, uint64_t> right_index;
    for (uint32_t key : right) ++right_index[key];
    uint64_t size = 0;
    for (uint32_t key : left) {
      auto it = right_index.find(key);
      if (it != right_index.end()) size += it->second;
    }
    return size;
  }

  gpu::Device device_;
};

TEST_F(EquiJoinTest, SmallHandCheckedSize) {
  const JoinSide left = Upload({1, 2, 3, 2}, 2);
  const JoinSide right = Upload({2, 2, 9, 1}, 4);
  // left 0 (key 1) x right 3; left 1,3 (key 2) x right 0,1.
  ASSERT_OK_AND_ASSIGN(uint64_t size, EquiJoinSize(&device_, left, right));
  EXPECT_EQ(size, 5u);
}

TEST_F(EquiJoinTest, MatchesHashJoinOnRandomData) {
  const std::vector<uint32_t> left = RandomInts(800, 5, 261);   // 32 keys
  const std::vector<uint32_t> right = RandomInts(1200, 5, 262);
  const JoinSide ls = Upload(left, 5);
  const JoinSide rs = Upload(right, 5);
  ASSERT_OK_AND_ASSIGN(uint64_t size, EquiJoinSize(&device_, ls, rs));
  EXPECT_EQ(size, ReferenceJoinSize(left, right));
}

TEST_F(EquiJoinTest, DisjointKeysProduceEmptyJoin) {
  std::vector<uint32_t> left(100, 1);
  std::vector<uint32_t> right(100, 2);
  const JoinSide ls = Upload(left, 2);
  const JoinSide rs = Upload(right, 2);
  ASSERT_OK_AND_ASSIGN(uint64_t size, EquiJoinSize(&device_, ls, rs));
  EXPECT_EQ(size, 0u);
}

TEST_F(EquiJoinTest, HistogramEstimateBracketsExactSize) {
  // Ties the join machinery to the Section 5.11 selectivity-estimation
  // story: the histogram estimate should land near the exact GPU-counted
  // size on uniform data, which the CPU hash join confirms.
  const std::vector<uint32_t> left = RandomInts(2000, 8, 265);
  const std::vector<uint32_t> right = RandomInts(2000, 8, 266);
  const JoinSide ls = Upload(left, 8);
  const JoinSide rs = Upload(right, 8);
  ASSERT_OK_AND_ASSIGN(uint64_t exact, EquiJoinSize(&device_, ls, rs));
  EXPECT_EQ(exact, ReferenceJoinSize(left, right));

  ASSERT_OK(device_.SetViewport(left.size()));
  ASSERT_OK_AND_ASSIGN(Histogram hl,
                       GpuHistogram(&device_, ls.key, 0, 256, 16));
  ASSERT_OK(device_.SetViewport(right.size()));
  ASSERT_OK_AND_ASSIGN(Histogram hr,
                       GpuHistogram(&device_, rs.key, 0, 256, 16));
  ASSERT_OK_AND_ASSIGN(double estimate, EstimateEquiJoinSize(hl, hr));
  EXPECT_GT(estimate, 0.5 * static_cast<double>(exact));
  EXPECT_LT(estimate, 2.0 * static_cast<double>(exact));
}

TEST_F(EquiJoinTest, GuardsAndValidation) {
  const JoinSide ls = Upload({1, 2}, 2);
  const JoinSide rs = Upload({1, 2}, 2);
  EXPECT_FALSE(EquiJoinSize(nullptr, ls, rs).ok());
  JoinSide bad = ls;
  bad.rows = 0;
  EXPECT_FALSE(EquiJoinSize(&device_, bad, rs).ok());
  bad = ls;
  bad.key_bits = 0;
  EXPECT_FALSE(EquiJoinSize(&device_, ls, bad).ok());
  // Key-cardinality guard.
  std::vector<uint32_t> many(300);
  for (size_t i = 0; i < many.size(); ++i) many[i] = static_cast<uint32_t>(i);
  const JoinSide wide = Upload(many, 9);
  EquiJoinOptions few_keys;
  few_keys.max_keys = 10;
  EXPECT_FALSE(EquiJoinSize(&device_, wide, rs, few_keys).ok());
}

}  // namespace
}  // namespace core
}  // namespace gpudb
