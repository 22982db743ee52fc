#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/partition.h"
#include "src/cpu/aggregate.h"
#include "src/cpu/quickselect.h"
#include "src/cpu/scan.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using testing_util::RandomInts;
using testing_util::ToFloats;

/// A deliberately tiny "video memory": 32x32 = 1024 pixels, so a few
/// thousand records force multi-tile execution (paper Section 6.1's
/// out-of-core scenario).
class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() : device_(32, 32) {}

  db::Column MakeColumn(const std::vector<uint32_t>& ints) {
    auto col = db::Column::MakeInt24("c", ints);
    EXPECT_TRUE(col.ok());
    return std::move(col).ValueOrDie();
  }

  gpu::Device device_;
};

TEST_F(PartitionTest, SplitsIntoExpectedTiles) {
  const db::Column col = MakeColumn(RandomInts(5000, 10, 221));
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  EXPECT_EQ(part.tile_count(), 5u);  // ceil(5000 / 1024)
  EXPECT_EQ(part.total_records(), 5000u);
  EXPECT_EQ(part.bit_width(), col.bit_width());
}

TEST_F(PartitionTest, SingleTileWhenItFits) {
  const db::Column col = MakeColumn(RandomInts(1000, 8, 222));
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  EXPECT_EQ(part.tile_count(), 1u);
}

TEST_F(PartitionTest, CountAcrossTilesMatchesCpu) {
  const std::vector<uint32_t> ints = RandomInts(7777, 12, 223);
  const std::vector<float> floats = ToFloats(ints);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  std::vector<uint8_t> mask;
  const uint64_t expected = cpu::PredicateScan(
      floats, gpu::CompareOp::kGreaterEqual, 2000.0f, &mask);
  ASSERT_OK_AND_ASSIGN(
      uint64_t count, part.Count(gpu::CompareOp::kGreaterEqual, 2000.0));
  EXPECT_EQ(count, expected);
}

TEST_F(PartitionTest, SumAcrossTilesExact) {
  const std::vector<uint32_t> ints = RandomInts(6000, 14, 224);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  uint64_t expected = 0;
  for (uint32_t v : ints) expected += v;
  ASSERT_OK_AND_ASSIGN(uint64_t sum, part.Sum());
  EXPECT_EQ(sum, expected);
}

TEST_F(PartitionTest, KthLargestAcrossTilesMatchesQuickSelect) {
  const std::vector<uint32_t> ints = RandomInts(5432, 11, 225);
  const std::vector<float> floats = ToFloats(ints);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  for (uint64_t k : {uint64_t{1}, uint64_t{100}, uint64_t{2716},
                     uint64_t{5432}}) {
    ASSERT_OK_AND_ASSIGN(uint32_t gpu_v, part.KthLargest(k));
    ASSERT_OK_AND_ASSIGN(float cpu_v, cpu::QuickSelectLargest(floats, k));
    EXPECT_EQ(gpu_v, static_cast<uint32_t>(cpu_v)) << "k=" << k;
  }
  EXPECT_FALSE(part.KthLargest(0).ok());
  EXPECT_FALSE(part.KthLargest(5433).ok());
}

TEST_F(PartitionTest, MedianAcrossTiles) {
  const std::vector<uint32_t> ints = RandomInts(3001, 10, 226);
  const std::vector<float> floats = ToFloats(ints);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  ASSERT_OK_AND_ASSIGN(uint32_t gpu_med, part.Median());
  ASSERT_OK_AND_ASSIGN(float cpu_med, cpu::Median(floats));
  EXPECT_EQ(gpu_med, static_cast<uint32_t>(cpu_med));
}

TEST_F(PartitionTest, RejectsUnsupportedInputs) {
  auto float_col = db::Column::MakeFloat("f", {1.0f, 2.0f});
  ASSERT_TRUE(float_col.ok());
  auto part =
      PartitionedColumn::Make(&device_, std::move(float_col).ValueOrDie());
  EXPECT_FALSE(part.ok());
  EXPECT_EQ(part.status().code(), StatusCode::kNotImplemented);
  EXPECT_FALSE(PartitionedColumn::Make(nullptr, MakeColumn({1})).ok());
}

TEST_F(PartitionTest, UploadChargedOncePerTile) {
  const db::Column col = MakeColumn(RandomInts(3000, 8, 228));
  device_.ResetCounters();
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  const uint64_t after_make = device_.counters().bytes_uploaded;
  EXPECT_GT(after_make, 0u);
  ASSERT_OK(part.Count(gpu::CompareOp::kGreater, 10.0).status());
  // Counting swaps textures through the depth buffer but uploads nothing new.
  EXPECT_EQ(device_.counters().bytes_uploaded, after_make);
}

TEST_F(PartitionTest, ZoneMapsPruneFullyMatchingAndNonMatchingTiles) {
  // Sorted data gives disjoint per-tile ranges, so any threshold splits the
  // tiles into all/none/one-partial.
  std::vector<uint32_t> ints(4096);
  for (size_t i = 0; i < ints.size(); ++i) ints[i] = static_cast<uint32_t>(i);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  ASSERT_EQ(part.tile_count(), 4u);

  device_.ResetCounters();
  // Threshold inside tile 2's range: tiles 0,1 none; tile 3 all; tile 2
  // partial -> only one tile renders.
  ASSERT_OK_AND_ASSIGN(uint64_t count,
                       part.Count(gpu::CompareOp::kGreaterEqual, 2500.0));
  EXPECT_EQ(count, 4096u - 2500u);
  EXPECT_EQ(part.tiles_pruned(), 3u);
  // Only the partial tile's copy + compare ran.
  EXPECT_EQ(device_.counters().passes, 2u);
}

TEST_F(PartitionTest, ZoneMapsCanBeDisabled) {
  std::vector<uint32_t> ints(4096);
  for (size_t i = 0; i < ints.size(); ++i) ints[i] = static_cast<uint32_t>(i);
  const db::Column col = MakeColumn(ints);
  PartitionOptions options;
  options.use_zone_maps = false;
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col, options));
  device_.ResetCounters();
  ASSERT_OK_AND_ASSIGN(uint64_t count,
                       part.Count(gpu::CompareOp::kGreaterEqual, 2500.0));
  EXPECT_EQ(count, 4096u - 2500u);
  EXPECT_EQ(part.tiles_pruned(), 0u);
  EXPECT_EQ(device_.counters().passes, 8u);  // every tile renders
}

TEST_F(PartitionTest, ZoneMapsAccelerateKthLargestOnSortedData) {
  std::vector<uint32_t> ints(4096);
  for (size_t i = 0; i < ints.size(); ++i) ints[i] = static_cast<uint32_t>(i);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn pruned,
                       PartitionedColumn::Make(&device_, col));
  PartitionOptions off;
  off.use_zone_maps = false;
  ASSERT_OK_AND_ASSIGN(PartitionedColumn unpruned,
                       PartitionedColumn::Make(&device_, col, off));
  device_.ResetCounters();
  ASSERT_OK_AND_ASSIGN(uint32_t v1, pruned.KthLargest(100));
  const uint64_t pruned_passes = device_.counters().passes;
  device_.ResetCounters();
  ASSERT_OK_AND_ASSIGN(uint32_t v2, unpruned.KthLargest(100));
  const uint64_t unpruned_passes = device_.counters().passes;
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1, 4096u - 100u);
  EXPECT_LT(pruned_passes, unpruned_passes / 2);
  EXPECT_GT(pruned.tiles_pruned(), 0u);
}

TEST_F(PartitionTest, ZoneMapPruningCorrectOnAllOperators) {
  const std::vector<uint32_t> ints = RandomInts(4000, 8, 230);
  const std::vector<float> floats = ToFloats(ints);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  for (gpu::CompareOp op : {gpu::CompareOp::kLess, gpu::CompareOp::kLessEqual,
                            gpu::CompareOp::kEqual,
                            gpu::CompareOp::kGreaterEqual,
                            gpu::CompareOp::kGreater,
                            gpu::CompareOp::kNotEqual}) {
    for (double c : {0.0, 37.0, 128.0, 255.0, 300.0}) {
      std::vector<uint8_t> mask;
      const uint64_t expected = cpu::PredicateScan(
          floats, op, static_cast<float>(c), &mask);
      ASSERT_OK_AND_ASSIGN(uint64_t count, part.Count(op, c));
      ASSERT_EQ(count, expected)
          << gpu::ToString(op) << " c=" << c;
    }
  }
}

TEST_F(PartitionTest, ZoneMapSkipsTilesThatFullyMatch) {
  std::vector<uint32_t> ints(3000);
  for (size_t i = 0; i < ints.size(); ++i) {
    ints[i] = static_cast<uint32_t>(i % 500);  // repeating ramp
  }
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn part,
                       PartitionedColumn::Make(&device_, col));
  ASSERT_OK_AND_ASSIGN(uint64_t count,
                       part.Count(gpu::CompareOp::kLess, 600.0));
  EXPECT_EQ(count, ints.size());  // every tile fully matches (max 499 < 600)
  EXPECT_EQ(part.tiles_pruned(), part.tile_count());
}

TEST_F(PartitionTest, ResultsIdenticalToUnpartitionedDevice) {
  // The same data on a large single-tile device must give the same answers.
  const std::vector<uint32_t> ints = RandomInts(4000, 10, 229);
  const db::Column col = MakeColumn(ints);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn tiled,
                       PartitionedColumn::Make(&device_, col));
  gpu::Device big(100, 100);
  ASSERT_OK_AND_ASSIGN(PartitionedColumn single,
                       PartitionedColumn::Make(&big, col));
  EXPECT_EQ(single.tile_count(), 1u);
  ASSERT_OK_AND_ASSIGN(uint64_t c1,
                       tiled.Count(gpu::CompareOp::kLessEqual, 500.0));
  ASSERT_OK_AND_ASSIGN(uint64_t c2,
                       single.Count(gpu::CompareOp::kLessEqual, 500.0));
  EXPECT_EQ(c1, c2);
  ASSERT_OK_AND_ASSIGN(uint32_t k1, tiled.KthLargest(123));
  ASSERT_OK_AND_ASSIGN(uint32_t k2, single.KthLargest(123));
  EXPECT_EQ(k1, k2);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
