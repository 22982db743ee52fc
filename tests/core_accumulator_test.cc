#include <vector>

#include <gtest/gtest.h>

#include "src/core/accumulator.h"
#include "src/core/compare.h"
#include "src/cpu/aggregate.h"
#include "src/cpu/scan.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using testing_util::RandomInts;
using testing_util::ToFloats;
using testing_util::UploadIntAttribute;

class AccumulatorTest : public ::testing::Test {
 protected:
  AccumulatorTest() : device_(64, 64) {}
  gpu::Device device_;
};

TEST_F(AccumulatorTest, SumExactOnRandomData) {
  const std::vector<uint32_t> ints = RandomInts(4000, 16, 91);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  uint64_t expected = 0;
  for (uint32_t v : ints) expected += v;
  ASSERT_OK_AND_ASSIGN(uint64_t sum,
                       Accumulate(&device_, attr.texture, 0, 16));
  EXPECT_EQ(sum, expected);
}

TEST_F(AccumulatorTest, SumExactAtFull24Bits) {
  const std::vector<uint32_t> ints = {(1u << 24) - 1, (1u << 24) - 1, 0, 1};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(uint64_t sum,
                       Accumulate(&device_, attr.texture, 0, 24));
  EXPECT_EQ(sum, 2ull * ((1u << 24) - 1) + 1);
}

TEST_F(AccumulatorTest, OnePassPerBit) {
  const std::vector<uint32_t> ints = RandomInts(100, 13, 92);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  device_.ResetCounters();
  gpu::PassLogScope log(&device_);
  ASSERT_OK(Accumulate(&device_, attr.texture, 0, 13).status());
  EXPECT_EQ(device_.counters().passes, 13u);
  EXPECT_EQ(device_.counters().occlusion_readbacks, 13u);
  // Every pass runs the paper's 5-instruction TestBit program.
  ASSERT_EQ(log.records().size(), 13u);
  for (const gpu::PassRecord& pass : log.records()) {
    EXPECT_EQ(pass.fp_instructions, 5);
  }
}

TEST_F(AccumulatorTest, MaskedSumMatchesCpu) {
  const std::vector<uint32_t> ints = RandomInts(2000, 12, 93);
  const std::vector<float> floats = ToFloats(ints);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  // Select values < 1000 on the GPU.
  ASSERT_OK_AND_ASSIGN(
      uint64_t selected,
      CompareSelect(&device_, attr, gpu::CompareOp::kLess, 1000.0));
  std::vector<uint8_t> cpu_mask;
  cpu::PredicateScan(floats, gpu::CompareOp::kLess, 1000.0f, &cpu_mask);

  AccumulatorOptions options;
  options.selection = StencilSelection{1, selected};
  ASSERT_OK_AND_ASSIGN(
      uint64_t sum, Accumulate(&device_, attr.texture, 0, 12, options));
  EXPECT_EQ(sum, cpu::MaskedSumInt(floats, cpu_mask));
}

TEST_F(AccumulatorTest, KillVariantMatchesAlphaVariant) {
  const std::vector<uint32_t> ints = RandomInts(1500, 10, 94);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(uint64_t alpha_sum,
                       Accumulate(&device_, attr.texture, 0, 10));
  AccumulatorOptions kill;
  kill.use_alpha_test = false;
  ASSERT_OK_AND_ASSIGN(uint64_t kill_sum,
                       Accumulate(&device_, attr.texture, 0, 10, kill));
  EXPECT_EQ(alpha_sum, kill_sum);
}

TEST_F(AccumulatorTest, KillVariantCostsMoreInstructions) {
  const std::vector<uint32_t> ints = RandomInts(100, 8, 95);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  device_.ResetCounters();
  ASSERT_OK(Accumulate(&device_, attr.texture, 0, 8).status());
  const uint64_t alpha_instr = device_.counters().fp_instructions_executed;
  device_.ResetCounters();
  AccumulatorOptions kill;
  kill.use_alpha_test = false;
  ASSERT_OK(Accumulate(&device_, attr.texture, 0, 8, kill).status());
  EXPECT_GT(device_.counters().fp_instructions_executed, alpha_instr);
}

TEST_F(AccumulatorTest, AverageDividesByCount) {
  const std::vector<uint32_t> ints = {10, 20, 30, 40};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(double avg, Average(&device_, attr.texture, 0, 6));
  EXPECT_DOUBLE_EQ(avg, 25.0);
}

TEST_F(AccumulatorTest, MaskedAverage) {
  const std::vector<uint32_t> ints = {10, 20, 30, 40};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(
      uint64_t selected,
      CompareSelect(&device_, attr, gpu::CompareOp::kGreaterEqual, 30.0));
  AccumulatorOptions options;
  options.selection = StencilSelection{1, selected};
  ASSERT_OK_AND_ASSIGN(double avg,
                       Average(&device_, attr.texture, 0, 6, options));
  EXPECT_DOUBLE_EQ(avg, 35.0);
}

TEST_F(AccumulatorTest, ZeroDataSumsToZero) {
  const std::vector<uint32_t> ints(64, 0);
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  ASSERT_OK_AND_ASSIGN(uint64_t sum,
                       Accumulate(&device_, attr.texture, 0, 1));
  EXPECT_EQ(sum, 0u);
}

TEST_F(AccumulatorTest, ValidatesBitWidth) {
  const std::vector<uint32_t> ints = {1};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  EXPECT_FALSE(Accumulate(&device_, attr.texture, 0, 0).ok());
  EXPECT_FALSE(Accumulate(&device_, attr.texture, 0, 25).ok());
}

TEST_F(AccumulatorTest, EmptySelectionAverageFails) {
  const std::vector<uint32_t> ints = {1, 2};
  AttributeBinding attr = UploadIntAttribute(&device_, ints);
  AccumulatorOptions options;
  options.selection = StencilSelection{1, 0};
  EXPECT_FALSE(Average(&device_, attr.texture, 0, 2, options).ok());
}

}  // namespace
}  // namespace core
}  // namespace gpudb
