#include <gtest/gtest.h>

#include "src/gpu/device.h"
#include "src/gpu/perf_model.h"
#include "tests/test_util.h"

namespace gpudb {
namespace gpu {
namespace {

PassRecord SimplePass(uint64_t fragments) {
  PassRecord p;
  p.fragments = fragments;
  p.fp_instructions = 0;
  return p;
}

TEST(PerfModelTest, PaperQuadFillRate) {
  // Section 6.2.2: "we can render a single quad of size 1000x1000 in
  // 0.278 ms" on the FX 5900 (450 MHz, 8 pixels/clock).
  PerfModel model;
  EXPECT_NEAR(model.PassFillMs(SimplePass(1000000)), 0.278, 0.001);
}

TEST(PerfModelTest, FragmentProgramScalesWithInstructions) {
  PerfModel model;
  PassRecord p = SimplePass(1000000);
  p.fp_instructions = 5;
  EXPECT_NEAR(model.PassFillMs(p), 5 * 0.278, 0.01);
}

TEST(PerfModelTest, KthLargestUtilizationMatchesPaper) {
  // 19 single-cycle quads of 1M fragments with one occlusion readback each:
  // ideal 5.28 ms, observed ~6.6 ms -> ~80% utilization (Section 6.2.2).
  DeviceCounters counters;
  for (int i = 0; i < 19; ++i) {
    counters.Add(SimplePass(1000000));
    ++counters.occlusion_readbacks;
  }
  counters.bytes_read_back = 19 * 4;
  PerfModel model;
  const GpuTimeBreakdown b = model.Estimate(counters);
  EXPECT_NEAR(b.fill_ms, 5.28, 0.1);
  EXPECT_NEAR(b.ComputeMs(), 6.6, 0.4);
  EXPECT_NEAR(model.Utilization(counters), 0.80, 0.03);
}

TEST(PerfModelTest, DepthWritePenaltyCharged) {
  DeviceCounters counters;
  PassRecord copy = SimplePass(1000000);
  copy.fp_instructions = 3;
  copy.depth_writes = 1000000;
  counters.Add(copy);
  PerfModel model;
  const GpuTimeBreakdown b = model.Estimate(counters);
  // Copy-to-depth per million records: 3-instr fill + 3-cycle write penalty
  // = ~1.67 ms (DESIGN.md section 6).
  EXPECT_NEAR(b.fill_ms + b.depth_write_ms, 1.67, 0.05);
}

TEST(PerfModelTest, UploadAndReadbackCharged) {
  DeviceCounters counters;
  counters.bytes_uploaded = 4'000'000;  // one 1000x1000 float texture
  counters.bytes_read_back = 1'000'000;
  PerfModel model;
  const GpuTimeBreakdown b = model.Estimate(counters);
  EXPECT_GT(b.upload_ms, 1.0);
  EXPECT_GT(b.buffer_readback_ms, 1.0);
  // Upload is excluded from TotalMs (paper keeps data GPU-resident).
  EXPECT_NEAR(b.TotalMs(), b.ComputeMs() + b.buffer_readback_ms, 1e-9);
}

TEST(PerfModelTest, EmptyCountersCostNothing) {
  PerfModel model;
  EXPECT_EQ(model.EstimateMs(DeviceCounters{}), 0.0);
  EXPECT_EQ(model.Utilization(DeviceCounters{}), 1.0);
}

TEST(PerfModelTest, DeviceDrivenCountersMatchManual) {
  // Run a real pass through the Device and check the model sees it.
  Device dev(100, 100);
  dev.SetDepthTest(true, CompareOp::kAlways);
  ASSERT_OK(dev.RenderQuad(0.5f));
  PerfModel model;
  const GpuTimeBreakdown b = model.Estimate(dev.counters());
  EXPECT_NEAR(b.fill_ms, 10000.0 / (8 * 450e6) * 1e3, 1e-6);
  EXPECT_GT(b.depth_write_ms, 0.0);
}

TEST(PerfModelTest, ScalarCountersPriceLikePerPassSum) {
  // The model prices the device's scalar counters; the same passes priced
  // one record at a time (read through a scope) must agree, for a mix of
  // fixed-function, depth-writing and programmed passes.
  Device dev(64, 64);
  PassLogScope log(&dev);
  std::vector<float> vals(64 * 64, 3.0f);
  ASSERT_OK_AND_ASSIGN(Texture tex, Texture::FromColumns({&vals}, 64));
  ASSERT_OK_AND_ASSIGN(TextureId id, dev.UploadTexture(std::move(tex)));
  ASSERT_OK(dev.BindTexture(id));
  ASSERT_OK(dev.RenderQuad(0.5f));
  dev.SetDepthTest(true, CompareOp::kAlways);
  ASSERT_OK(dev.RenderQuad(0.25f));
  const SemilinearProgram program({1, 0, 0, 0}, CompareOp::kGreater, 1.0f);
  dev.UseProgram(&program);
  ASSERT_OK(dev.RenderTexturedQuad());
  dev.UseProgram(nullptr);

  // The expected times use the per-record formulas directly: a pass costs
  // fragments × max(1, instructions) cycles of fill and depth_write_cycles
  // per depth write, spread over every pipe.
  PerfModel model;
  const double throughput =
      model.params().clock_hz * model.params().pixel_pipes;
  double fill_ms = 0;
  double depth_write_ms = 0;
  for (const PassRecord& pass : log.records()) {
    fill_ms += static_cast<double>(pass.fragments) *
               std::max(1, pass.fp_instructions) / throughput * 1e3;
    depth_write_ms += static_cast<double>(pass.depth_writes) *
                      model.params().depth_write_cycles / throughput * 1e3;
  }
  const GpuTimeBreakdown b = model.Estimate(dev.counters());
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_GT(log.records()[2].fp_instructions, 0);
  EXPECT_NEAR(b.fill_ms, fill_ms, 1e-12);
  EXPECT_NEAR(b.depth_write_ms, depth_write_ms, 1e-12);
  EXPECT_DOUBLE_EQ(b.setup_ms, 3 * model.params().pass_setup_ms);
}

}  // namespace
}  // namespace gpu
}  // namespace gpudb
