#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/profile.h"
#include "src/gpu/device.h"
#include "src/gpu/fragment_program.h"
#include "src/gpu/perf_model.h"
#include "tests/test_util.h"

namespace gpudb {
namespace gpu {
namespace {

using testing_util::ToFloats;

TEST(DepthQuantizationTest, ExactAtBoundaries) {
  EXPECT_EQ(QuantizeDepth(0.0f), 0u);
  EXPECT_EQ(QuantizeDepth(1.0f), kDepthMax);
  EXPECT_EQ(QuantizeDepth(-0.5f), 0u);
  EXPECT_EQ(QuantizeDepth(2.0f), kDepthMax);
}

TEST(DepthQuantizationTest, IntegerIdentityUnderExactEncoding) {
  // v / (2^24 - 1) must quantize back to v for every 24-bit integer.
  for (uint32_t v :
       {0u, 1u, 2u, 255u, 65535u, (1u << 23), (1u << 24) - 2, kDepthMax}) {
    const float d = static_cast<float>(v) / static_cast<float>(kDepthMax);
    EXPECT_EQ(QuantizeDepth(d), v) << "v=" << v;
  }
}

TEST(DepthPrecisionTest, ConfigurableDepthBits) {
  gpu::FrameBuffer fb16(4, 4, 16);
  EXPECT_EQ(fb16.depth_bits(), 16);
  EXPECT_EQ(fb16.depth_max(), (1u << 16) - 1);
  EXPECT_EQ(fb16.depth(0), (1u << 16) - 1);  // cleared to far plane
  // Quantization respects the narrower precision.
  EXPECT_EQ(fb16.Quantize(1.0f), (1u << 16) - 1);
  EXPECT_EQ(fb16.Quantize(0.0f), 0u);
}

TEST(DepthPrecisionTest, SixteenBitBufferExactForSixteenBitData) {
  // Integers within the buffer's precision still round-trip exactly.
  const uint32_t max16 = (1u << 16) - 1;
  gpu::FrameBuffer fb16(1, 1, 16);
  for (uint32_t v : {0u, 1u, 255u, 32768u, max16}) {
    const float d = static_cast<float>(v) / static_cast<float>(max16);
    EXPECT_EQ(fb16.Quantize(d), v) << v;
  }
}

TEST(DepthPrecisionTest, NarrowBufferCollidesWideValues) {
  // Two distinct 19-bit values that share a 16-bit depth code: a strict
  // comparison between them is no longer representable -- the Section 6.1
  // precision issue in miniature.
  gpu::FrameBuffer fb16(1, 1, 16);
  const double scale = 1.0 / ((1u << 19) - 1);  // 19-bit exact encoding
  const uint32_t a = 100000;
  const uint32_t b = 100001;
  const uint32_t qa = fb16.Quantize(static_cast<float>(a * scale));
  const uint32_t qb = fb16.Quantize(static_cast<float>(b * scale));
  EXPECT_EQ(qa, qb);  // collision
  gpu::FrameBuffer fb24(1, 1, 24);
  EXPECT_NE(fb24.Quantize(static_cast<float>(a * scale)),
            fb24.Quantize(static_cast<float>(b * scale)));
}

TEST(DeviceTest, ClearsFillDepthAndStencil) {
  Device dev(4, 4);
  dev.ClearDepth(0.5f);
  dev.ClearStencil(3);
  const FrameBuffer& fb = dev.framebuffer();
  for (uint64_t i = 0; i < fb.pixel_count(); ++i) {
    EXPECT_EQ(fb.depth(i), QuantizeDepth(0.5f));
    EXPECT_EQ(fb.stencil(i), 3);
  }
}

TEST(DeviceTest, RenderQuadDepthTestLess) {
  Device dev(2, 2);
  dev.ClearDepth(0.5f);
  dev.SetDepthTest(true, CompareOp::kLess);
  dev.SetDepthWriteMask(true);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderQuad(0.25f));  // 0.25 < 0.5 everywhere -> 4 pass
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 4u);
  // Depth written on pass.
  EXPECT_EQ(dev.framebuffer().depth(0), QuantizeDepth(0.25f));
}

TEST(DeviceTest, DepthWriteRequiresDepthTestEnabled) {
  Device dev(2, 2);
  dev.ClearDepth(1.0f);
  dev.SetDepthTest(false, CompareOp::kAlways);
  dev.SetDepthWriteMask(true);
  ASSERT_OK(dev.RenderQuad(0.25f));
  // OpenGL semantics: depth test disabled bypasses depth update.
  EXPECT_EQ(dev.framebuffer().depth(0), kDepthMax);
}

TEST(DeviceTest, DepthWriteMaskBlocksWrites) {
  Device dev(2, 2);
  dev.ClearDepth(1.0f);
  dev.SetDepthTest(true, CompareOp::kAlways);
  dev.SetDepthWriteMask(false);
  ASSERT_OK(dev.RenderQuad(0.25f));
  EXPECT_EQ(dev.framebuffer().depth(0), kDepthMax);
}

TEST(DeviceTest, StencilThreeOutcomeOps) {
  // Exercise Op1 (stencil fail), Op2 (depth fail), Op3 (pass) in one pass:
  // pixel stencil values 0,1 and depth values arranged to split outcomes.
  Device dev(3, 1);
  ASSERT_OK(dev.SetViewport(3));
  dev.ClearDepth(0.5f);
  // Pixel 0: stencil 0 -> fails stencil test (ref 1 EQUAL) -> Op1 INVERT.
  // Pixel 1: stencil 1, depth test LESS fails (0.75 !< 0.5) -> Op2 ZERO...
  //          use DECR to see 1 -> 0.
  // Pixel 2: stencil 1, make stored depth 1.0 so 0.75 < 1.0 -> Op3 INCR.
  dev.framebuffer().set_stencil(0, 0);
  dev.framebuffer().set_stencil(1, 1);
  dev.framebuffer().set_stencil(2, 1);
  dev.framebuffer().set_depth(2, kDepthMax);
  dev.SetStencilTest(true, CompareOp::kEqual, 1);
  dev.SetStencilOp(StencilOp::kInvert, StencilOp::kDecr, StencilOp::kIncr);
  dev.SetDepthTest(true, CompareOp::kLess);
  dev.SetDepthWriteMask(false);
  ASSERT_OK(dev.RenderQuad(0.75f));
  EXPECT_EQ(dev.framebuffer().stencil(0), 0xff);  // INVERT of 0
  EXPECT_EQ(dev.framebuffer().stencil(1), 0);     // DECR of 1
  EXPECT_EQ(dev.framebuffer().stencil(2), 2);     // INCR of 1
}

TEST(DeviceTest, StencilIncrDecrSaturate) {
  EXPECT_EQ(ApplyStencilOp(StencilOp::kIncr, 0xff, 0), 0xff);
  EXPECT_EQ(ApplyStencilOp(StencilOp::kDecr, 0, 0), 0);
  EXPECT_EQ(ApplyStencilOp(StencilOp::kIncr, 7, 0), 8);
  EXPECT_EQ(ApplyStencilOp(StencilOp::kDecr, 7, 0), 6);
  EXPECT_EQ(ApplyStencilOp(StencilOp::kReplace, 7, 5), 5);
  EXPECT_EQ(ApplyStencilOp(StencilOp::kZero, 7, 5), 0);
  EXPECT_EQ(ApplyStencilOp(StencilOp::kKeep, 7, 5), 7);
}

TEST(DeviceTest, StencilValueMaskAppliesToComparison) {
  Device dev(1, 1);
  dev.framebuffer().set_stencil(0, 0b1010);
  // Compare only the low two bits: (ref & 0b11) == (stored & 0b11) ->
  // (0b10 & 0b11)=2 vs (0b1010 & 0b11)=2 -> pass.
  dev.SetStencilTest(true, CompareOp::kEqual, 0b10, /*value_mask=*/0b11);
  dev.SetStencilOp(StencilOp::kKeep, StencilOp::kKeep, StencilOp::kKeep);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderQuad(0.0f));
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 1u);
}

TEST(DeviceTest, AlphaTestFailureSkipsStencilUpdate) {
  // Alpha test runs before the stencil stage; failing fragments must not
  // trigger any stencil op.
  Device dev(2, 1);
  ASSERT_OK(dev.SetViewport(2));
  std::vector<float> vals = {0.0f, 1.0f};
  ASSERT_OK_AND_ASSIGN(Texture tex, Texture::FromColumns({&vals}, 2));
  ASSERT_OK_AND_ASSIGN(TextureId id, dev.UploadTexture(std::move(tex)));
  ASSERT_OK(dev.BindTexture(id));
  // TestBit(bit 0): alpha = frac(v/2) -> 0.0 for v=0, 0.5 for v=1.
  TestBitProgram program(0, 0);
  dev.UseProgram(&program);
  dev.SetAlphaTest(true, CompareOp::kGreaterEqual, 0.5f);
  dev.ClearStencil(0);
  dev.SetStencilTest(true, CompareOp::kAlways, 1);
  dev.SetStencilOp(StencilOp::kReplace, StencilOp::kReplace,
                   StencilOp::kReplace);
  ASSERT_OK(dev.RenderTexturedQuad());
  EXPECT_EQ(dev.framebuffer().stencil(0), 0);  // alpha-failed: untouched
  EXPECT_EQ(dev.framebuffer().stencil(1), 1);  // passed: Op3
}

TEST(DeviceTest, DepthBoundsTestChecksStoredDepth) {
  // GL_EXT_depth_bounds_test semantics: the stored framebuffer depth is
  // tested, not the incoming fragment depth.
  Device dev(3, 1);
  ASSERT_OK(dev.SetViewport(3));
  dev.framebuffer().set_depth(0, QuantizeDepth(0.1f));
  dev.framebuffer().set_depth(1, QuantizeDepth(0.5f));
  dev.framebuffer().set_depth(2, QuantizeDepth(0.9f));
  dev.SetDepthBoundsTest(true, 0.4f, 0.6f);
  dev.SetDepthTest(false, CompareOp::kAlways);
  ASSERT_OK(dev.BeginOcclusionQuery());
  // Fragment depth 0.99 is irrelevant to the bounds test.
  ASSERT_OK(dev.RenderQuad(0.99f));
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 1u);  // only the pixel storing 0.5
}

TEST(DeviceTest, DepthBoundsFailureTriggersZFailOp) {
  Device dev(1, 1);
  dev.framebuffer().set_depth(0, QuantizeDepth(0.9f));
  dev.ClearStencil(1);
  dev.SetDepthBoundsTest(true, 0.0f, 0.5f);
  dev.SetStencilTest(true, CompareOp::kAlways, 0);
  dev.SetStencilOp(StencilOp::kKeep, StencilOp::kZero, StencilOp::kKeep);
  ASSERT_OK(dev.RenderQuad(0.0f));
  EXPECT_EQ(dev.framebuffer().stencil(0), 0);  // Op2 fired
}

TEST(DeviceTest, ViewportLimitsFragmentGeneration) {
  Device dev(10, 10);
  ASSERT_OK(dev.SetViewport(37));
  dev.SetDepthTest(false, CompareOp::kAlways);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderQuad(0.0f));
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 37u);
  EXPECT_FALSE(dev.SetViewport(0).ok());
  EXPECT_FALSE(dev.SetViewport(101).ok());
}

// --- The coverage rule: clears and triangles reach exactly the pixels a
// screen-filling quad covers. A 37-pixel row is longer than one 16-lane
// kernel step, and the viewport ends mid-row.
constexpr uint32_t kCoverW = 37;
constexpr uint32_t kCoverH = 9;
constexpr uint64_t kCoverViewport = uint64_t{kCoverW} * 5 + 20;

struct ScissorCase {
  bool enabled = false;
  ScissorRect rect;
};

std::vector<ScissorCase> CoverageScissors() {
  return {
      {false, {}},
      {true, {3, 2, 30, 7}},       // full rows and the partial row, clipped
      {true, {0, 5, kCoverW, 9}},  // the partial row alone
      {true, {25, 0, kCoverW, 9}}, // right of the partial row's end
      {true, {0, 6, kCoverW, 9}},  // below the viewport: nothing
  };
}

/// Fills every plane with a sentinel across the whole framebuffer (a fresh
/// device's viewport is all of it), then narrows viewport and scissor.
void PrepareCoverage(Device* dev, const ScissorCase& sc) {
  dev->ClearStencil(7);
  dev->ClearDepth(0.25f);
  ASSERT_OK(dev->SetViewport(kCoverViewport));
  dev->state().scissor_test_enabled = sc.enabled;
  dev->state().scissor = sc.rect;
}

/// The pixels RenderQuad visits under `sc`, marked by a REPLACE-on-pass
/// stencil op.
std::vector<bool> QuadVisits(const ScissorCase& sc) {
  Device dev(kCoverW, kCoverH);
  PrepareCoverage(&dev, sc);
  dev.SetStencilTest(true, CompareOp::kAlways, 1);
  dev.SetStencilOp(StencilOp::kKeep, StencilOp::kKeep, StencilOp::kReplace);
  EXPECT_OK(dev.RenderQuad(0.5f));
  std::vector<bool> visits(dev.framebuffer().pixel_count());
  for (uint64_t i = 0; i < visits.size(); ++i) {
    visits[i] = dev.framebuffer().stencil(i) == 1;
  }
  return visits;
}

TEST(CoverageTest, ClearsWriteExactlyTheQuadCoverage) {
  for (const ScissorCase& sc : CoverageScissors()) {
    SCOPED_TRACE(sc.enabled ? "scissor on" : "scissor off");
    const std::vector<bool> visits = QuadVisits(sc);
    if (!sc.enabled) {
      EXPECT_EQ(std::count(visits.begin(), visits.end(), true),
                static_cast<std::ptrdiff_t>(kCoverViewport));
    }
    Device dev(kCoverW, kCoverH);
    PrepareCoverage(&dev, sc);
    dev.ClearStencil(1);
    dev.ClearDepth(0.75f);
    const FrameBuffer& fb = dev.framebuffer();
    for (uint64_t i = 0; i < fb.pixel_count(); ++i) {
      SCOPED_TRACE("pixel " + std::to_string(i));
      const bool v = visits[i];
      EXPECT_EQ(fb.stencil(i), v ? 1 : 7);
      EXPECT_EQ(fb.depth(i), QuantizeDepth(v ? 0.75f : 0.25f));
    }
  }
}

TEST(CoverageTest, TrianglesNeverLeaveTheQuadCoverage) {
  for (const ScissorCase& sc : CoverageScissors()) {
    SCOPED_TRACE(sc.enabled ? "scissor on" : "scissor off");
    const std::vector<bool> visits = QuadVisits(sc);
    Device dev(kCoverW, kCoverH);
    PrepareCoverage(&dev, sc);
    dev.SetStencilTest(true, CompareOp::kAlways, 1);
    dev.SetStencilOp(StencilOp::kKeep, StencilOp::kKeep, StencilOp::kReplace);
    // Two triangles over the whole window, past the viewport's last pixel.
    const auto w = static_cast<float>(kCoverW);
    const auto h = static_cast<float>(kCoverH);
    const Vertex a{0, 0, 0.5f};
    const Vertex b{w, 0, 0.5f};
    const Vertex c{w, h, 0.5f};
    const Vertex d{0, h, 0.5f};
    ASSERT_OK(dev.BeginOcclusionQuery());
    ASSERT_OK(dev.DrawTriangles({a, b, c, a, c, d}));
    ASSERT_OK_AND_ASSIGN(uint64_t drawn, dev.EndOcclusionQuery());
    EXPECT_EQ(drawn, static_cast<uint64_t>(
                         std::count(visits.begin(), visits.end(), true)));
    for (uint64_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(dev.framebuffer().stencil(i), visits[i] ? 1 : 7) << i;
    }
  }
}

TEST(DeviceTest, OcclusionQueryErrors) {
  Device dev(2, 2);
  EXPECT_FALSE(dev.EndOcclusionQuery().ok());  // none active
  ASSERT_OK(dev.BeginOcclusionQuery());
  EXPECT_FALSE(dev.BeginOcclusionQuery().ok());  // already active
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 0u);  // nothing rendered
}

TEST(DeviceTest, BindTextureValidatesId) {
  Device dev(2, 2);
  EXPECT_FALSE(dev.BindTexture(0).ok());
  EXPECT_FALSE(dev.RenderTexturedQuad().ok());  // nothing bound
}

TEST(DeviceTest, CountersTrackWork) {
  Device dev(4, 4);
  PassLogScope log(&dev);
  dev.SetDepthTest(true, CompareOp::kAlways);
  ASSERT_OK(dev.RenderQuad(0.5f));
  ASSERT_OK(dev.RenderQuad(0.5f));
  const DeviceCounters& c = dev.counters();
  EXPECT_EQ(c.passes, 2u);
  EXPECT_EQ(c.fragments_generated, 32u);
  EXPECT_EQ(c.fragments_passed, 32u);
  EXPECT_EQ(c.depth_writes, 32u);
  // Fixed-function fragments cost one fill cycle each.
  EXPECT_EQ(c.fill_cycles, 32u);
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].fragments, 16u);
  dev.ResetCounters();
  EXPECT_EQ(dev.counters().passes, 0u);
}

TEST(DeviceTest, UploadChargesBusBytes) {
  Device dev(4, 4);
  ASSERT_OK_AND_ASSIGN(Texture tex, Texture::Make(4, 4, 2));
  const uint64_t bytes = tex.byte_size();
  ASSERT_OK_AND_ASSIGN(TextureId id, dev.UploadTexture(std::move(tex)));
  EXPECT_GE(id, 0);
  EXPECT_EQ(dev.counters().bytes_uploaded, bytes);
}

TEST(DeviceTest, ReadbacksChargeBytes) {
  Device dev(4, 4);
  (void)dev.ReadStencil();
  EXPECT_EQ(dev.counters().bytes_read_back, 16u);
  (void)dev.ReadDepth();
  EXPECT_EQ(dev.counters().bytes_read_back, 16u + 64u);
}

TEST(DeviceTest, FragmentProgramKillSkipsEverything) {
  Device dev(2, 1);
  ASSERT_OK(dev.SetViewport(2));
  std::vector<float> a = {1.0f, -1.0f};
  ASSERT_OK_AND_ASSIGN(Texture tex, Texture::FromColumns({&a}, 2));
  ASSERT_OK_AND_ASSIGN(TextureId id, dev.UploadTexture(std::move(tex)));
  ASSERT_OK(dev.BindTexture(id));
  // Keep fragments with value >= 0.
  SemilinearProgram program({1, 0, 0, 0}, CompareOp::kGreaterEqual, 0.0f);
  dev.UseProgram(&program);
  dev.ClearStencil(0);
  dev.SetStencilTest(true, CompareOp::kAlways, 1);
  dev.SetStencilOp(StencilOp::kReplace, StencilOp::kReplace,
                   StencilOp::kReplace);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderTexturedQuad());
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(dev.framebuffer().stencil(0), 1);
  EXPECT_EQ(dev.framebuffer().stencil(1), 0);  // killed: no stencil op
}

// Turns the global deep profiler on for one test and restores it (flag and
// label aggregates) on the way out, so profiled device tests do not leak
// state into each other.
class ProfilerOnGuard {
 public:
  ProfilerOnGuard() : was_(Profiler::Global().enabled()) {
    Profiler::Global().set_enabled(true);
  }
  ~ProfilerOnGuard() {
    Profiler::Global().set_enabled(was_);
    Profiler::Global().ResetForTesting();
  }

 private:
  bool was_;
};

TEST(DeviceTest, ProfiledQuadPassComputesDeepCountersAndPlaneTraffic) {
  ProfilerOnGuard profiling;
  Device dev(2, 2);
  dev.ClearDepth(0.5f);
  dev.SetDepthTest(true, CompareOp::kLess);
  dev.SetDepthWriteMask(true);
  PassLogScope log(&dev);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderQuad(0.25f));  // all 4 fragments pass and write depth
  ASSERT_OK(dev.RenderQuad(0.75f));  // all 4 fail the kLess test
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 4u);

  ASSERT_EQ(log.records().size(), 2u);
  const PassRecord& hit = log.records()[0];
  EXPECT_TRUE(hit.profiled);
  EXPECT_EQ(hit.prof.alpha_killed, 0u);
  EXPECT_EQ(hit.prof.stencil_killed, 0u);
  EXPECT_EQ(hit.prof.depth_tested, 4u);
  EXPECT_EQ(hit.prof.depth_killed, 0u);
  EXPECT_EQ(hit.prof.occlusion_samples, 4u);
  // Bandwidth model: stencil test off, so reads are the 4-byte stored
  // depth per tested fragment; writes are 4-byte depth updates plus the
  // 16-byte color writes of the passing fragments.
  EXPECT_EQ(hit.prof.plane_bytes_read, 4u * 4);
  EXPECT_EQ(hit.prof.plane_bytes_written, 4u * 4 + 4u * 16);

  const PassRecord& miss = log.records()[1];
  EXPECT_TRUE(miss.profiled);
  EXPECT_EQ(miss.prof.depth_tested, 4u);
  EXPECT_EQ(miss.prof.depth_killed, 4u);
  EXPECT_EQ(miss.prof.occlusion_samples, 0u);
  EXPECT_EQ(miss.prof.plane_bytes_read, 4u * 4);
  EXPECT_EQ(miss.prof.plane_bytes_written, 0u);

  // The global aggregate sums both passes under the fixed-function label.
  const auto groups = Profiler::Global().Snapshot();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].label, "fixed-function");
  EXPECT_EQ(groups[0].passes, 2u);
  EXPECT_EQ(groups[0].fragments, 8u);
  EXPECT_EQ(groups[0].prof.depth_tested, 8u);
  EXPECT_EQ(groups[0].prof.depth_killed, 4u);
  EXPECT_EQ(groups[0].prof.plane_bytes_written, 4u * 4 + 4u * 16);
}

TEST(DeviceTest, ProfiledKillAttributionSplitsAlphaAndStencil) {
  ProfilerOnGuard profiling;
  Device dev(2, 1);
  ASSERT_OK(dev.SetViewport(2));
  std::vector<float> a = {1.0f, -1.0f};
  ASSERT_OK_AND_ASSIGN(Texture tex, Texture::FromColumns({&a}, 2));
  ASSERT_OK_AND_ASSIGN(TextureId id, dev.UploadTexture(std::move(tex)));
  ASSERT_OK(dev.BindTexture(id));
  SemilinearProgram program({1, 0, 0, 0}, CompareOp::kGreaterEqual, 0.0f);
  dev.UseProgram(&program);
  dev.ClearStencil(0);
  dev.SetStencilTest(true, CompareOp::kAlways, 1);
  dev.SetStencilOp(StencilOp::kReplace, StencilOp::kReplace,
                   StencilOp::kReplace);
  PassLogScope log(&dev);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderTexturedQuad());
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 1u);

  ASSERT_EQ(log.records().size(), 1u);
  const PassRecord& pass = log.records().back();
  ASSERT_TRUE(pass.profiled);
  // The program KIL on the negative value is an alpha-stage kill; the
  // always-true stencil test kills nothing, so one fragment reaches the
  // (disabled) depth stage and passes.
  EXPECT_EQ(pass.prof.alpha_killed, 1u);
  EXPECT_EQ(pass.prof.stencil_killed, 0u);
  EXPECT_EQ(pass.prof.depth_tested, 1u);
  EXPECT_EQ(pass.prof.depth_killed, 0u);
  EXPECT_EQ(pass.prof.occlusion_samples, 1u);
  // Stencil enabled, depth off: 1 byte read for the surviving fragment,
  // 1 stencil byte + 16 color bytes written.
  EXPECT_EQ(pass.prof.plane_bytes_read, 1u);
  EXPECT_EQ(pass.prof.plane_bytes_written, 1u + 16u);
}

TEST(DeviceTest, UnprofiledPassLeavesDeepCountersZero) {
  ASSERT_FALSE(Profiler::Global().enabled());
  Device dev(2, 2);
  PassLogScope log(&dev);
  dev.SetDepthTest(true, CompareOp::kAlways);
  ASSERT_OK(dev.RenderQuad(0.5f));
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_FALSE(log.records()[0].profiled);
  EXPECT_EQ(log.records()[0].prof, PassProfile{});
}

TEST(VideoMemoryTest, UploadWithinBudgetStaysResident) {
  Device dev(8, 8);
  ASSERT_OK(dev.SetVideoMemoryBudget(4096));
  std::vector<float> vals(64, 1.0f);
  auto tex = Texture::FromColumns({&vals}, 8);  // 64 * 4 = 256 bytes
  ASSERT_OK_AND_ASSIGN(TextureId id,
                       dev.UploadTexture(std::move(tex).ValueOrDie()));
  (void)id;
  EXPECT_EQ(dev.video_memory_used(), 256u);
  EXPECT_EQ(dev.counters().texture_swap_ins, 0u);
  EXPECT_EQ(dev.counters().bytes_swapped, 0u);
}

TEST(VideoMemoryTest, ExceedingBudgetEvictsLruAndChargesSwaps) {
  Device dev(8, 8);
  // Budget fits exactly two 256-byte textures.
  ASSERT_OK(dev.SetVideoMemoryBudget(512));
  std::vector<float> vals(64, 1.0f);
  TextureId ids[3];
  for (auto& id : ids) {
    auto tex = Texture::FromColumns({&vals}, 8);
    ASSERT_OK_AND_ASSIGN(id, dev.UploadTexture(std::move(tex).ValueOrDie()));
  }
  // Uploading the third evicted the first (LRU).
  EXPECT_EQ(dev.video_memory_used(), 512u);
  ASSERT_OK(dev.SetViewport(64));
  dev.SetDepthTest(false, CompareOp::kAlways);
  // Touching the evicted texture swaps it back in (and evicts another).
  ASSERT_OK(dev.BindTexture(ids[0]));
  ASSERT_OK(dev.RenderTexturedQuad());
  EXPECT_EQ(dev.counters().texture_swap_ins, 1u);
  EXPECT_EQ(dev.counters().bytes_swapped, 256u);
  // Re-touching while resident costs nothing more.
  ASSERT_OK(dev.RenderTexturedQuad());
  EXPECT_EQ(dev.counters().texture_swap_ins, 1u);
}

TEST(VideoMemoryTest, TextureLargerThanBudgetRejected) {
  Device dev(8, 8);
  ASSERT_OK(dev.SetVideoMemoryBudget(100));
  std::vector<float> vals(64, 1.0f);
  auto tex = Texture::FromColumns({&vals}, 8);
  auto id = dev.UploadTexture(std::move(tex).ValueOrDie());
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(dev.SetVideoMemoryBudget(0).ok());
}

TEST(VideoMemoryTest, SwapTimeChargedByPerfModel) {
  Device dev(8, 8);
  ASSERT_OK(dev.SetVideoMemoryBudget(512));
  std::vector<float> vals(64, 1.0f);
  TextureId ids[3];
  for (auto& id : ids) {
    auto tex = Texture::FromColumns({&vals}, 8);
    ASSERT_OK_AND_ASSIGN(id, dev.UploadTexture(std::move(tex).ValueOrDie()));
  }
  ASSERT_OK(dev.SetViewport(64));
  dev.ResetCounters();
  ASSERT_OK(dev.BindTexture(ids[0]));  // evicted: will swap on use
  ASSERT_OK(dev.RenderTexturedQuad());
  PerfModel model;
  const GpuTimeBreakdown b = model.Estimate(dev.counters());
  EXPECT_GT(b.swap_ms, 0.0);
  EXPECT_GT(b.TotalMs(), b.ComputeMs());
}

TEST(TextureUnitTest, BindAndUnbindUnits) {
  Device dev(4, 4);
  std::vector<float> vals(16, 2.0f);
  auto tex = Texture::FromColumns({&vals}, 4);
  ASSERT_OK_AND_ASSIGN(TextureId id,
                       dev.UploadTexture(std::move(tex).ValueOrDie()));
  ASSERT_OK(dev.BindTextureUnit(1, id));
  ASSERT_OK(dev.UnbindTextureUnit(1));
  EXPECT_FALSE(dev.BindTextureUnit(4, id).ok());
  EXPECT_FALSE(dev.BindTextureUnit(-1, id).ok());
  EXPECT_FALSE(dev.BindTextureUnit(0, 99).ok());
  EXPECT_FALSE(dev.UnbindTextureUnit(7).ok());
}

TEST(TextureUnitTest, WideSemilinearReadsTwoUnits) {
  Device dev(4, 4);
  std::vector<float> a = {1, 2, 3, 4};
  std::vector<float> b = {10, 20, 30, 40};
  auto ta = Texture::FromColumns({&a}, 4);
  auto tb = Texture::FromColumns({&b}, 4);
  ASSERT_OK_AND_ASSIGN(TextureId ia,
                       dev.UploadTexture(std::move(ta).ValueOrDie()));
  ASSERT_OK_AND_ASSIGN(TextureId ib,
                       dev.UploadTexture(std::move(tb).ValueOrDie()));
  ASSERT_OK(dev.SetViewport(4));
  ASSERT_OK(dev.BindTextureUnit(0, ia));
  ASSERT_OK(dev.BindTextureUnit(1, ib));
  // dot = a + b: {11, 22, 33, 44}; keep > 25.
  WideSemilinearProgram program({1, 0, 0, 0, 1, 0, 0, 0},
                                CompareOp::kGreater, 25.0f);
  dev.UseProgram(&program);
  dev.SetDepthTest(false, CompareOp::kAlways);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderTexturedQuad());
  ASSERT_OK_AND_ASSIGN(uint64_t count, dev.EndOcclusionQuery());
  EXPECT_EQ(count, 2u);
}

TEST(CompareOpTest, EvalCompareAllOps) {
  EXPECT_TRUE(EvalCompare(CompareOp::kLess, 1, 2));
  EXPECT_FALSE(EvalCompare(CompareOp::kLess, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kLessEqual, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kEqual, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kGreaterEqual, 2, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kGreater, 3, 2));
  EXPECT_TRUE(EvalCompare(CompareOp::kNotEqual, 3, 2));
  EXPECT_FALSE(EvalCompare(CompareOp::kNever, 1, 1));
  EXPECT_TRUE(EvalCompare(CompareOp::kAlways, 1, 1));
}

TEST(CompareOpTest, InvertIsLogicalNegation) {
  const int values[] = {-1, 0, 1};
  for (CompareOp op :
       {CompareOp::kNever, CompareOp::kLess, CompareOp::kLessEqual,
        CompareOp::kEqual, CompareOp::kGreaterEqual, CompareOp::kGreater,
        CompareOp::kNotEqual, CompareOp::kAlways}) {
    for (int a : values) {
      for (int b : values) {
        EXPECT_EQ(EvalCompare(Invert(op), a, b), !EvalCompare(op, a, b))
            << ToString(op) << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(DeviceTest, ResetCountersZeroesEveryCounter) {
  Device dev(4, 4);
  ASSERT_OK(dev.RenderQuad(0.5f));
  ASSERT_OK(dev.RenderQuad(0.5f));
  ASSERT_EQ(dev.counters().passes, 2u);
  dev.ResetCounters();
  EXPECT_EQ(dev.counters().passes, 0u);
  EXPECT_EQ(dev.counters().fragments_generated, 0u);
  EXPECT_EQ(dev.counters().fill_cycles, 0u);
  // Counting starts fresh: new passes are not added to stale totals.
  ASSERT_OK(dev.RenderQuad(0.5f));
  EXPECT_EQ(dev.counters().passes, 1u);
}

TEST(PassLogScopeTest, NoOpenScopeKeepsNoRecords) {
  Device dev(4, 4);
  ASSERT_OK(dev.RenderQuad(0.5f));
  ASSERT_OK(dev.RenderQuad(0.5f));
  // A scope opened afterwards sees nothing from before it: the device did
  // not keep the two earlier passes anywhere.
  PassLogScope late(&dev);
  EXPECT_TRUE(late.records().empty());
  EXPECT_EQ(dev.counters().passes, 2u);
  ASSERT_OK(dev.RenderQuad(0.5f));
  EXPECT_EQ(late.records().size(), 1u);
}

TEST(PassLogScopeTest, NestedScopesEachSeeEveryPass) {
  Device dev(4, 4);
  PassLogScope outer(&dev);
  ASSERT_OK(dev.RenderQuad(0.5f));
  {
    PassLogScope inner(&dev);
    dev.SetDepthTest(true, CompareOp::kAlways);
    ASSERT_OK(dev.RenderQuad(0.25f));
    PassLogScope innermost(&dev);
    ASSERT_OK(dev.RenderQuad(0.75f));
    ASSERT_EQ(inner.records().size(), 2u);
    ASSERT_EQ(innermost.records().size(), 1u);
    EXPECT_EQ(inner.records()[0].depth_writes, 16u);
    EXPECT_EQ(innermost.records()[0].depth_writes, 16u);
  }
  ASSERT_EQ(outer.records().size(), 3u);
  EXPECT_EQ(outer.records()[0].depth_writes, 0u);
}

TEST(PassLogScopeTest, RecordsStopAtScopeClose) {
  Device dev(4, 4);
  PassLogScope outer(&dev);
  std::vector<PassRecord> kept;
  {
    PassLogScope inner(&dev);
    ASSERT_OK(dev.RenderQuad(0.5f));
    kept = inner.records();
  }
  // The closed scope is unregistered: the passes below reach the still-open
  // outer scope and the scalar counters only (a stale registration would
  // write through a dead pointer, which the sanitizer builds catch), and a
  // fresh scope starts empty.
  ASSERT_OK(dev.RenderQuad(0.5f));
  ASSERT_OK(dev.RenderQuad(0.5f));
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(outer.records().size(), 3u);
  EXPECT_EQ(dev.counters().passes, 3u);
  PassLogScope fresh(&dev);
  EXPECT_TRUE(fresh.records().empty());
}

TEST(PassLogScopeTest, PassesDeltaMatchesRecordCount) {
  Device dev(4, 4);
  ASSERT_OK(dev.RenderQuad(0.5f));
  const DeviceCounters before = dev.counters();
  PassLogScope scope(&dev);
  dev.SetStencilTest(true, CompareOp::kAlways, 1);
  dev.SetStencilOp(StencilOp::kKeep, StencilOp::kKeep, StencilOp::kReplace);
  ASSERT_OK(dev.BeginOcclusionQuery());
  ASSERT_OK(dev.RenderQuad(0.5f));
  ASSERT_OK(dev.EndOcclusionQuery().status());
  ASSERT_OK(dev.RenderQuad(0.5f));
  const DeviceCounters delta = DeltaSince(before, dev.counters());
  EXPECT_EQ(delta.passes, scope.records().size());
  // Re-folding the scope's records reproduces every pass-derived counter.
  DeviceCounters refolded;
  for (const PassRecord& pass : scope.records()) refolded.Add(pass);
  EXPECT_EQ(refolded.passes, delta.passes);
  EXPECT_EQ(refolded.fragments_generated, delta.fragments_generated);
  EXPECT_EQ(refolded.fragments_passed, delta.fragments_passed);
  EXPECT_EQ(refolded.fill_cycles, delta.fill_cycles);
  EXPECT_EQ(refolded.stencil_updates, delta.stencil_updates);
}

TEST(DeviceTest, PassRecordsSatisfyInvariants) {
  Device dev(4, 4);
  PassLogScope log(&dev);
  // A mix of pass shapes: plain quad, depth-tested, stencil-writing,
  // fragment-program with kills.
  ASSERT_OK(dev.RenderQuad(0.5f));
  dev.SetDepthTest(true, CompareOp::kLess);
  ASSERT_OK(dev.RenderQuad(0.25f));
  dev.SetStencilTest(true, CompareOp::kAlways, 1);
  dev.SetStencilOp(StencilOp::kKeep, StencilOp::kKeep, StencilOp::kReplace);
  ASSERT_OK(dev.RenderQuad(0.1f));
  for (const PassRecord& pass : log.records()) {
    EXPECT_TRUE(pass.Valid())
        << pass.label << ": passed=" << pass.fragments_passed
        << " generated=" << pass.fragments
        << " depth_writes=" << pass.depth_writes;
  }
}

TEST(DeviceTest, DeltaSinceIsolatesTheWindow) {
  Device dev(4, 4);
  ASSERT_OK(dev.RenderQuad(0.5f));
  const DeviceCounters before = dev.counters();
  dev.SetDepthTest(true, CompareOp::kAlways);
  ASSERT_OK(dev.RenderQuad(0.5f));
  (void)dev.ReadStencil();
  const DeviceCounters delta = DeltaSince(before, dev.counters());
  EXPECT_EQ(delta.passes, 1u);
  EXPECT_EQ(delta.fragments_generated, 16u);
  EXPECT_EQ(delta.fill_cycles, 16u);
  EXPECT_EQ(delta.bytes_read_back, 16u);
  EXPECT_EQ(delta.depth_writes, 16u);
}

TEST(VideoMemoryTest, FirstUploadIsNotChargedAsSwap) {
  Device dev(8, 8);
  std::vector<float> vals(64, 1.0f);
  auto tex = Texture::FromColumns({&vals}, 8);
  ASSERT_OK_AND_ASSIGN(TextureId id,
                       dev.UploadTexture(std::move(tex).ValueOrDie()));
  ASSERT_OK(dev.BindTexture(id));  // resident: no swap either
  EXPECT_EQ(dev.counters().texture_swap_ins, 0u);
  EXPECT_EQ(dev.counters().bytes_swapped, 0u);
  EXPECT_EQ(dev.counters().bytes_uploaded, 256u);
}

TEST(CompareOpTest, MirrorSwapsOperands) {
  const int values[] = {-1, 0, 1};
  for (CompareOp op :
       {CompareOp::kNever, CompareOp::kLess, CompareOp::kLessEqual,
        CompareOp::kEqual, CompareOp::kGreaterEqual, CompareOp::kGreater,
        CompareOp::kNotEqual, CompareOp::kAlways}) {
    for (int a : values) {
      for (int b : values) {
        EXPECT_EQ(EvalCompare(Mirror(op), b, a), EvalCompare(op, a, b))
            << ToString(op) << " a=" << a << " b=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace gpu
}  // namespace gpudb
