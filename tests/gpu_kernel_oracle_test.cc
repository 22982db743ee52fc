// Differential test of the quad-pass row kernels against the per-fragment
// interpreter. Each case draws a random pass shape twice on identically
// prepared devices: once as RenderQuad / RenderTexturedQuad, which runs the
// shape's row kernel, and once as the same viewport-covering quad through
// DrawTriangles, which runs every fragment through ProcessFragment and the
// program's virtual Execute. Depth, stencil and color planes must match bit
// for bit, and so must the PassRecords (gpuprof ledger included), the
// occlusion count and the cumulative counters.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/profile.h"
#include "src/common/random.h"
#include "src/gpu/device.h"
#include "src/gpu/fragment_program.h"
#include "tests/test_util.h"

namespace gpudb {
namespace gpu {
namespace {

constexpr uint32_t kWidth = 37;
constexpr uint32_t kHeight = 23;
constexpr uint64_t kPixels = uint64_t{kWidth} * kHeight;

const CompareOp kOps[] = {CompareOp::kNever,        CompareOp::kLess,
                          CompareOp::kLessEqual,    CompareOp::kEqual,
                          CompareOp::kGreaterEqual, CompareOp::kGreater,
                          CompareOp::kNotEqual,     CompareOp::kAlways};
const StencilOp kStencilOps[] = {StencilOp::kKeep,   StencilOp::kZero,
                                 StencilOp::kReplace, StencilOp::kIncr,
                                 StencilOp::kDecr,   StencilOp::kInvert};

/// Texel values that probe every branch of the batched programs: small and
/// 24-bit integers, negatives, fractions, values past 2^23 and 2^24, signed
/// zeros, denormals, infinities and NaN.
float RandomTexel(Random* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  switch (rng->NextUint64(12)) {
    case 0:
      return static_cast<float>(rng->NextUint64(1 << 24));
    case 1:
      return -static_cast<float>(rng->NextUint64(1 << 24));
    case 2:
      return static_cast<float>(rng->NextDouble() * 64.0 - 32.0);
    case 3:
      return static_cast<float>(rng->NextUint64(1u << 31)) * 3.0f;
    case 4:
      return rng->NextUint64(2) == 0 ? 0.0f : -0.0f;
    case 5:
      return std::numeric_limits<float>::denorm_min() *
             static_cast<float>(rng->NextUint64(1000));
    case 6:
      return rng->NextUint64(2) == 0 ? inf : -inf;
    case 7:
      return std::numeric_limits<float>::quiet_NaN();
    case 8:
      return static_cast<float>(rng->NextDouble());  // depth-range values
    default:
      return static_cast<float>(rng->NextUint64(1 << 12));
  }
}

/// One random pass: render state, program, viewport and query setup.
struct PassCase {
  enum class Program { kNone, kTestBit, kTestBitKill, kCopyToDepth, kFused };
  Program program = Program::kNone;
  int channels = 4;  // of the bound texture
  int channel = 0;
  int bit = 0;
  int depth_bits = kDepthBits;
  double scale = 1.0;
  double offset = 0.0;
  float quad_depth = 0.5f;
  uint64_t viewport = kPixels;
  int threads = 1;
  bool occlusion = false;
  bool profile = false;
  RenderState state;
  float bounds_min = 0.0f;
  float bounds_max = 1.0f;

  std::string Describe() const {
    return "program=" + std::to_string(static_cast<int>(program)) +
           " channel=" + std::to_string(channel) + "/" +
           std::to_string(channels) +
           " depth_bits=" + std::to_string(depth_bits) +
           " bit=" + std::to_string(bit) +
           " viewport=" + std::to_string(viewport) +
           " threads=" + std::to_string(threads) +
           " alpha=" + std::to_string(state.alpha_test_enabled) +
           std::string(ToString(state.alpha_func)) + "@" +
           std::to_string(state.alpha_ref) +
           " depth=" + std::to_string(state.depth_test_enabled) +
           std::string(ToString(state.depth_func)) +
           " zwrite=" + std::to_string(state.depth_write_mask) +
           " bounds=" + std::to_string(state.depth_bounds_test_enabled) +
           " stencil=" + std::to_string(state.stencil_test_enabled) +
           std::string(ToString(state.stencil_func)) + "/" +
           std::string(ToString(state.stencil_fail_op)) + "/" +
           std::string(ToString(state.stencil_zfail_op)) + "/" +
           std::string(ToString(state.stencil_zpass_op)) +
           " color=" + std::to_string(state.color_write_mask) +
           " scissor=" + std::to_string(state.scissor_test_enabled) +
           " occlusion=" + std::to_string(occlusion) +
           " profile=" + std::to_string(profile);
  }
};

PassCase RandomCase(Random* rng) {
  PassCase c;
  c.program = static_cast<PassCase::Program>(rng->NextUint64(5));
  c.channels = 1 + static_cast<int>(rng->NextUint64(4));
  c.channel = static_cast<int>(rng->NextUint64(c.channels));
  c.depth_bits = rng->NextUint64(4) == 0 ? 16 : kDepthBits;
  c.bit = static_cast<int>(rng->NextUint64(25));
  // Exact-integer encodings and arbitrary ones.
  if (rng->NextUint64(2) == 0) {
    c.scale = 1.0 / 16777215.0;
    c.offset = 0.0;
  } else {
    c.scale = rng->NextDouble() * 0.01;
    c.offset = rng->NextDouble() * 100.0 - 50.0;
  }
  const float depths[] = {0.0f, 1.0f, 0.5f,
                          static_cast<float>(rng->NextDouble())};
  c.quad_depth = depths[rng->NextUint64(4)];
  // Full rows only, a partial final row, or less than one row.
  switch (rng->NextUint64(3)) {
    case 0:
      c.viewport = kPixels;
      break;
    case 1:
      c.viewport = kWidth * (1 + rng->NextUint64(kHeight - 1)) +
                   1 + rng->NextUint64(kWidth - 1);
      break;
    default:
      c.viewport = 1 + rng->NextUint64(kWidth);
      break;
  }
  c.threads = 1 + static_cast<int>(rng->NextUint64(4));
  c.occlusion = rng->NextUint64(2) == 0;
  c.profile = rng->NextUint64(2) == 0;

  RenderState& s = c.state;
  const float refs[] = {0.0f, 0.25f, 0.5f, 0.75f, 1.0f,
                        static_cast<float>(rng->NextDouble())};
  s.alpha_test_enabled = rng->NextUint64(2) == 0;
  s.alpha_func = kOps[rng->NextUint64(8)];
  s.alpha_ref = refs[rng->NextUint64(6)];
  s.depth_test_enabled = rng->NextUint64(3) != 0;
  s.depth_func = kOps[rng->NextUint64(8)];
  s.depth_write_mask = rng->NextUint64(2) == 0;
  s.depth_bounds_test_enabled = rng->NextUint64(4) == 0;
  c.bounds_min = static_cast<float>(rng->NextDouble() * 0.5);
  c.bounds_max = static_cast<float>(0.5 + rng->NextDouble() * 0.5);
  s.stencil_test_enabled = rng->NextUint64(4) != 0;
  s.stencil_func = rng->NextUint64(2) == 0 ? CompareOp::kEqual
                                           : kOps[rng->NextUint64(8)];
  s.stencil_ref = static_cast<uint8_t>(rng->NextUint64(4));
  s.stencil_value_mask = rng->NextUint64(3) != 0
                             ? uint8_t{0xff}
                             : static_cast<uint8_t>(rng->NextUint64(256));
  switch (rng->NextUint64(4)) {
    case 0:
      s.stencil_write_mask = 0;
      break;
    case 1:
      s.stencil_write_mask = static_cast<uint8_t>(rng->NextUint64(256));
      break;
    default:
      s.stencil_write_mask = 0xff;
      break;
  }
  // Keep on the fail paths half the time: the selection-chain shape.
  const bool chain = rng->NextUint64(2) == 0;
  s.stencil_fail_op =
      chain ? StencilOp::kKeep : kStencilOps[rng->NextUint64(6)];
  s.stencil_zfail_op =
      chain ? StencilOp::kKeep : kStencilOps[rng->NextUint64(6)];
  s.stencil_zpass_op = kStencilOps[rng->NextUint64(6)];
  s.color_write_mask = rng->NextUint64(3) == 0;
  s.scissor_test_enabled = rng->NextUint64(6) == 0;
  s.scissor.x0 = static_cast<uint32_t>(rng->NextUint64(kWidth));
  s.scissor.y0 = static_cast<uint32_t>(rng->NextUint64(kHeight));
  s.scissor.x1 = s.scissor.x0 + 1 + static_cast<uint32_t>(rng->NextUint64(kWidth));
  s.scissor.y1 = s.scissor.y0 + 1 + static_cast<uint32_t>(rng->NextUint64(kHeight));
  return c;
}

std::unique_ptr<FragmentProgram> MakeProgram(const PassCase& c) {
  switch (c.program) {
    case PassCase::Program::kNone:
      return nullptr;
    case PassCase::Program::kTestBit:
      return std::make_unique<TestBitProgram>(c.channel, c.bit);
    case PassCase::Program::kTestBitKill:
      return std::make_unique<TestBitKillProgram>(c.channel, c.bit);
    case PassCase::Program::kCopyToDepth:
      return std::make_unique<CopyToDepthProgram>(c.channel, c.scale,
                                                  c.offset);
    case PassCase::Program::kFused:
      return std::make_unique<FusedCompareProgram>(c.channel, c.scale,
                                                   c.offset);
  }
  return nullptr;
}

/// Everything a pass can change or report.
struct Outcome {
  std::vector<uint32_t> depth;
  std::vector<uint8_t> stencil;
  std::vector<uint32_t> color_bits;  // float planes compared bit for bit
  std::vector<PassRecord> passes;
  DeviceCounters counters;
  uint64_t occlusion = 0;
};

/// Prepares a device with the case's texture, planes and render state,
/// draws the pass through the kernels (`through_kernels`) or the
/// interpreter, and captures the outcome.
Outcome RunCase(const PassCase& c, const std::vector<float>& texels,
                const std::vector<uint32_t>& depth,
                const std::vector<uint8_t>& stencil,
                const std::vector<float>& color, bool through_kernels) {
  Outcome out;
  Device device(kWidth, kHeight, c.depth_bits);
  EXPECT_OK(device.SetWorkerThreads(through_kernels ? c.threads : 1));
  auto tex = Texture::Make(kWidth, kHeight, c.channels);
  EXPECT_OK(tex.status());
  Texture texture = std::move(tex).ValueOrDie();
  for (uint64_t i = 0; i < kPixels; ++i) {
    for (int ch = 0; ch < c.channels; ++ch) {
      texture.Set(i, ch, texels[i * 4 + ch]);
    }
  }
  auto id = device.UploadTexture(std::move(texture));
  EXPECT_OK(id.status());
  EXPECT_OK(device.BindTexture(id.ValueOrDie()));
  EXPECT_OK(device.SetViewport(c.viewport));

  FrameBuffer& fb = device.framebuffer();
  for (uint64_t i = 0; i < kPixels; ++i) {
    fb.set_depth(i, depth[i]);
    fb.set_stencil(i, stencil[i]);
    fb.set_color(i, {color[i * 4], color[i * 4 + 1], color[i * 4 + 2],
                     color[i * 4 + 3]});
  }

  device.state() = c.state;
  device.SetDepthBoundsTest(c.state.depth_bounds_test_enabled, c.bounds_min,
                            c.bounds_max);
  const std::unique_ptr<FragmentProgram> program = MakeProgram(c);
  device.UseProgram(program.get());

  const bool was_profiling = Profiler::Global().enabled();
  Profiler::Global().set_enabled(c.profile);
  {
    PassLogScope log(&device);
    if (c.occlusion) EXPECT_OK(device.BeginOcclusionQuery());
    if (through_kernels) {
      EXPECT_OK(program != nullptr ? device.RenderTexturedQuad()
                                   : device.RenderQuad(c.quad_depth));
    } else {
      // The same pixels as the kernel's rectangles -- the full rows, then
      // the partial final row -- as two triangles each. A textured quad
      // renders at depth 0.
      const float z = program != nullptr ? 0.0f : c.quad_depth;
      const auto full_rows = static_cast<float>(c.viewport / kWidth);
      const auto rest = static_cast<float>(c.viewport % kWidth);
      std::vector<Vertex> tris;
      const auto quad = [&](float x0, float y0, float x1, float y1) {
        const Vertex a{x0, y0, z};
        const Vertex b{x1, y0, z};
        const Vertex d{x1, y1, z};
        const Vertex e{x0, y1, z};
        tris.insert(tris.end(), {a, b, d, a, d, e});
      };
      if (full_rows > 0) quad(0, 0, static_cast<float>(kWidth), full_rows);
      if (rest > 0) quad(0, full_rows, rest, full_rows + 1);
      EXPECT_OK(device.DrawTriangles(tris));
    }
    if (c.occlusion) {
      auto count = device.EndOcclusionQuery();
      EXPECT_OK(count.status());
      if (count.ok()) out.occlusion = count.ValueOrDie();
    }
    out.passes = log.records();
  }
  Profiler::Global().set_enabled(was_profiling);
  device.UseProgram(nullptr);

  out.depth = fb.depth_plane();
  out.stencil = fb.stencil_plane();
  out.color_bits.resize(kPixels * 4);
  std::memcpy(out.color_bits.data(), fb.color_data(), kPixels * 16);
  out.counters = device.counters();
  return out;
}

void ExpectSameOutcome(const Outcome& kernel, const Outcome& oracle,
                       const std::string& what) {
  EXPECT_EQ(kernel.depth, oracle.depth) << what;
  EXPECT_EQ(kernel.stencil, oracle.stencil) << what;
  EXPECT_EQ(kernel.color_bits, oracle.color_bits) << what;
  EXPECT_EQ(kernel.occlusion, oracle.occlusion) << what;
  ASSERT_EQ(kernel.passes.size(), 1u) << what;
  ASSERT_EQ(oracle.passes.size(), 1u) << what;
  const PassRecord& a = kernel.passes[0];
  const PassRecord& b = oracle.passes[0];
  // DrawTriangles names a program-less pass "triangles".
  if (b.label != "triangles") {
    EXPECT_EQ(a.label, b.label) << what;
  }
  EXPECT_EQ(a.fragments, b.fragments) << what;
  EXPECT_EQ(a.fp_instructions, b.fp_instructions) << what;
  EXPECT_EQ(a.fragments_passed, b.fragments_passed) << what;
  EXPECT_EQ(a.depth_writes, b.depth_writes) << what;
  EXPECT_EQ(a.stencil_updates, b.stencil_updates) << what;
  EXPECT_EQ(a.in_occlusion_query, b.in_occlusion_query) << what;
  EXPECT_EQ(a.profiled, b.profiled) << what;
  EXPECT_EQ(a.prof, b.prof) << what;
  EXPECT_EQ(kernel.counters.fragments_passed, oracle.counters.fragments_passed)
      << what;
  EXPECT_EQ(kernel.counters.fill_cycles, oracle.counters.fill_cycles) << what;
}

TEST(KernelOracleTest, RandomPassShapesMatchTheInterpreter) {
  Random rng(20261017);
  int kernel_passes = 0;
  for (int round = 0; round < 1500; ++round) {
    const PassCase c = RandomCase(&rng);
    std::vector<float> texels(kPixels * 4);
    for (float& t : texels) t = RandomTexel(&rng);
    std::vector<uint32_t> depth(kPixels);
    std::vector<uint8_t> stencil(kPixels);
    std::vector<float> color(kPixels * 4);
    // Few distinct depths so equality compares hit; the case's quad depth
    // among them.
    const FrameBuffer codes(1, 1, c.depth_bits);
    const uint32_t quad_q = codes.Quantize(c.quad_depth);
    for (uint64_t i = 0; i < kPixels; ++i) {
      switch (rng.NextUint64(4)) {
        case 0:
          depth[i] = quad_q;
          break;
        case 1:
          depth[i] = codes.Quantize(static_cast<float>(rng.NextDouble()));
          break;
        default:
          depth[i] = static_cast<uint32_t>(
              rng.NextUint64(uint64_t{codes.depth_max()} + 1));
          break;
      }
      const uint8_t stencils[] = {0, 1, 2, 3, 0xff,
                                  static_cast<uint8_t>(rng.NextUint64(256))};
      stencil[i] = stencils[rng.NextUint64(6)];
    }
    for (float& v : color) v = static_cast<float>(rng.NextDouble());
    const Outcome kernel = RunCase(c, texels, depth, stencil, color, true);
    const Outcome oracle = RunCase(c, texels, depth, stencil, color, false);
    ExpectSameOutcome(kernel, oracle,
                      "round " + std::to_string(round) + ": " + c.Describe());
    if (HasFailure()) return;  // one diagnosed case beats a thousand
    ++kernel_passes;
  }
  EXPECT_EQ(kernel_passes, 1500);
}

// The TestBit row kernel's floor: bit-identical to std::floor on every
// float32 an arithmetic operation can produce, i.e. all 2^32 patterns but
// the signaling NaNs. The sweep is split over a few threads.
TEST(KernelOracleTest, FloorF32MatchesStdFloorOnEveryFloat) {
  constexpr int kSlices = 4;
  std::vector<uint64_t> mismatches(kSlices, 0);
  std::vector<uint32_t> first_bad(kSlices, 0);
  std::vector<std::thread> workers;
  for (int slice = 0; slice < kSlices; ++slice) {
    workers.emplace_back([slice, &mismatches, &first_bad] {
      const uint64_t begin = (uint64_t{1} << 32) / kSlices * slice;
      const uint64_t end = (uint64_t{1} << 32) / kSlices * (slice + 1);
      for (uint64_t b = begin; b < end; ++b) {
        const auto bits = static_cast<uint32_t>(b);
        float x;
        std::memcpy(&x, &bits, sizeof(x));
        if (std::isnan(x) && (bits & 0x00400000u) == 0) continue;  // sNaN
        const float got = FloorF32(x);
        const float want = std::floor(x);
        if (std::memcmp(&got, &want, sizeof(got)) != 0) {
          if (mismatches[slice]++ == 0) first_bad[slice] = bits;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int slice = 0; slice < kSlices; ++slice) {
    EXPECT_EQ(mismatches[slice], 0u)
        << "first mismatch at bit pattern 0x" << std::hex << first_bad[slice];
  }
}

}  // namespace
}  // namespace gpu
}  // namespace gpudb
