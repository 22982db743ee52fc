// Differential test of the quad-pass row kernels against the per-fragment
// interpreter. Each case draws a random pass shape twice on identically
// prepared devices: once as RenderQuad / RenderTexturedQuad, which runs the
// shape's row kernel, and once as the same viewport-covering quad through
// DrawTriangles, which runs every fragment through ProcessFragment and the
// program's virtual Execute. Depth, stencil and color planes must match bit
// for bit, and so must the PassRecords (gpuprof ledger included), the
// occlusion count and the cumulative counters.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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

/// Channel values whose dot products round differently in a different
/// summation order: each texel shares one large magnitude across both
/// units, its channels take it or a small fraction with either sign, so
/// with +-1 weights `big + small - big` cancels to 0 or to `small`
/// depending on which add comes first.
void CancellingTexels(Random* rng, std::vector<float>* t0,
                      std::vector<float>* t1) {
  for (uint64_t i = 0; i < kPixels; ++i) {
    const float big = static_cast<float>(1 + rng->NextUint64(1 << 20)) * 1024;
    const float small = static_cast<float>(rng->NextDouble() * 8.0 - 4.0);
    for (std::vector<float>* t : {t0, t1}) {
      for (uint64_t c = 0; c < 4; ++c) {
        const float picks[] = {big, -big, small, -small, RandomTexel(rng)};
        (*t)[i * 4 + c] = picks[rng->NextUint64(5)];
      }
    }
  }
}

/// One random pass: render state, program, viewport and query setup.
struct PassCase {
  enum class Program {
    kNone,
    kTestBit,
    kTestBitKill,
    kCopyToDepth,
    kFused,
    kSemilinear,
    kWideSemilinear,
  };
  Program program = Program::kNone;
  int channels = 4;  // of the bound texture
  int channels1 = 0;  // of a texture on unit 1; 0 leaves the unit unbound
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
  // Semilinear: weights[0..3] for unit 0's channels, [4..7] for unit 1's.
  std::array<float, 8> weights = {};
  CompareOp op = CompareOp::kAlways;
  float b = 0.0f;

  std::string Describe() const {
    std::string w;
    for (const float x : weights) w += " " + std::to_string(x);
    return "program=" + std::to_string(static_cast<int>(program)) +
           " channel=" + std::to_string(channel) + "/" +
           std::to_string(channels) + " unit1=" + std::to_string(channels1) +
           " weights=" + w + " " + std::string(ToString(op)) + " " +
           std::to_string(b) +
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
  c.program = static_cast<PassCase::Program>(rng->NextUint64(7));
  c.channels = 1 + static_cast<int>(rng->NextUint64(4));
  c.channels1 = static_cast<int>(rng->NextUint64(5));
  // Weights of 0, +-1 (the attribute-attribute shape) and arbitrary
  // values, compared against +0, -0 or an arbitrary b.
  for (float& w : c.weights) {
    const float picks[] = {0.0f, 1.0f, -1.0f,
                           static_cast<float>(rng->NextDouble() * 8.0 - 4.0)};
    w = picks[rng->NextUint64(4)];
  }
  c.op = kOps[rng->NextUint64(8)];
  const float bs[] = {0.0f, -0.0f,
                      static_cast<float>(rng->NextDouble() * 64.0 - 32.0)};
  c.b = bs[rng->NextUint64(3)];
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
    case PassCase::Program::kSemilinear:
      return std::make_unique<SemilinearProgram>(
          std::array<float, 4>{c.weights[0], c.weights[1], c.weights[2],
                               c.weights[3]},
          c.op, c.b);
    case PassCase::Program::kWideSemilinear:
      return std::make_unique<WideSemilinearProgram>(c.weights, c.op, c.b);
  }
  return nullptr;
}

/// The same pixels as the kernel's rectangles -- the full rows, then the
/// partial final row -- as two triangles each, at depth `z`.
std::vector<Vertex> ViewportTriangles(uint64_t viewport, float z) {
  const auto full_rows = static_cast<float>(viewport / kWidth);
  const auto rest = static_cast<float>(viewport % kWidth);
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
  return tris;
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

/// Uploads the first `channels` of every four values of `texels` as a
/// kWidth x kHeight texture.
TextureId UploadTexels(Device* device, int channels,
                       const std::vector<float>& texels) {
  auto tex = Texture::Make(kWidth, kHeight, channels);
  EXPECT_OK(tex.status());
  Texture texture = std::move(tex).ValueOrDie();
  for (uint64_t i = 0; i < kPixels; ++i) {
    for (int ch = 0; ch < channels; ++ch) {
      texture.Set(i, ch, texels[i * 4 + ch]);
    }
  }
  auto id = device->UploadTexture(std::move(texture));
  EXPECT_OK(id.status());
  return id.ok() ? id.ValueOrDie() : -1;
}

/// Prepares a device with the case's textures (unit 1's from `texels1`),
/// planes and render state, draws the pass through the kernels
/// (`through_kernels`) or the interpreter, and captures the outcome.
Outcome RunCase(const PassCase& c, const std::vector<float>& texels,
                const std::vector<float>& texels1,
                const std::vector<uint32_t>& depth,
                const std::vector<uint8_t>& stencil,
                const std::vector<float>& color, bool through_kernels) {
  Outcome out;
  Device device(kWidth, kHeight, c.depth_bits);
  EXPECT_OK(device.SetWorkerThreads(through_kernels ? c.threads : 1));
  EXPECT_OK(device.BindTexture(UploadTexels(&device, c.channels, texels)));
  if (c.channels1 > 0) {
    EXPECT_OK(device.BindTextureUnit(
        1, UploadTexels(&device, c.channels1, texels1)));
  }
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
      // A textured quad renders at depth 0.
      EXPECT_OK(device.DrawTriangles(ViewportTriangles(
          c.viewport, program != nullptr ? 0.0f : c.quad_depth)));
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
    std::vector<float> texels1(kPixels * 4);
    for (float& t : texels1) t = RandomTexel(&rng);
    if (rng.NextUint64(2) == 0) CancellingTexels(&rng, &texels, &texels1);
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
    const Outcome kernel =
        RunCase(c, texels, texels1, depth, stencil, color, true);
    const Outcome oracle =
        RunCase(c, texels, texels1, depth, stencil, color, false);
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

// ---------------------------------------------------------------------------
// The Accumulator bit sweep (Device::CountBitPasses) against `bit_width`
// lone TestBit passes, drawn one by one through the interpreter
// (DrawTriangles) or the row kernel (RenderTexturedQuad).

/// RandomTexel's mix plus the edges of the sweep's int32 lane rule: 2^24
/// and past it, the largest float below 2^31, +-2^31 and beyond.
float SweepTexel(Random* rng) {
  const float edges[] = {16777216.0f,   16777218.0f,   -16777216.0f,
                         33554432.0f,   -33554436.0f,  2147483520.0f,
                         -2147483520.0f, 2147483648.0f, -2147483648.0f,
                         -2147483904.0f, 4294967296.0f, -0.5f,
                         1.5f,          -1.0f,         8388607.5f};
  if (rng->NextUint64(4) == 0) {
    return edges[rng->NextUint64(sizeof(edges) / sizeof(edges[0]))];
  }
  return RandomTexel(rng);
}

/// One random Accumulate-shaped call: a write-free render state with the
/// alpha stage as the bit test.
struct SweepCase {
  int bit_width = 1;
  int channels = 1;
  int channel = 0;
  bool kill = false;
  uint64_t viewport = kPixels;
  int threads = 1;
  bool profile = false;
  RenderState state;

  std::string Describe() const {
    return "bits=" + std::to_string(bit_width) +
           " channel=" + std::to_string(channel) + "/" +
           std::to_string(channels) + " kill=" + std::to_string(kill) +
           " alpha=" + std::to_string(state.alpha_test_enabled) +
           " viewport=" + std::to_string(viewport) +
           " threads=" + std::to_string(threads) +
           " stencil=" + std::to_string(state.stencil_test_enabled) +
           std::string(ToString(state.stencil_func)) + "@" +
           std::to_string(state.stencil_ref) + "&" +
           std::to_string(state.stencil_value_mask) +
           " scissor=" + std::to_string(state.scissor_test_enabled) +
           " profile=" + std::to_string(profile);
  }
};

SweepCase RandomSweepCase(Random* rng) {
  SweepCase c;
  c.bit_width = 1 + static_cast<int>(rng->NextUint64(24));
  c.channels = 1 + static_cast<int>(rng->NextUint64(4));
  c.channel = static_cast<int>(rng->NextUint64(c.channels));
  c.kill = rng->NextUint64(2) == 0;
  switch (rng->NextUint64(3)) {
    case 0:
      c.viewport = kPixels;
      break;
    case 1:
      c.viewport = kWidth * (1 + rng->NextUint64(kHeight - 1)) + 1 +
                   rng->NextUint64(kWidth - 1);
      break;
    default:
      c.viewport = 1 + rng->NextUint64(kWidth);
      break;
  }
  c.threads = 1 + static_cast<int>(rng->NextUint64(4));
  c.profile = rng->NextUint64(2) == 0;

  RenderState& s = c.state;
  // Accumulate's state: the alpha test GEQUAL 0.5, which the KILL variant
  // may also leave off.
  s.alpha_test_enabled = !c.kill || rng->NextUint64(2) == 0;
  s.alpha_func = CompareOp::kGreaterEqual;
  s.alpha_ref = 0.5f;
  s.depth_test_enabled = false;
  s.depth_write_mask = rng->NextUint64(2) == 0;
  s.color_write_mask = false;
  s.stencil_test_enabled = rng->NextUint64(3) != 0;
  s.stencil_func = rng->NextUint64(2) == 0 ? CompareOp::kEqual
                                           : kOps[rng->NextUint64(8)];
  s.stencil_ref = static_cast<uint8_t>(rng->NextUint64(4));
  s.stencil_value_mask = rng->NextUint64(3) != 0
                             ? uint8_t{0xff}
                             : static_cast<uint8_t>(rng->NextUint64(256));
  // Write-free: KEEP ops under any write mask, or any ops under none.
  if (rng->NextUint64(2) == 0) {
    s.stencil_write_mask = static_cast<uint8_t>(rng->NextUint64(256));
  } else {
    s.stencil_write_mask = 0;
    s.stencil_fail_op = kStencilOps[rng->NextUint64(6)];
    s.stencil_zfail_op = kStencilOps[rng->NextUint64(6)];
    s.stencil_zpass_op = kStencilOps[rng->NextUint64(6)];
  }
  s.scissor_test_enabled = rng->NextUint64(4) == 0;
  s.scissor.x0 = static_cast<uint32_t>(rng->NextUint64(kWidth));
  s.scissor.y0 = static_cast<uint32_t>(rng->NextUint64(kHeight));
  s.scissor.x1 =
      s.scissor.x0 + 1 + static_cast<uint32_t>(rng->NextUint64(kWidth));
  s.scissor.y1 =
      s.scissor.y0 + 1 + static_cast<uint32_t>(rng->NextUint64(kHeight));
  return c;
}

/// How the bit passes are issued.
enum class BitPasses { kSweep, kInterpreter, kRowKernel };

struct SweepOutcome {
  std::vector<uint64_t> counts;
  std::vector<PassRecord> passes;
  DeviceCounters counters;
  std::vector<uint8_t> stencil;
  std::vector<uint32_t> color_bits;
};

SweepOutcome RunSweepCase(const SweepCase& c, const std::vector<float>& texels,
                          const std::vector<uint8_t>& stencil, BitPasses how) {
  SweepOutcome out;
  Device device(kWidth, kHeight);
  EXPECT_OK(device.SetWorkerThreads(
      how == BitPasses::kInterpreter ? 1 : c.threads));
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
  for (uint64_t i = 0; i < kPixels; ++i) fb.set_stencil(i, stencil[i]);
  device.state() = c.state;

  const bool was_profiling = Profiler::Global().enabled();
  Profiler::Global().set_enabled(c.profile);
  {
    PassLogScope log(&device);
    if (how == BitPasses::kSweep) {
      auto counts = device.CountBitPasses(c.channel, c.bit_width, c.kill);
      EXPECT_OK(counts.status());
      if (counts.ok()) out.counts = counts.ValueOrDie();
    } else {
      for (int b = 0; b < c.bit_width; ++b) {
        const TestBitProgram bit_program(c.channel, b);
        const TestBitKillProgram kill_program(c.channel, b);
        device.UseProgram(c.kill
                              ? static_cast<const FragmentProgram*>(
                                    &kill_program)
                              : &bit_program);
        EXPECT_OK(device.BeginOcclusionQuery());
        EXPECT_OK(how == BitPasses::kRowKernel
                      ? device.RenderTexturedQuad()
                      : device.DrawTriangles(
                            ViewportTriangles(c.viewport, 0.0f)));
        auto count = device.EndOcclusionQuery();
        EXPECT_OK(count.status());
        out.counts.push_back(count.ok() ? count.ValueOrDie() : 0);
        device.UseProgram(nullptr);
      }
    }
    out.passes = log.records();
  }
  Profiler::Global().set_enabled(was_profiling);
  out.counters = device.counters();
  out.stencil = fb.stencil_plane();
  out.color_bits.resize(kPixels * 4);
  std::memcpy(out.color_bits.data(), fb.color_data(), kPixels * 16);
  return out;
}

bool SameCounters(const DeviceCounters& a, const DeviceCounters& b) {
  bool same = true;
  DeviceCounters copy = a;
  copy.ZipWith(b, [&same](uint64_t& mine, uint64_t theirs) {
    same = same && mine == theirs;
  });
  return same;
}

void ExpectSameRecord(const PassRecord& a, const PassRecord& b,
                      const std::string& what) {
  EXPECT_EQ(a.label, b.label) << what;
  EXPECT_EQ(a.fragments, b.fragments) << what;
  EXPECT_EQ(a.fp_instructions, b.fp_instructions) << what;
  EXPECT_EQ(a.fragments_passed, b.fragments_passed) << what;
  EXPECT_EQ(a.depth_writes, b.depth_writes) << what;
  EXPECT_EQ(a.stencil_updates, b.stencil_updates) << what;
  EXPECT_EQ(a.in_occlusion_query, b.in_occlusion_query) << what;
  EXPECT_EQ(a.fused, b.fused) << what;
  EXPECT_EQ(a.cache_hit, b.cache_hit) << what;
  EXPECT_EQ(a.profiled, b.profiled) << what;
  EXPECT_EQ(a.prof, b.prof) << what;
}

void ExpectSameBitPasses(const SweepOutcome& sweep, const SweepOutcome& ref,
                         const std::string& what) {
  EXPECT_EQ(sweep.counts, ref.counts) << what;
  EXPECT_TRUE(SameCounters(sweep.counters, ref.counters)) << what;
  EXPECT_EQ(sweep.stencil, ref.stencil) << what;
  EXPECT_EQ(sweep.color_bits, ref.color_bits) << what;
  ASSERT_EQ(sweep.passes.size(), ref.passes.size()) << what;
  for (size_t b = 0; b < sweep.passes.size(); ++b) {
    ExpectSameRecord(sweep.passes[b], ref.passes[b],
                     what + " bit " + std::to_string(b));
  }
}

TEST(KernelOracleTest, BitSweepMatchesLoneTestBitPasses) {
  Random rng(20261019);
  for (int round = 0; round < 600; ++round) {
    const SweepCase c = RandomSweepCase(&rng);
    std::vector<float> texels(kPixels * 4);
    for (float& t : texels) t = SweepTexel(&rng);
    std::vector<uint8_t> stencil(kPixels);
    for (uint8_t& s : stencil) {
      const uint8_t values[] = {0, 1, 2, 3, 0xff,
                                static_cast<uint8_t>(rng.NextUint64(256))};
      s = values[rng.NextUint64(6)];
    }
    const SweepOutcome sweep =
        RunSweepCase(c, texels, stencil, BitPasses::kSweep);
    const BitPasses ref_how =
        round % 2 == 0 ? BitPasses::kInterpreter : BitPasses::kRowKernel;
    const SweepOutcome ref = RunSweepCase(c, texels, stencil, ref_how);
    ASSERT_EQ(ref.passes.size(), static_cast<size_t>(c.bit_width));
    ExpectSameBitPasses(sweep, ref,
                        "round " + std::to_string(round) + ": " + c.Describe());
    if (HasFailure()) return;
  }
}

// A state the sweep cannot stand in for is refused before any pass: it
// would have to write, test depth, or run an alpha stage other than the
// bit test.
TEST(KernelOracleTest, BitSweepRefusesStatesThatAreNotWriteFree) {
  Device device(kWidth, kHeight);
  auto tex = Texture::Make(kWidth, kHeight, 1);
  ASSERT_OK(tex.status());
  auto id = device.UploadTexture(std::move(tex).ValueOrDie());
  ASSERT_OK(id.status());
  ASSERT_OK(device.BindTexture(id.ValueOrDie()));
  RenderState ok;
  ok.alpha_test_enabled = true;
  ok.alpha_func = CompareOp::kGreaterEqual;
  ok.alpha_ref = 0.5f;
  ok.color_write_mask = false;
  std::vector<std::pair<std::string, RenderState>> bad;
  const auto vary = [&](const std::string& what, auto&& change) {
    RenderState s = ok;
    change(&s);
    bad.emplace_back(what, s);
  };
  vary("color write", [](RenderState* s) { s->color_write_mask = true; });
  vary("depth test", [](RenderState* s) { s->depth_test_enabled = true; });
  vary("depth bounds",
       [](RenderState* s) { s->depth_bounds_test_enabled = true; });
  vary("stencil zpass INCR", [](RenderState* s) {
    s->stencil_test_enabled = true;
    s->stencil_zpass_op = StencilOp::kIncr;
  });
  vary("alpha GREATER", [](RenderState* s) {
    s->alpha_func = CompareOp::kGreater;
  });
  vary("alpha ref 0.25", [](RenderState* s) { s->alpha_ref = 0.25f; });
  vary("no alpha test, no KILL",
       [](RenderState* s) { s->alpha_test_enabled = false; });
  PassLogScope log(&device);
  for (const auto& [what, state] : bad) {
    device.state() = state;
    EXPECT_EQ(device.CountBitPasses(0, 8, /*kill=*/false).status().code(),
              StatusCode::kFailedPrecondition)
        << what;
  }
  device.state() = ok;
  EXPECT_EQ(device.CountBitPasses(1, 8, false).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(device.CountBitPasses(0, 25, false).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(log.records().empty());
  EXPECT_EQ(device.counters().passes, 0u);
  EXPECT_OK(device.CountBitPasses(0, 8, false).status());
  EXPECT_EQ(log.records().size(), 8u);
}

// Deep profiling is read per pass, as RenderInternal reads it: a Profiler
// switched on or off while the passes replay gives each record the ledger
// a lone pass would have had at that setting. The switching thread makes
// the interleaving vary; every record is checked whatever it was.
TEST(KernelOracleTest, BitSweepReadsDeepProfilingPerPass) {
  Random rng(20261020);
  SweepCase c = RandomSweepCase(&rng);
  c.bit_width = 24;
  c.viewport = kPixels;
  c.state.stencil_test_enabled = true;
  c.state.stencil_func = CompareOp::kEqual;
  c.state.stencil_ref = 1;
  c.state.stencil_value_mask = 0xff;
  c.state.scissor_test_enabled = false;
  std::vector<float> texels(kPixels * 4);
  for (float& t : texels) t = SweepTexel(&rng);
  std::vector<uint8_t> stencil(kPixels);
  for (uint8_t& s : stencil) s = static_cast<uint8_t>(rng.NextUint64(2));
  c.profile = true;
  const SweepOutcome profiled =
      RunSweepCase(c, texels, stencil, BitPasses::kRowKernel);
  c.profile = false;
  const SweepOutcome plain =
      RunSweepCase(c, texels, stencil, BitPasses::kRowKernel);

  const bool was_profiling = Profiler::Global().enabled();
  std::atomic<bool> done{false};
  std::thread toggler([&done] {
    bool on = false;
    while (!done.load()) {
      on = !on;
      Profiler::Global().set_enabled(on);
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  int profiled_records = 0;
  int plain_records = 0;
  for (int call = 0; call < 300; ++call) {
    Device device(kWidth, kHeight);
    auto tex = Texture::Make(kWidth, kHeight, c.channels);
    ASSERT_OK(tex.status());
    Texture texture = std::move(tex).ValueOrDie();
    for (uint64_t i = 0; i < kPixels; ++i) {
      for (int ch = 0; ch < c.channels; ++ch) {
        texture.Set(i, ch, texels[i * 4 + ch]);
      }
    }
    auto id = device.UploadTexture(std::move(texture));
    ASSERT_OK(id.status());
    ASSERT_OK(device.BindTexture(id.ValueOrDie()));
    for (uint64_t i = 0; i < kPixels; ++i) {
      device.framebuffer().set_stencil(i, stencil[i]);
    }
    device.state() = c.state;
    PassLogScope log(&device);
    auto counts = device.CountBitPasses(c.channel, c.bit_width, c.kill);
    ASSERT_OK(counts.status());
    EXPECT_EQ(counts.ValueOrDie(), plain.counts);
    ASSERT_EQ(log.records().size(), 24u);
    for (size_t b = 0; b < 24; ++b) {
      const PassRecord& got = log.records()[b];
      const PassRecord& want =
          got.profiled ? profiled.passes[b] : plain.passes[b];
      ExpectSameRecord(got, want, "call " + std::to_string(call) + " bit " +
                                      std::to_string(b));
      ++(got.profiled ? profiled_records : plain_records);
    }
    if (HasFailure()) break;
  }
  done.store(true);
  toggler.join();
  Profiler::Global().set_enabled(was_profiling);
  EXPECT_GT(profiled_records, 0);
  EXPECT_GT(plain_records, 0);
}

// The lane rule (gpu::Int32Exact) against TestBitAlpha's float path --
// frac(v * 2^-(b+1)) >= 0.5 with FloorF32, which the random cases above
// hold equal to TestBitProgram::Execute -- for all 24 bits, over every
// integer in [-2^25, 2^25] and every binade edge up to 2^31 (each power
// of two, its float neighbours and their negatives). Each value the rule
// calls exact must have bit b of int(v) as bit b's verdict; and a device
// sweep over each chunk of values must count, per bit, what the float
// path counts. Split over a few threads, each with its own device.
TEST(KernelOracleTest, Int32ExactLanesMatchTheFloatPathOnEveryBit) {
  constexpr uint32_t kSide = 256;
  constexpr uint64_t kChunk = uint64_t{kSide} * kSide;
  constexpr int64_t kLimit = int64_t{1} << 25;
  std::vector<float> edges;
  for (int e = 0; e <= 31; ++e) {
    const float p = std::ldexp(1.0f, e);
    const float inf = std::numeric_limits<float>::infinity();
    for (const float v :
         {p, std::nextafter(p, 0.0f), std::nextafter(p, inf)}) {
      edges.push_back(v);
      edges.push_back(-v);
    }
  }
  const uint64_t integers = static_cast<uint64_t>(2 * kLimit + 1);
  const uint64_t chunks = (integers + kChunk - 1) / kChunk + 1;  // + edges
  const auto value_at = [&](uint64_t chunk, uint64_t j, float* v) {
    if (chunk + 1 == chunks) {
      if (j >= edges.size()) return false;
      *v = edges[j];
      return true;
    }
    const uint64_t k = chunk * kChunk + j;
    if (j >= kChunk || k >= integers) return false;
    *v = static_cast<float>(static_cast<int64_t>(k) - kLimit);
    return true;
  };

  std::array<float, 24> scales;  // exactly 2^-(b+1)
  for (int b = 0; b < 24; ++b) {
    scales[static_cast<size_t>(b)] = std::ldexp(1.0f, -(b + 1));
  }

  constexpr int kSlices = 4;
  std::vector<uint64_t> rule_mismatches(kSlices, 0);
  std::vector<uint64_t> count_mismatches(kSlices, 0);
  std::vector<float> first_bad(kSlices, 0.0f);
  std::vector<int> exact_values(kSlices, 0);
  std::vector<std::thread> workers;
  for (int slice = 0; slice < kSlices; ++slice) {
    workers.emplace_back([&, slice] {
      Device device(kSide, kSide);
      if (!device.SetWorkerThreads(1).ok()) return;
      auto tex = Texture::Make(kSide, kSide, 1);
      if (!tex.ok()) return;
      auto id = device.UploadTexture(std::move(tex).ValueOrDie());
      if (!id.ok() || !device.BindTexture(id.ValueOrDie()).ok()) return;
      device.SetAlphaTest(true, CompareOp::kGreaterEqual, 0.5f);
      device.SetColorWriteMask(false);
      device.SetDepthTest(false, CompareOp::kAlways);
      std::vector<float> values;
      for (uint64_t chunk = static_cast<uint64_t>(slice); chunk < chunks;
           chunk += kSlices) {
        values.clear();
        std::array<uint64_t, 24> want{};
        float v;
        for (uint64_t j = 0; value_at(chunk, j, &v); ++j) {
          values.push_back(v);
          uint32_t verdicts = 0;
          for (int b = 0; b < 24; ++b) {
            const float scaled = v * scales[static_cast<size_t>(b)];
            const float frac = scaled - FloorF32(scaled);
            if (frac >= 0.5f) {
              verdicts |= uint32_t{1} << b;
              ++want[static_cast<size_t>(b)];
            }
          }
          int32_t n;
          if (Int32Exact(v, &n)) {
            ++exact_values[static_cast<size_t>(slice)];
            if ((static_cast<uint32_t>(n) & 0xffffffu) != verdicts &&
                rule_mismatches[static_cast<size_t>(slice)]++ == 0) {
              first_bad[static_cast<size_t>(slice)] = v;
            }
          }
        }
        if (!device.UpdateTexture(id.ValueOrDie(), 0, values).ok() ||
            !device.SetViewport(values.size()).ok()) {
          ++count_mismatches[static_cast<size_t>(slice)];
          continue;
        }
        auto counts = device.CountBitPasses(0, 24, /*kill=*/false);
        if (!counts.ok() ||
            !std::equal(want.begin(), want.end(),
                        counts.ValueOrDie().begin())) {
          ++count_mismatches[static_cast<size_t>(slice)];
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  int exact = 0;
  for (int slice = 0; slice < kSlices; ++slice) {
    EXPECT_EQ(rule_mismatches[static_cast<size_t>(slice)], 0u)
        << "first mismatch at v = " << first_bad[static_cast<size_t>(slice)];
    EXPECT_EQ(count_mismatches[static_cast<size_t>(slice)], 0u);
    exact += exact_values[static_cast<size_t>(slice)];
  }
  // Every integer in range is exact, and so are the edges below 2^31 and
  // -2^31 itself.
  EXPECT_GT(exact, static_cast<int>(integers));
}

}  // namespace
}  // namespace gpu
}  // namespace gpudb
