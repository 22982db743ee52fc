#ifndef GPUDB_GPU_FRAGMENT_PROGRAM_H_
#define GPUDB_GPU_FRAGMENT_PROGRAM_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "src/gpu/texture.h"
#include "src/gpu/types.h"

namespace gpudb {
namespace gpu {

/// Number of texture units (2004-era hardware exposed at least four).
inline constexpr int kTextureUnits = 4;

/// Inputs available to a fragment program invocation.
struct FragmentInput {
  uint64_t texel_index = 0;   ///< Linear index of the covered texel/pixel.
  float frag_depth = 0.0f;    ///< Interpolated depth of the incoming fragment.
  const Texture* tex0 = nullptr;  ///< Texture bound to unit 0 (may be null).
  /// Textures bound to units 1..3 (null when unbound); unit 0 is `tex0`.
  /// Multi-unit programs implement the paper's "longer vectors can be split
  /// into multiple textures, each with four components" (Section 4.1.2).
  const Texture* tex1 = nullptr;
  const Texture* tex2 = nullptr;
  const Texture* tex3 = nullptr;
};

/// Outputs of a fragment program invocation.
struct FragmentOutput {
  std::array<float, 4> color = {0, 0, 0, 1};  ///< RGBA; alpha feeds alpha test.
  float depth = 0.0f;          ///< Replacement depth if depth_written.
  bool depth_written = false;  ///< True if the program wrote o.depth.
  bool discarded = false;      ///< True if the program executed KILL.
};

/// \brief A fragment program's batched form: what the device's row kernels
/// need to run it over a whole pass without calling Execute per fragment (a
/// driver recognizing a common shader pattern). Purely an execution
/// strategy with bit-identical results; the cost model still charges the
/// program's instruction count per fragment.
struct BatchedForm {
  enum class Kind : uint8_t {
    kNone,       ///< No batched form: the device interprets Execute.
    kDepthCopy,  ///< depth = (tex0[channel] - offset) * scale, in double.
    kTestBit,    ///< alpha = frac(tex0[channel] / 2^(bit+1)), in float32.
    kDot,        ///< KILL unless dot(weights, texels) op b, in float32.
  };
  Kind kind = Kind::kNone;
  int channel = 0;
  double scale = 1.0;   ///< kDepthCopy
  double offset = 0.0;  ///< kDepthCopy
  int bit = 0;          ///< kTestBit
  bool kill = false;    ///< kTestBit: KILL fragments whose alpha is < 0.5.
  /// kDot: the dot product reads units [0, dot_units), skipping an unbound
  /// one, and every channel of each; weights[4 * u + c] weights unit u's
  /// channel c. Survivors output color {dot, 0, 0, 1}.
  int dot_units = 0;
  std::array<float, 8> weights = {};
  CompareOp op = CompareOp::kAlways;  ///< kDot
  float b = 0.0f;                     ///< kDot
};

/// \brief A programmable pixel-processing-engine program (Section 3.1).
///
/// 2004-era fragment programs (NV_fragment_program / ARB_fragment_program)
/// were short, branch-free instruction sequences with texture fetch, float
/// vector arithmetic, and a KILL instruction; there was no integer arithmetic
/// and no dynamic branching (paper Section 6.1). Implementations here declare
/// their static instruction count so the performance model can charge
/// `fragments x instructions / (pipes x clock)` per pass exactly as the
/// paper's utilization analysis does (Section 6.2.2).
class FragmentProgram {
 public:
  virtual ~FragmentProgram() = default;

  /// Executes the program for one fragment.
  virtual void Execute(const FragmentInput& in, FragmentOutput* out) const = 0;

  /// Number of fragment-program instructions executed per fragment.
  virtual int instruction_count() const = 0;

  virtual std::string_view name() const = 0;

  /// The program's batched form; kNone (the default) keeps the program on
  /// the per-fragment interpreter. A program declaring a form must leave
  /// the output color at its default apart from the TestBit alpha and the
  /// dot product's red.
  virtual BatchedForm batched_form() const { return {}; }
};

/// \brief CopyToDepth (Routine 4.1): fetch the texel channel, normalize it to
/// [0,1], and write it to the fragment depth.
///
/// Matches the paper's 3-instruction copy program (Section 5.4): texture
/// fetch, normalization, copy-to-depth.
class CopyToDepthProgram : public FragmentProgram {
 public:
  /// `channel` selects which attribute channel of tex0 to copy;
  /// `scale`/`offset` normalize attribute values to [0,1]:
  /// depth = (value - offset) * scale.
  ///
  /// The normalization multiply runs in double precision before rounding the
  /// result once to the float32 fragment depth. This models the extended
  /// internal precision of the hardware normalization path and guarantees
  /// the exact-integer round trip through the 24-bit depth buffer (see
  /// QuantizeDepth); a pure-float multiply would drift by one code for
  /// values >= 2^23.
  CopyToDepthProgram(int channel, double scale, double offset)
      : channel_(channel), scale_(scale), offset_(offset) {}

  void Execute(const FragmentInput& in, FragmentOutput* out) const override;
  int instruction_count() const override { return 3; }
  std::string_view name() const override { return "CopyToDepthFP"; }
  BatchedForm batched_form() const override {
    return {BatchedForm::Kind::kDepthCopy, channel_, scale_, offset_};
  }

 private:
  int channel_;
  double scale_;
  double offset_;
};

/// \brief The planner's fused copy+compare pass program (DESIGN.md §14):
/// byte-for-byte the CopyToDepth program -- same 3 instructions, same
/// double-precision normalization -- but rendered with the depth function
/// set to the predicate's comparison instead of ALWAYS and the depth write
/// mask off, so the single pass both materializes the attribute as incoming
/// depth and resolves the compare against a constant seeded via ClearDepth.
/// A distinct name keeps the fused pass visible in pass logs and gpuprof.
class FusedCompareProgram final : public CopyToDepthProgram {
 public:
  using CopyToDepthProgram::CopyToDepthProgram;
  std::string_view name() const override { return "FusedCompareFP"; }
};

/// \brief SemilinearFP (Routine 4.2): computes dot(s, a) and KILLs fragments
/// for which `dot(s, a) op b` is false.
///
/// `s` has one weight per texture channel; unused channels must be 0.
class SemilinearProgram final : public FragmentProgram {
 public:
  SemilinearProgram(const std::array<float, 4>& weights, CompareOp op, float b);

  void Execute(const FragmentInput& in, FragmentOutput* out) const override;
  // DP4 + compare/KILL sequence: fetch, dot product, set-on-compare, kill.
  int instruction_count() const override { return 4; }
  std::string_view name() const override { return "SemilinearFP"; }
  BatchedForm batched_form() const override;

 private:
  std::array<float, 4> weights_;
  CompareOp op_;
  float b_;
};

/// \brief TestBit (Routine 4.6): writes frac(value / 2^(i+1)) into the
/// fragment alpha so the alpha test (alpha >= 0.5) passes exactly when bit i
/// of the integer value is set.
///
/// The paper uses this construction because 2004 GPUs "do not support
/// bit-masking operations in fragment programs" (Section 4.3.3).
class TestBitProgram final : public FragmentProgram {
 public:
  TestBitProgram(int channel, int bit) : channel_(channel), bit_(bit) {}

  void Execute(const FragmentInput& in, FragmentOutput* out) const override;
  // Paper Section 6.2.3: "we used a fragment program with at least 5
  // instructions to test if the i-th bit of a texel is 1".
  int instruction_count() const override { return 5; }
  std::string_view name() const override { return "TestBitFP"; }
  BatchedForm batched_form() const override {
    return {BatchedForm::Kind::kTestBit, channel_, 1.0, 0.0, bit_};
  }

 private:
  int channel_;
  int bit_;
};

/// std::floor for float32 without libm, bit-identical to it on every input
/// an arithmetic operation can produce (every float but the signaling
/// NaNs, which std::floor quiets): |x| >= 2^23 is already integral, as are
/// the infinities, and NaN passes through; zeros keep their sign; anything
/// else truncates through int32 and steps down once where truncation
/// rounded up. The row kernel's TestBit alpha source runs it (and a
/// four-lane copy of it). tests/gpu_kernel_oracle_test.cc sweeps all 2^32
/// inputs.
inline float FloorF32(float x) {
  const bool small = std::fabs(x) < 8388608.0f;  // 2^23; false for NaN
  const float xs = small ? x : 0.0f;
  const auto t = static_cast<float>(static_cast<int32_t>(xs));
  const float f = t > xs ? t - 1.0f : t;
  return small && x != 0.0f ? f : x;
}

/// The bit sweep's lane rule (Device::CountBitPasses): true, with `*n` =
/// int(v), when v survives the int32 round trip -- the scalar form of
/// cvttps2dq then cvtdq2ps comparing equal to v. For such a v and any
/// bit b <= 23, TestBit's frac(v / 2^(b+1)) is exactly
/// (n & (2^(b+1) - 1)) / 2^(b+1): the scaling, the floor and the
/// subtraction are all exact, and the result has at most 24 significant
/// bits. So its alpha is >= 0.5 exactly when bit b of n is set (two's
/// complement for negative v). False for fractions, subnormals, NaN, the
/// infinities and |v| >= 2^31 (bar -2^31 itself, which is exact).
inline bool Int32Exact(float v, int32_t* n) {
  if (!(v >= -2147483648.0f && v < 2147483648.0f)) return false;
  *n = static_cast<int32_t>(v);
  return static_cast<float>(*n) == v;
}

/// \brief Ablation variant of TestBit that rejects failing fragments with
/// KILL inside the program instead of relying on the alpha test. The paper
/// observes this is slower in practice (Section 4.3.3); the extra
/// compare-and-kill instructions make that visible in the cost model.
class TestBitKillProgram final : public FragmentProgram {
 public:
  TestBitKillProgram(int channel, int bit) : channel_(channel), bit_(bit) {}

  void Execute(const FragmentInput& in, FragmentOutput* out) const override;
  // TestBit's 5 instructions plus an in-program compare and KILL.
  int instruction_count() const override { return 7; }
  std::string_view name() const override { return "TestBitKillFP"; }
  BatchedForm batched_form() const override {
    return {BatchedForm::Kind::kTestBit, channel_, 1.0, 0.0, bit_, true};
  }

 private:
  int channel_;
  int bit_;
};

/// \brief Wide SemilinearFP: a semi-linear query over up to eight attributes
/// split across texture units 0 and 1, four channels each -- the paper's
/// prescription for vectors longer than one texture's four channels
/// (Section 4.1.2). Two fetches, two DP4s, an ADD, and the compare/KILL.
class WideSemilinearProgram final : public FragmentProgram {
 public:
  WideSemilinearProgram(const std::array<float, 8>& weights, CompareOp op,
                        float b);

  void Execute(const FragmentInput& in, FragmentOutput* out) const override;
  int instruction_count() const override { return 6; }
  std::string_view name() const override { return "WideSemilinearFP"; }
  BatchedForm batched_form() const override;

 private:
  std::array<float, 8> weights_;
  CompareOp op_;
  float b_;
};

/// \brief One step of the bitonic sorting network (Batcher), executed as a
/// fragment program in the style of Purcell et al. [30], which the paper
/// cites: "the output routing from one step to another is known in advance
/// ... each stage of the sorting algorithm is performed as one rendering
/// pass" (Section 2.2).
///
/// For fragment i with network parameters (j, k): the partner is i XOR j;
/// the comparison direction follows the classic bitonic rule, so after all
/// log^2 n steps channel 0 of the output is sorted ascending.
///
/// The instruction count (8) reflects the 2004 reality that computing the
/// partner's texture coordinate from the fragment position costs several
/// arithmetic instructions on top of the two fetches and the compare/select.
class BitonicStepProgram final : public FragmentProgram {
 public:
  BitonicStepProgram(uint64_t j, uint64_t k) : j_(j), k_(k) {}

  void Execute(const FragmentInput& in, FragmentOutput* out) const override;
  int instruction_count() const override { return 8; }
  std::string_view name() const override { return "BitonicStepFP"; }

 private:
  uint64_t j_;
  uint64_t k_;
};

/// \brief Bitonic network step over (key, payload) pairs stored in a
/// two-channel texture: comparisons use channel 0, and both channels move
/// together, so sorting carries row ids (or any 24-bit payload) along with
/// the keys -- the building block for ORDER BY.
class BitonicPairStepProgram final : public FragmentProgram {
 public:
  BitonicPairStepProgram(uint64_t j, uint64_t k) : j_(j), k_(k) {}

  void Execute(const FragmentInput& in, FragmentOutput* out) const override;
  // The scalar step's 8 instructions plus the conditional selects that move
  // the payload channel alongside the key.
  int instruction_count() const override { return 10; }
  std::string_view name() const override { return "BitonicPairStepFP"; }

 private:
  uint64_t j_;
  uint64_t k_;
};

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_FRAGMENT_PROGRAM_H_
