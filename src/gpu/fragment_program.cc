#include "src/gpu/fragment_program.h"

#include <algorithm>
#include <cmath>

#include "src/gpu/types.h"

namespace gpudb {
namespace gpu {

void CopyToDepthProgram::Execute(const FragmentInput& in,
                                 FragmentOutput* out) const {
  // 1. Texture fetch.
  const float v = in.tex0->At(in.texel_index, channel_);
  // 2. Normalization to [0,1] (double internally; see header).
  // 3. Copy to fragment depth.
  out->depth = static_cast<float>((static_cast<double>(v) - offset_) * scale_);
  out->depth_written = true;
}

SemilinearProgram::SemilinearProgram(const std::array<float, 4>& weights,
                                     CompareOp op, float b)
    : weights_(weights), op_(op), b_(b) {}

void SemilinearProgram::Execute(const FragmentInput& in,
                                FragmentOutput* out) const {
  const Texture& tex = *in.tex0;
  float dot = 0.0f;
  for (int c = 0; c < tex.channels(); ++c) {
    dot += weights_[c] * tex.At(in.texel_index, c);
  }
  // KILL fragments failing the comparison; survivors carry the dot product in
  // the red channel for debugging/inspection.
  if (!EvalCompare(op_, dot, b_)) {
    out->discarded = true;
    return;
  }
  out->color = {dot, 0.0f, 0.0f, 1.0f};
}

BatchedForm SemilinearProgram::batched_form() const {
  BatchedForm form;
  form.kind = BatchedForm::Kind::kDot;
  form.dot_units = 1;
  std::copy(weights_.begin(), weights_.end(), form.weights.begin());
  form.op = op_;
  form.b = b_;
  return form;
}

void TestBitProgram::Execute(const FragmentInput& in,
                             FragmentOutput* out) const {
  const float v = in.tex0->At(in.texel_index, channel_);
  // alpha = frac(v / 2^(bit+1)); for non-negative integers v this is >= 0.5
  // iff bit `bit_` of v is set (paper Section 4.3.3). Computed in float32 as
  // the hardware would: v <= 2^24 is exact in fp32 and dividing by a power of
  // two is exact, so frac() is exact as well.
  const float scaled = v / std::exp2f(static_cast<float>(bit_ + 1));
  const float frac = scaled - std::floor(scaled);
  out->color = {0.0f, 0.0f, 0.0f, frac};
}

void TestBitKillProgram::Execute(const FragmentInput& in,
                                 FragmentOutput* out) const {
  const float v = in.tex0->At(in.texel_index, channel_);
  const float scaled = v / std::exp2f(static_cast<float>(bit_ + 1));
  const float frac = scaled - std::floor(scaled);
  if (frac < 0.5f) {
    out->discarded = true;
    return;
  }
  out->color = {0.0f, 0.0f, 0.0f, frac};
}

WideSemilinearProgram::WideSemilinearProgram(
    const std::array<float, 8>& weights, CompareOp op, float b)
    : weights_(weights), op_(op), b_(b) {}

void WideSemilinearProgram::Execute(const FragmentInput& in,
                                    FragmentOutput* out) const {
  float dot = 0.0f;
  if (in.tex0 != nullptr) {
    for (int c = 0; c < in.tex0->channels(); ++c) {
      dot += weights_[c] * in.tex0->At(in.texel_index, c);
    }
  }
  if (in.tex1 != nullptr) {
    for (int c = 0; c < in.tex1->channels(); ++c) {
      dot += weights_[4 + c] * in.tex1->At(in.texel_index, c);
    }
  }
  if (!EvalCompare(op_, dot, b_)) {
    out->discarded = true;
    return;
  }
  out->color = {dot, 0.0f, 0.0f, 1.0f};
}

BatchedForm WideSemilinearProgram::batched_form() const {
  BatchedForm form;
  form.kind = BatchedForm::Kind::kDot;
  form.dot_units = 2;
  form.weights = weights_;
  form.op = op_;
  form.b = b_;
  return form;
}

void BitonicStepProgram::Execute(const FragmentInput& in,
                                 FragmentOutput* out) const {
  const uint64_t i = in.texel_index;
  const uint64_t partner = i ^ j_;
  const float self = in.tex0->At(i, 0);
  const float other = in.tex0->At(partner, 0);
  // Ascending block if (i & k) == 0. Keep the smaller element at the lower
  // index of the pair within ascending blocks, the larger within descending.
  const bool ascending = (i & k_) == 0;
  const bool lower_of_pair = (i & j_) == 0;
  const bool keep_min = ascending == lower_of_pair;
  const float result =
      keep_min ? (self < other ? self : other) : (self > other ? self : other);
  out->color = {result, 0.0f, 0.0f, 1.0f};
}

void BitonicPairStepProgram::Execute(const FragmentInput& in,
                                     FragmentOutput* out) const {
  const uint64_t i = in.texel_index;
  const uint64_t partner = i ^ j_;
  const float self_key = in.tex0->At(i, 0);
  const float self_payload = in.tex0->At(i, 1);
  const float other_key = in.tex0->At(partner, 0);
  const float other_payload = in.tex0->At(partner, 1);
  const bool ascending = (i & k_) == 0;
  const bool lower_of_pair = (i & j_) == 0;
  const bool keep_min = ascending == lower_of_pair;
  // Tie-break deterministically on the payload so equal keys still order
  // consistently (needed for a total order over (key, row) pairs).
  const bool self_smaller =
      self_key != other_key ? self_key < other_key
                            : self_payload < other_payload;
  const bool take_self = keep_min == self_smaller;
  out->color = {take_self ? self_key : other_key,
                take_self ? self_payload : other_payload, 0.0f, 1.0f};
}

}  // namespace gpu
}  // namespace gpudb
