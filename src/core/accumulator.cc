#include "src/core/accumulator.h"

#include <string>

#include "src/common/bit_util.h"
#include "src/core/op_span.h"
#include "src/core/state_guard.h"
#include "src/gpu/fragment_program.h"

namespace gpudb {
namespace core {

Result<uint64_t> Accumulate(gpu::Device* device, gpu::TextureId texture,
                            int channel, int bit_width,
                            const AccumulatorOptions& options) {
  if (bit_width < 1 || bit_width > 24) {
    return Status::InvalidArgument("bit_width must be in [1,24], got " +
                                   std::to_string(bit_width));
  }
  GpuOpSpan op("Accumulate", device);
  op.AddTag("bit_width", bit_width);
  op.AddTag("alpha_test", options.use_alpha_test ? "true" : "false");
  StateGuard guard(device);
  GPUDB_RETURN_NOT_OK(device->BindTexture(texture));
  device->SetDepthTest(false, gpu::CompareOp::kAlways);
  device->SetDepthBoundsTest(false);
  device->SetColorWriteMask(false);
  // Line 1 of Routine 4.6: alpha test passes with alpha >= 0.5 (disabled in
  // the in-program-KILL ablation variant).
  device->SetAlphaTest(options.use_alpha_test, gpu::CompareOp::kGreaterEqual,
                       0.5f);
  if (options.selection.has_value()) {
    device->SetStencilTest(true, gpu::CompareOp::kEqual,
                           options.selection->valid_value);
    device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                         gpu::StencilOp::kKeep);
  } else {
    device->SetStencilTest(false, gpu::CompareOp::kAlways, 0);
  }

  uint64_t sum = 0;
  for (int i = 0; i < bit_width; ++i) {
    // Deadline check between TestBit passes.
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    // Lines 4-8: count the records with bit i set, weight by 2^i.
    const gpu::TestBitProgram alpha_program(channel, i);
    const gpu::TestBitKillProgram kill_program(channel, i);
    if (options.use_alpha_test) {
      device->UseProgram(&alpha_program);
    } else {
      device->UseProgram(&kill_program);
    }
    GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
    GPUDB_RETURN_NOT_OK(device->RenderTexturedQuad());
    GPUDB_ASSIGN_OR_RETURN(uint64_t count, device->EndOcclusionQuery());
    sum += count * bit_util::PowerOfTwo(i);
    device->UseProgram(nullptr);
  }
  return sum;
}

Result<double> Average(gpu::Device* device, gpu::TextureId texture,
                       int channel, int bit_width,
                       const AccumulatorOptions& options) {
  const uint64_t count = options.selection.has_value()
                             ? options.selection->count
                             : device->viewport_pixels();
  if (count == 0) {
    return Status::InvalidArgument("AVG over empty selection");
  }
  GPUDB_ASSIGN_OR_RETURN(
      uint64_t sum, Accumulate(device, texture, channel, bit_width, options));
  return static_cast<double>(sum) / static_cast<double>(count);
}

}  // namespace core
}  // namespace gpudb
