#include "src/core/accumulator.h"

#include <string>
#include <vector>

#include "src/common/bit_util.h"
#include "src/core/op_span.h"
#include "src/core/state_guard.h"

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

  // Lines 3-8, one TestBit pass per bit: the device sweeps the texels once
  // and replays the passes in order (Device::CountBitPasses). Bit i's
  // count of records with the bit set is weighted by 2^i.
  GPUDB_ASSIGN_OR_RETURN(
      const std::vector<uint64_t> counts,
      device->CountBitPasses(channel, bit_width, !options.use_alpha_test));
  uint64_t sum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    sum += counts[i] * bit_util::PowerOfTwo(static_cast<int>(i));
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
