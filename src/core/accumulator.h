#ifndef GPUDB_CORE_ACCUMULATOR_H_
#define GPUDB_CORE_ACCUMULATOR_H_

#include <cstdint>
#include <optional>

#include "src/common/result.h"
#include "src/core/eval_cnf.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief Options for Accumulate.
struct AccumulatorOptions {
  /// Restrict the sum to records marked by a previous selection: "Attributes
  /// that are not selected fail the stencil test and thus make no
  /// contribution to the final sum" (Section 4.3.3).
  std::optional<StencilSelection> selection;

  /// When true (the default, matching the paper), the per-bit test uses the
  /// alpha test against TestBit's fractional alpha; when false, the fragment
  /// program KILLs failing fragments directly. The paper notes "it is
  /// possible to perform the comparison and reject fragments directly in the
  /// fragment program, but it is faster in practice to use the alpha test".
  /// Kept as an option for the ablation benchmark.
  bool use_alpha_test = true;
};

/// \brief Routine 4.6 (Accumulator): sums an integer attribute exactly by
/// counting, for each bit position i, how many values have bit i set
/// (occlusion query over the TestBit alpha-test pass) and accumulating
/// count * 2^i. Records `bit_width` passes, run as one device sweep
/// (gpu::Device::CountBitPasses); works only on integer data, as the
/// paper states.
///
/// Returns the exact 64-bit sum.
[[nodiscard]] Result<uint64_t> Accumulate(gpu::Device* device, gpu::TextureId texture,
                            int channel, int bit_width,
                            const AccumulatorOptions& options = {});

/// \brief AVG = SUM / COUNT (Section 4.3.3). The count comes from the
/// selection if present, else the viewport record count.
[[nodiscard]] Result<double> Average(gpu::Device* device, gpu::TextureId texture,
                       int channel, int bit_width,
                       const AccumulatorOptions& options = {});

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_ACCUMULATOR_H_
