#include "src/core/bitonic_sort.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/core/state_guard.h"
#include "src/gpu/fragment_program.h"

namespace gpudb {
namespace core {

uint64_t BitonicStepCount(uint64_t n) {
  if (n <= 1) return 0;
  const uint64_t log_n = std::bit_width(std::bit_ceil(n)) - 1;
  return log_n * (log_n + 1) / 2;
}

Result<std::vector<float>> BitonicSort(gpu::Device* device,
                                       const std::vector<float>& values) {
  if (values.empty()) {
    return Status::InvalidArgument("BitonicSort on empty input");
  }
  const uint64_t n = values.size();
  const uint64_t padded = std::bit_ceil(n);
  if (padded > device->framebuffer().pixel_count()) {
    return Status::ResourceExhausted(
        "padded sort size " + std::to_string(padded) +
        " exceeds the framebuffer; partition the input");
  }

  // Pad with +inf sentinels so they sort to the tail.
  std::vector<float> padded_values = values;
  padded_values.resize(padded, std::numeric_limits<float>::infinity());
  const uint32_t width = static_cast<uint32_t>(
      std::min<uint64_t>(padded, device->framebuffer().width()));
  GPUDB_ASSIGN_OR_RETURN(gpu::Texture tex,
                         gpu::Texture::FromColumns({&padded_values}, width));
  const uint32_t tex_h = tex.height();
  GPUDB_ASSIGN_OR_RETURN(gpu::TextureId src,
                         device->UploadTexture(std::move(tex)));
  // The ping-pong target must cover the padded element range.
  if (uint64_t{width} * tex_h < padded) {
    return Status::Internal("texture does not cover padded range");
  }

  StateGuard guard(device);
  const uint64_t saved_viewport = device->viewport_pixels();
  GPUDB_RETURN_NOT_OK(device->SetViewport(padded));
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetStencilTest(false, gpu::CompareOp::kAlways, 0);
  device->SetDepthTest(false, gpu::CompareOp::kAlways);
  device->SetDepthBoundsTest(false);
  device->SetColorWriteMask(true);

  // Batcher's bitonic network: outer merge size k, inner compare stride j.
  for (uint64_t k = 2; k <= padded; k <<= 1) {
    for (uint64_t j = k >> 1; j >= 1; j >>= 1) {
      // Deadline check between network steps (lint rule R2).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      const gpu::BitonicStepProgram program(j, k);
      GPUDB_RETURN_NOT_OK(device->BindTexture(src));
      device->UseProgram(&program);
      GPUDB_RETURN_NOT_OK(device->RenderTexturedQuad());
      device->UseProgram(nullptr);
      // Ping-pong: the framebuffer color now holds this step's output; copy
      // it back into the source texture for the next step.
      GPUDB_RETURN_NOT_OK(device->CopyColorToTexture(src));
    }
  }

  GPUDB_ASSIGN_OR_RETURN(std::vector<float> sorted,
                         device->ReadTexture(src, 0));
  sorted.resize(n);  // drop the +inf padding (sorted to the tail)
  GPUDB_RETURN_NOT_OK(device->SetViewport(saved_viewport));
  return sorted;
}

Result<SortedPairs> BitonicSortPairs(gpu::Device* device,
                                     const std::vector<float>& keys,
                                     const std::vector<uint32_t>& payloads) {
  if (keys.empty()) {
    return Status::InvalidArgument("BitonicSortPairs on empty input");
  }
  if (keys.size() != payloads.size()) {
    return Status::InvalidArgument("keys and payloads differ in length");
  }
  for (uint32_t p : payloads) {
    if (p >= gpu::kMaxExactInt) {
      return Status::OutOfRange(
          "payload " + std::to_string(p) +
          " not exactly representable in a float channel");
    }
  }
  const uint64_t n = keys.size();
  const uint64_t padded = std::bit_ceil(n);
  if (padded > device->framebuffer().pixel_count()) {
    return Status::ResourceExhausted(
        "padded sort size " + std::to_string(padded) +
        " exceeds the framebuffer; partition the input");
  }

  // Padding sorts to the tail: +inf keys, max payload for tie-breaking.
  std::vector<float> padded_keys = keys;
  padded_keys.resize(padded, std::numeric_limits<float>::infinity());
  std::vector<float> padded_payloads(padded,
                                     static_cast<float>(gpu::kMaxExactInt - 1));
  for (uint64_t i = 0; i < n; ++i) {
    padded_payloads[i] = static_cast<float>(payloads[i]);
  }
  const uint32_t width = static_cast<uint32_t>(
      std::min<uint64_t>(padded, device->framebuffer().width()));
  GPUDB_ASSIGN_OR_RETURN(
      gpu::Texture tex,
      gpu::Texture::FromColumns({&padded_keys, &padded_payloads}, width));
  GPUDB_ASSIGN_OR_RETURN(gpu::TextureId src,
                         device->UploadTexture(std::move(tex)));

  StateGuard guard(device);
  const uint64_t saved_viewport = device->viewport_pixels();
  GPUDB_RETURN_NOT_OK(device->SetViewport(padded));
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetStencilTest(false, gpu::CompareOp::kAlways, 0);
  device->SetDepthTest(false, gpu::CompareOp::kAlways);
  device->SetDepthBoundsTest(false);
  device->SetColorWriteMask(true);

  for (uint64_t k = 2; k <= padded; k <<= 1) {
    for (uint64_t j = k >> 1; j >= 1; j >>= 1) {
      // Deadline check between network steps (lint rule R2).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      const gpu::BitonicPairStepProgram program(j, k);
      GPUDB_RETURN_NOT_OK(device->BindTexture(src));
      device->UseProgram(&program);
      GPUDB_RETURN_NOT_OK(device->RenderTexturedQuad());
      device->UseProgram(nullptr);
      GPUDB_RETURN_NOT_OK(device->CopyColorToTexture(src));
    }
  }

  GPUDB_ASSIGN_OR_RETURN(std::vector<float> sorted_keys,
                         device->ReadTexture(src, 0));
  GPUDB_ASSIGN_OR_RETURN(std::vector<float> sorted_payloads,
                         device->ReadTexture(src, 1));
  SortedPairs out;
  out.keys.assign(sorted_keys.begin(), sorted_keys.begin() + n);
  out.payloads.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    out.payloads[i] = static_cast<uint32_t>(sorted_payloads[i]);
  }
  GPUDB_RETURN_NOT_OK(device->SetViewport(saved_viewport));
  return out;
}

}  // namespace core
}  // namespace gpudb
