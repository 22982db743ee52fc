#include "src/gpu/framebuffer.h"

#include <algorithm>
#include <cstddef>

namespace gpudb {
namespace gpu {

void FrameBuffer::ClearColor(float r, float g, float b, float a,
                             uint64_t begin, uint64_t end) {
  for (uint64_t i = begin; i < end; ++i) {
    color_[i * 4 + 0] = r;
    color_[i * 4 + 1] = g;
    color_[i * 4 + 2] = b;
    color_[i * 4 + 3] = a;
  }
}

void FrameBuffer::ClearDepth(float d, uint64_t begin, uint64_t end) {
  std::fill(depth_.begin() + static_cast<std::ptrdiff_t>(begin),
            depth_.begin() + static_cast<std::ptrdiff_t>(end), Quantize(d));
}

void FrameBuffer::ClearStencil(uint8_t s, uint64_t begin, uint64_t end) {
  std::fill(stencil_.begin() + static_cast<std::ptrdiff_t>(begin),
            stencil_.begin() + static_cast<std::ptrdiff_t>(end), s);
}

}  // namespace gpu
}  // namespace gpudb
