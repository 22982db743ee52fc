#include "src/gpu/framebuffer.h"

#include <algorithm>
#include <cstddef>

namespace gpudb {
namespace gpu {

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
