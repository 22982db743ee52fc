#ifndef GPUDB_GPU_FRAMEBUFFER_H_
#define GPUDB_GPU_FRAMEBUFFER_H_

#include <array>
#include <cstdint>
#include <vector>

namespace gpudb {
namespace gpu {

/// Depth buffer precision in bits. The paper (Section 6.1, "Precision")
/// stresses that "current GPUs have depth buffers with a maximum of 24 bits";
/// this limit bounds the integer range that Compare (Routine 4.1) can test
/// exactly, and we reproduce it faithfully.
inline constexpr int kDepthBits = 24;
inline constexpr uint32_t kDepthMax = (1u << kDepthBits) - 1;

/// Quantizes a normalized depth in [0,1] to the 24-bit fixed point value a
/// real depth buffer stores.
///
/// The multiply-and-round runs in double precision, modeling the rasterizer's
/// high-precision fixed-point depth path: for every 24-bit integer v, the
/// float32 value nearest to v/(2^24-1) quantizes back to exactly v (error
/// bound v * 2^-25 < 0.5), which is what keeps integer comparisons exact.
inline uint32_t QuantizeDepth(float d) {
  if (!(d > 0.0f)) return 0;  // NaN included: no float-to-int of a NaN
  if (d >= 1.0f) return kDepthMax;
  // round-to-nearest, as GL implementations do when converting to fixed point
  return static_cast<uint32_t>(static_cast<double>(d) * kDepthMax + 0.5);
}

/// \brief The frame-buffer: color, depth, and stencil planes (Section 3.1).
///
/// * Color buffer: RGBA float per pixel (FX-class GPUs could render to
///   float targets; only the alpha channel matters for our algorithms).
/// * Depth buffer: fixed point (24 bits by default, the 2004 maximum the
///   paper laments in Section 6.1), stored as the quantized integer so
///   that comparisons are bit-exact.
/// * Stencil buffer: 8 bits per pixel.
///
/// `depth_bits` is configurable (1-24) to let experiments demonstrate the
/// precision ceiling: a 16-bit buffer collapses distinct 19-bit attribute
/// values into shared depth codes and comparisons start miscounting.
class FrameBuffer {
 public:
  FrameBuffer(uint32_t width, uint32_t height, int depth_bits = kDepthBits)
      : width_(width),
        height_(height),
        depth_bits_(depth_bits),
        depth_max_((uint32_t{1} << depth_bits) - 1),
        color_(uint64_t{width} * height * 4, 0.0f),
        depth_(uint64_t{width} * height, depth_max_),
        stencil_(uint64_t{width} * height, 0) {}

  uint32_t width() const { return width_; }
  uint32_t height() const { return height_; }
  uint64_t pixel_count() const { return uint64_t{width_} * height_; }
  int depth_bits() const { return depth_bits_; }
  uint32_t depth_max() const { return depth_max_; }

  /// Quantizes a normalized depth to this buffer's precision.
  uint32_t Quantize(float d) const {
    if (!(d > 0.0f)) return 0;  // NaN included, as in QuantizeDepth
    if (d >= 1.0f) return depth_max_;
    return static_cast<uint32_t>(static_cast<double>(d) * depth_max_ + 0.5);
  }

  // Clears of the linear pixel range [begin, end); Device decides which
  // ranges a clear covers.
  /// Clears depth to a normalized value (1.0 is the far plane).
  void ClearDepth(float d, uint64_t begin, uint64_t end);
  void ClearStencil(uint8_t s, uint64_t begin, uint64_t end);

  // --- per-pixel access by linear index -------------------------------
  uint32_t depth(uint64_t i) const { return depth_[i]; }
  void set_depth(uint64_t i, uint32_t q) { depth_[i] = q; }

  uint8_t stencil(uint64_t i) const { return stencil_[i]; }
  void set_stencil(uint64_t i, uint8_t s) { stencil_[i] = s; }

  const float* color(uint64_t i) const { return &color_[i * 4]; }
  void set_color(uint64_t i, const std::array<float, 4>& rgba) {
    for (int c = 0; c < 4; ++c) color_[i * 4 + c] = rgba[c];
  }

  const std::vector<uint32_t>& depth_plane() const { return depth_; }
  const std::vector<uint8_t>& stencil_plane() const { return stencil_; }

  // --- raw plane access for per-pass kernels --------------------------
  // The uint8_t stencil stores of the fragment pipeline can legally alias
  // any object (char aliases everything), so loops going through the
  // accessors above reload the vector data pointers every fragment.
  // Kernels hoist these pointers into locals instead.
  uint32_t* depth_data() { return depth_.data(); }
  uint8_t* stencil_data() { return stencil_.data(); }
  float* color_data() { return color_.data(); }

 private:
  uint32_t width_;
  uint32_t height_;
  int depth_bits_;
  uint32_t depth_max_;
  std::vector<float> color_;     // RGBA interleaved
  std::vector<uint32_t> depth_;  // quantized to depth_bits_
  std::vector<uint8_t> stencil_;
};

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_FRAMEBUFFER_H_
