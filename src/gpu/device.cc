#include "src/gpu/device.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/common/trace.h"

namespace gpudb {
namespace gpu {

// Force the per-fragment stages into the span/raster loops: at -O2 the
// compiler judges them too large to inline on its own, which leaves an
// opaque call (and per-call RenderState reloads) on a path executed a
// million times per pass.
#if defined(__GNUC__)
#define GPUDB_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define GPUDB_ALWAYS_INLINE inline
#endif

namespace {

/// Device-level hardware metrics (process-wide, across all Device
/// instances). References are cached so the hot paths pay one map lookup
/// per process, not per pass.
struct DeviceMetrics {
  MetricCounter& passes = MetricsRegistry::Global().counter("gpu.passes");
  MetricCounter& fragments =
      MetricsRegistry::Global().counter("gpu.fragments_generated");
  MetricCounter& bytes_uploaded =
      MetricsRegistry::Global().counter("gpu.bytes_uploaded");
  MetricCounter& bytes_read_back =
      MetricsRegistry::Global().counter("gpu.bytes_read_back");
  MetricCounter& occlusion_readbacks =
      MetricsRegistry::Global().counter("gpu.occlusion_readbacks");
  MetricCounter& texture_swap_ins =
      MetricsRegistry::Global().counter("gpu.texture_swap_ins");
  MetricCounter& bytes_swapped =
      MetricsRegistry::Global().counter("gpu.bytes_swapped");
  // Deep-profile counters; only advance while the Profiler is enabled.
  MetricCounter& alpha_killed =
      MetricsRegistry::Global().counter("gpu.alpha_killed");
  MetricCounter& stencil_killed =
      MetricsRegistry::Global().counter("gpu.stencil_killed");
  MetricCounter& depth_killed =
      MetricsRegistry::Global().counter("gpu.depth_killed");
  MetricCounter& plane_bytes_read =
      MetricsRegistry::Global().counter("gpu.plane_bytes_read");
  MetricCounter& plane_bytes_written =
      MetricsRegistry::Global().counter("gpu.plane_bytes_written");
  // Depth-plane cache (DESIGN.md §14).
  MetricCounter& plancache_hits =
      MetricsRegistry::Global().counter("plancache.hits");
  MetricCounter& plancache_misses =
      MetricsRegistry::Global().counter("plancache.misses");
  MetricCounter& plancache_evictions =
      MetricsRegistry::Global().counter("plancache.evictions");

  static DeviceMetrics& Get() {
    static DeviceMetrics* m = new DeviceMetrics();
    return *m;
  }
};

/// The pixels a screen-filling quad covers, which is also what every clear
/// and every triangle is clipped to: the viewport's first n pixels as at
/// most two rectangles (the full rows, then the partial final row), each
/// clipped to the scissor when the scissor test is on. Surviving rects keep
/// disjoint, increasing row ranges, which is what makes RenderInternal's
/// band split race-free.
struct Coverage {
  std::array<ScissorRect, 2> rects;
  int count = 0;
  uint32_t rows = 0;  ///< Rows summed over the rects.
  uint32_t width;     ///< The framebuffer's.

  Coverage(uint64_t viewport_pixels, uint32_t fb_width,
           const RenderState& state)
      : width(fb_width) {
    const auto full_rows = static_cast<uint32_t>(viewport_pixels / width);
    const auto remainder = static_cast<uint32_t>(viewport_pixels % width);
    if (full_rows > 0) Add({0, 0, width, full_rows}, state);
    if (remainder > 0) Add({0, full_rows, remainder, full_rows + 1}, state);
  }

  const ScissorRect* begin() const { return rects.data(); }
  const ScissorRect* end() const { return rects.data() + count; }

  /// Calls fill(begin, end) once per run of consecutive covered pixel
  /// indices: a full-width rect is one run, any other rect one per row.
  template <typename Fill>
  void ForEachRun(Fill&& fill) const {
    for (const ScissorRect& r : *this) {
      if (r.x0 == 0 && r.x1 == width) {
        fill(uint64_t{r.y0} * width, uint64_t{r.y1} * width);
        continue;
      }
      for (uint64_t y = r.y0; y < r.y1; ++y) {
        fill(y * width + r.x0, y * width + r.x1);
      }
    }
  }

  /// Calls rows(rect, y_begin, y_end) for the part of each rect that lies
  /// in rows [row_begin, row_end) of the rects' concatenated row sequence:
  /// one band's share of a pass (Device::RunBands).
  template <typename Rows>
  void ForBandRows(uint32_t row_begin, uint32_t row_end, Rows&& rows) const {
    uint32_t skipped = 0;
    for (const ScissorRect& r : *this) {
      const uint32_t height = r.y1 - r.y0;
      const uint32_t lo = std::max(row_begin, skipped);
      const uint32_t hi = std::min(row_end, skipped + height);
      if (lo < hi) rows(r, r.y0 + (lo - skipped), r.y0 + (hi - skipped));
      skipped += height;
    }
  }

 private:
  void Add(ScissorRect rect, const RenderState& state) {
    if (state.scissor_test_enabled) {
      const ScissorRect& s = state.scissor;
      rect.x0 = std::max(rect.x0, s.x0);
      rect.y0 = std::max(rect.y0, s.y0);
      rect.x1 = std::min(rect.x1, s.x1);
      rect.y1 = std::min(rect.y1, s.y1);
      if (rect.x0 >= rect.x1 || rect.y0 >= rect.y1) return;
    }
    rows += rect.y1 - rect.y0;
    rects[static_cast<size_t>(count++)] = rect;
  }
};

}  // namespace

Device::Device(uint32_t width, uint32_t height, int depth_bits)
    : fb_(width, height, depth_bits),
      viewport_pixels_(uint64_t{width} * height),
      worker_threads_(ThreadPool::DefaultThreads()) {
  // ThreadPool records engine busy time only where a profiled pass ran on
  // several engines; registering it with every device lists the row at
  // any thread count, a device that never builds a pool included.
  MetricsRegistry::Global().histogram("gpu.engine_busy_ms");
}

Status Device::SetWorkerThreads(int n) {
  if (n < 1) {
    return Status::InvalidArgument("worker thread count must be >= 1, got " +
                                   std::to_string(n));
  }
  if (n != worker_threads_) {
    worker_threads_ = n;
    pool_.reset();  // re-created lazily at the right size
  }
  return Status::OK();
}

ThreadPool* Device::EnsurePool() {
  if (pool_ == nullptr || pool_->size() != worker_threads_) {
    pool_ = std::make_unique<ThreadPool>(worker_threads_);
  }
  return pool_.get();
}

Result<TextureId> Device::UploadTexture(Texture texture) {
  const uint64_t bytes = texture.byte_size();
  GPUDB_RETURN_NOT_OK(injector_.OnAllocation(bytes));
  textures_.emplace_back(std::move(texture));
  const auto id = static_cast<TextureId>(textures_.size() - 1);
  // The initial upload makes the texture resident (evicting others if the
  // working set exceeds the card). A texture that cannot fit at all fails
  // before any bus transfer is charged. EnsureResident knows this first
  // residency is not a swap-in, so the transfer is charged here as the AGP
  // upload it is.
  GPUDB_RETURN_NOT_OK(EnsureResident(id));
  counters_.bytes_uploaded += bytes;
  DeviceMetrics::Get().bytes_uploaded.Add(bytes);
  TraceSpan span("gpu.upload_texture");
  span.AddTag("bytes", bytes);
  span.AddTag("texture", static_cast<double>(id));
  return id;
}

Status Device::SetVideoMemoryBudget(uint64_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("video memory budget must be positive");
  }
  video_memory_budget_ = bytes;
  // Evict immediately if the resident set no longer fits. Cached depth
  // planes share the budget at strictly lower priority than textures, so
  // they go first.
  while (resident_bytes_ + plane_cache_.bytes() > video_memory_budget_ &&
         plane_cache_.EvictLru()) {
    DeviceMetrics::Get().plancache_evictions.Increment();
  }
  for (TextureSlot& slot : textures_) {
    if (resident_bytes_ <= video_memory_budget_) break;
    if (slot.resident) {
      slot.resident = false;
      resident_bytes_ -= slot.data.byte_size();
    }
  }
  if (resident_bytes_ > video_memory_budget_) {
    return Status::Internal("resident accounting out of sync");
  }
  return Status::OK();
}

Status Device::EnsureResident(TextureId id) {
  TextureSlot& slot = textures_[id];
  slot.last_use = ++lru_clock_;
  if (slot.resident) return Status::OK();
  const uint64_t bytes = slot.data.byte_size();
  if (bytes > video_memory_budget_) {
    return Status::ResourceExhausted(
        "texture of " + std::to_string(bytes) +
        " bytes exceeds the video memory budget of " +
        std::to_string(video_memory_budget_));
  }
  // Cached depth planes yield before any texture is considered: a texture
  // the query needs now outranks an optimization for a future query.
  while (resident_bytes_ + plane_cache_.bytes() + bytes >
             video_memory_budget_ &&
         plane_cache_.EvictLru()) {
    DeviceMetrics::Get().plancache_evictions.Increment();
  }
  // Evict least-recently-used resident textures (never the bound units)
  // until the texture fits.
  while (resident_bytes_ + bytes > video_memory_budget_) {
    TextureId victim = -1;
    uint64_t oldest = ~uint64_t{0};
    for (size_t i = 0; i < textures_.size(); ++i) {
      if (!textures_[i].resident) continue;
      bool bound = static_cast<TextureId>(i) == id;
      for (TextureId unit : bound_units_) {
        bound = bound || unit == static_cast<TextureId>(i);
      }
      if (bound) continue;
      if (textures_[i].last_use < oldest) {
        oldest = textures_[i].last_use;
        victim = static_cast<TextureId>(i);
      }
    }
    if (victim < 0) {
      return Status::ResourceExhausted(
          "cannot evict enough textures (all bound) to fit " +
          std::to_string(bytes) + " bytes");
    }
    textures_[victim].resident = false;
    resident_bytes_ -= textures_[victim].data.byte_size();
  }
  slot.resident = true;
  resident_bytes_ += bytes;
  // Only a re-residency is a swap-in: the first time a texture becomes
  // resident is its creation/upload, which is charged by the caller.
  if (slot.ever_resident) {
    ++counters_.texture_swap_ins;
    counters_.bytes_swapped += bytes;
    DeviceMetrics::Get().texture_swap_ins.Increment();
    DeviceMetrics::Get().bytes_swapped.Add(bytes);
    TraceSpan span("gpu.texture_swap_in");
    span.AddTag("bytes", bytes);
    span.AddTag("texture", static_cast<double>(id));
  }
  slot.ever_resident = true;
  return Status::OK();
}

Result<TextureId> Device::CreateTexture(uint32_t width, uint32_t height,
                                        int channels) {
  GPUDB_ASSIGN_OR_RETURN(Texture tex, Texture::Make(width, height, channels));
  GPUDB_RETURN_NOT_OK(injector_.OnAllocation(tex.byte_size()));
  textures_.emplace_back(std::move(tex));
  const auto id = static_cast<TextureId>(textures_.size() - 1);
  // Allocation is on-card (no bus transfer), but it occupies the budget;
  // EnsureResident charges nothing for a first residency.
  GPUDB_RETURN_NOT_OK(EnsureResident(id));
  return id;
}

Status Device::CopyColorToTexture(TextureId dst) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  if (dst < 0 || static_cast<size_t>(dst) >= textures_.size()) {
    return Status::InvalidArgument("CopyColorToTexture: invalid texture id " +
                                   std::to_string(dst));
  }
  GPUDB_RETURN_NOT_OK(EnsureResident(dst));
  Texture& tex = textures_[dst].data;
  if (tex.total_texels() < viewport_pixels_) {
    return Status::InvalidArgument(
        "CopyColorToTexture: destination texture smaller than viewport");
  }
  for (uint64_t i = 0; i < viewport_pixels_; ++i) {
    const float* rgba = fb_.color(i);
    for (int c = 0; c < tex.channels(); ++c) {
      tex.Set(i, c, rgba[c]);
    }
  }
  // Charged as an on-card one-cycle-per-texel pass (glCopyTexSubImage2D).
  PassRecord pass;
  pass.label = "copy-color-to-texture";
  pass.fragments = viewport_pixels_;
  pass.fp_instructions = 1;
  pass.fragments_passed = viewport_pixels_;
  pass.profiled = DeepProfiling();
  if (pass.profiled) {
    // The copy bypasses the fragment tests; its plane traffic is one full
    // read of the color plane (the test-chain model in
    // ApplyPlaneTrafficModel does not apply).
    pass.prof.plane_bytes_read = viewport_pixels_ * 16;
  }
  return FinishPass(std::move(pass));
}

Result<bool> Device::RestoreCachedDepthPlane(const PlaneKey& key) {
  const std::vector<uint32_t>* plane = plane_cache_.Lookup(key);
  if (plane == nullptr) {
    ++counters_.plane_cache_misses;
    DeviceMetrics::Get().plancache_misses.Increment();
    return false;
  }
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  const uint64_t n = plane->size();
  if (n > fb_.pixel_count()) {
    return Status::Internal(
        "cached depth plane larger than the framebuffer it came from");
  }
  std::copy(plane->begin(), plane->end(), fb_.depth_data());
  ++counters_.plane_cache_hits;
  DeviceMetrics::Get().plancache_hits.Increment();
  // The on-card blit that stands in for CopyToDepth: one cycle per texel,
  // every texel "passes" and lands in the depth plane. No fragment tests
  // run, so the plane-traffic model does not apply; the traffic is exactly
  // one full write of the restored depth range.
  PassRecord pass;
  pass.label = "plane-restore";
  pass.fragments = n;
  pass.fp_instructions = 1;
  pass.fragments_passed = n;
  pass.depth_writes = n;
  pass.cache_hit = true;
  pass.profiled = DeepProfiling();
  if (pass.profiled) pass.prof.plane_bytes_written = n * 4;
  GPUDB_RETURN_NOT_OK(FinishPass(std::move(pass)));
  return true;
}

Status Device::CacheDepthPlane(const PlaneKey& key) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  const uint64_t n = key.viewport_pixels;
  if (n == 0 || n > fb_.pixel_count()) {
    return Status::InvalidArgument(
        "CacheDepthPlane: key covers " + std::to_string(n) +
        " pixels, framebuffer has " + std::to_string(fb_.pixel_count()));
  }
  const uint64_t bytes = n * sizeof(uint32_t);
  // Planes never displace textures: if the plane cannot fit beside the
  // resident set even with the whole cache empty, skip caching silently --
  // the query already has its answer, the copy just stays un-amortized.
  if (resident_bytes_ + bytes > video_memory_budget_) return Status::OK();
  while (resident_bytes_ + plane_cache_.bytes() + bytes >
         video_memory_budget_) {
    if (!plane_cache_.EvictLru()) return Status::OK();
    DeviceMetrics::Get().plancache_evictions.Increment();
  }
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  std::vector<uint32_t> plane(fb_.depth_data(), fb_.depth_data() + n);
  // The snapshot is an on-card depth-plane read (glCopyTexSubImage2D of the
  // depth attachment, in 2004 terms): one cycle per texel, one full read.
  PassRecord pass;
  pass.label = "plane-snapshot";
  pass.fragments = n;
  pass.fp_instructions = 1;
  pass.fragments_passed = n;
  pass.profiled = DeepProfiling();
  if (pass.profiled) pass.prof.plane_bytes_read = n * 4;
  GPUDB_RETURN_NOT_OK(FinishPass(std::move(pass)));
  plane_cache_.Insert(key, std::move(plane));
  return Status::OK();
}

Result<std::vector<float>> Device::ReadTexture(TextureId id, int channel) {
  if (id < 0 || static_cast<size_t>(id) >= textures_.size()) {
    return Status::InvalidArgument("ReadTexture: invalid texture id " +
                                   std::to_string(id));
  }
  const Texture& tex = textures_[id].data;
  if (channel < 0 || channel >= tex.channels()) {
    return Status::InvalidArgument("ReadTexture: invalid channel " +
                                   std::to_string(channel));
  }
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("texture"));
  counters_.bytes_read_back += tex.total_texels() * 4;
  DeviceMetrics::Get().bytes_read_back.Add(tex.total_texels() * 4);
  std::vector<float> out(tex.total_texels());
  for (uint64_t i = 0; i < tex.total_texels(); ++i) {
    out[i] = tex.At(i, channel);
  }
  return out;
}

Status Device::UpdateTexture(TextureId id, uint64_t offset,
                             const std::vector<float>& values, int channel) {
  if (id < 0 || static_cast<size_t>(id) >= textures_.size()) {
    return Status::InvalidArgument("UpdateTexture: invalid texture id " +
                                   std::to_string(id));
  }
  GPUDB_RETURN_NOT_OK(EnsureResident(id));
  Texture& tex = textures_[id].data;
  if (channel < 0 || channel >= tex.channels()) {
    return Status::InvalidArgument("UpdateTexture: invalid channel " +
                                   std::to_string(channel));
  }
  if (offset + values.size() > tex.total_texels()) {
    return Status::OutOfRange("UpdateTexture: write of " +
                              std::to_string(values.size()) +
                              " texels at offset " + std::to_string(offset) +
                              " exceeds texture");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    tex.Set(offset + i, channel, values[i]);
  }
  counters_.bytes_uploaded += values.size() * 4;
  DeviceMetrics::Get().bytes_uploaded.Add(values.size() * 4);
  return Status::OK();
}

Status Device::BindTexture(TextureId id) { return BindTextureUnit(0, id); }

Status Device::BindTextureUnit(int unit, TextureId id) {
  if (unit < 0 || unit >= kTextureUnits) {
    return Status::InvalidArgument("texture unit must be in [0,3], got " +
                                   std::to_string(unit));
  }
  if (id < 0 || static_cast<size_t>(id) >= textures_.size()) {
    return Status::InvalidArgument("BindTexture: invalid texture id " +
                                   std::to_string(id));
  }
  bound_units_[unit] = id;
  return Status::OK();
}

Status Device::UnbindTextureUnit(int unit) {
  if (unit < 0 || unit >= kTextureUnits) {
    return Status::InvalidArgument("texture unit must be in [0,3], got " +
                                   std::to_string(unit));
  }
  bound_units_[unit] = -1;
  return Status::OK();
}

void Device::SetAlphaTest(bool enabled, CompareOp func, float ref) {
  state_.alpha_test_enabled = enabled;
  state_.alpha_func = func;
  state_.alpha_ref = ref;
}

void Device::SetStencilTest(bool enabled, CompareOp func, uint8_t ref,
                            uint8_t value_mask) {
  state_.stencil_test_enabled = enabled;
  state_.stencil_func = func;
  state_.stencil_ref = ref;
  state_.stencil_value_mask = value_mask;
}

void Device::SetStencilOp(StencilOp fail, StencilOp zfail, StencilOp zpass) {
  state_.stencil_fail_op = fail;
  state_.stencil_zfail_op = zfail;
  state_.stencil_zpass_op = zpass;
}

void Device::SetDepthTest(bool enabled, CompareOp func) {
  state_.depth_test_enabled = enabled;
  state_.depth_func = func;
}

void Device::SetDepthWriteMask(bool enabled) {
  state_.depth_write_mask = enabled;
}

void Device::SetColorWriteMask(bool enabled) {
  state_.color_write_mask = enabled;
}

void Device::SetDepthBoundsTest(bool enabled, float zmin, float zmax) {
  state_.depth_bounds_test_enabled = enabled;
  state_.depth_bounds_min = fb_.Quantize(zmin);
  state_.depth_bounds_max = fb_.Quantize(zmax);
}

Status Device::SetViewport(uint64_t pixels) {
  if (pixels == 0 || pixels > fb_.pixel_count()) {
    return Status::OutOfRange("viewport of " + std::to_string(pixels) +
                              " pixels exceeds framebuffer of " +
                              std::to_string(fb_.pixel_count()));
  }
  viewport_pixels_ = pixels;
  return Status::OK();
}

void Device::ClearDepth(float d) {
  Coverage(viewport_pixels_, fb_.width(), state_)
      .ForEachRun([&](uint64_t begin, uint64_t end) {
        fb_.ClearDepth(d, begin, end);
      });
}

void Device::ClearStencil(uint8_t s) {
  Coverage(viewport_pixels_, fb_.width(), state_)
      .ForEachRun([&](uint64_t begin, uint64_t end) {
        fb_.ClearStencil(s, begin, end);
      });
}

Status Device::RenderQuad(float depth) {
  return RenderInternal(depth, /*textured=*/false);
}

Status Device::RenderTexturedQuad() {
  if (bound_units_[0] < 0) {
    return Status::FailedPrecondition(
        "RenderTexturedQuad requires a bound texture");
  }
  return RenderInternal(/*quad_depth=*/0.0f, /*textured=*/true);
}

GPUDB_ALWAYS_INLINE
void Device::ProcessFragment(const RasterFragment& frag, PassContext* ctx) {
  const uint64_t i = uint64_t{frag.y} * fb_.width() + frag.x;

  // --- Fragment program (pixel processing engine) ----------------------
  FragmentOutput out;
  out.depth = frag.depth;
  if (ctx->program != nullptr) {
    FragmentInput in;
    in.texel_index = i;
    in.frag_depth = frag.depth;
    in.tex0 = ctx->units[0];
    in.tex1 = ctx->units[1];
    in.tex2 = ctx->units[2];
    in.tex3 = ctx->units[3];
    // FragmentProgram::Execute returns void (the shader ABI writes through
    // an out-param); gpulint merges it by name with the fallible
    // Session::Execute / Executor::Execute, so this call looks discarded.
    // gpulint-allow(R1) void shader ABI; name collides with Session::Execute
    ctx->program->Execute(in, &out);
  }
  const uint32_t frag_depth_q =
      out.depth_written ? fb_.Quantize(out.depth) : fb_.Quantize(frag.depth);

  // --- KILL and the alpha test ------------------------------------------
  const RenderState& rs = state_;
  const bool alive =
      !out.discarded && (!rs.alpha_test_enabled ||
                         EvalCompare(rs.alpha_func, out.color[3], rs.alpha_ref));
  TestFragment(i, frag_depth_q, alive, out.color, ctx);
}

GPUDB_ALWAYS_INLINE
void Device::TestFragment(uint64_t i, uint32_t frag_depth_q, bool alive,
                          const std::array<float, 4>& color,
                          PassContext* ctx) {
  const RenderState& rs = state_;
  ++ctx->pass->fragments;
  if (!alive) {
    // KILLed and alpha-failed fragments do not reach the stencil stage.
    if (ctx->profile) ++ctx->pass->prof.alpha_killed;
    return;
  }

  // --- Stencil test -------------------------------------------------------
  const uint8_t stored_stencil = fb_.stencil(i);
  auto update_stencil = [&](StencilOp op) {
    const uint8_t result = ApplyStencilOp(op, stored_stencil, rs.stencil_ref);
    const uint8_t merged =
        static_cast<uint8_t>((stored_stencil & ~rs.stencil_write_mask) |
                             (result & rs.stencil_write_mask));
    if (merged != stored_stencil) {
      fb_.set_stencil(i, merged);
      ++ctx->pass->stencil_updates;
    }
  };
  if (rs.stencil_test_enabled) {
    // GL semantics: (ref & mask) FUNC (stored & mask).
    const auto ref =
        static_cast<uint8_t>(rs.stencil_ref & rs.stencil_value_mask);
    const auto val =
        static_cast<uint8_t>(stored_stencil & rs.stencil_value_mask);
    if (!EvalCompare(rs.stencil_func, ref, val)) {
      update_stencil(rs.stencil_fail_op);  // Op1
      if (ctx->profile) ++ctx->pass->prof.stencil_killed;
      return;
    }
  }

  // --- Depth bounds test (GL_EXT_depth_bounds_test) -----------------------
  // Tests the depth value stored in the framebuffer, not the fragment's.
  // A bounds failure counts as a depth-test failure (Op2).
  bool depth_pass = true;
  if (rs.depth_bounds_test_enabled) {
    const uint32_t stored_depth = fb_.depth(i);
    depth_pass = stored_depth >= rs.depth_bounds_min &&
                 stored_depth <= rs.depth_bounds_max;
  }

  // --- Depth test ----------------------------------------------------------
  if (depth_pass && rs.depth_test_enabled) {
    depth_pass = EvalCompare(rs.depth_func, frag_depth_q, fb_.depth(i));
  }

  if (!depth_pass) {
    if (rs.stencil_test_enabled) update_stencil(rs.stencil_zfail_op);  // Op2
    return;
  }
  if (rs.stencil_test_enabled) update_stencil(rs.stencil_zpass_op);  // Op3

  // --- Fragment passed: count and write -----------------------------------
  ++ctx->pass->fragments_passed;
  if (ctx->occlusion != nullptr) ++*ctx->occlusion;

  // As in OpenGL, depth writes only happen when the depth test is enabled
  // (CopyToDepth therefore enables the test with func ALWAYS).
  if (rs.depth_test_enabled && rs.depth_write_mask) {
    if (fb_.depth(i) != frag_depth_q) {
      fb_.set_depth(i, frag_depth_q);
    }
    ++ctx->pass->depth_writes;
  }
  if (rs.color_write_mask) {
    fb_.set_color(i, color);
  }
}

namespace {

/// A loop-invariant compare op as a truth table over the orderings of
/// (lhs, rhs), so the row kernel evaluates it as lane masks. `un` covers
/// unordered float operands (a NaN alpha), for which only NOTEQUAL and
/// ALWAYS hold. Built from EvalCompare itself, so the table cannot
/// disagree with the interpreter.
struct CompareTable {
  explicit CompareTable(CompareOp op = CompareOp::kAlways)
      : lt(EvalCompare(op, 0, 1)),
        eq(EvalCompare(op, 0, 0)),
        gt(EvalCompare(op, 1, 0)),
        un(EvalCompare(op, std::numeric_limits<float>::quiet_NaN(), 0.0f)) {}
  uint8_t lt, eq, gt, un;
};

/// One bound unit of a dot-product pass: its texels, its channel count
/// and the weights of its channels.
struct DotUnit {
  const float* texels = nullptr;
  int channels = 0;
  std::array<float, 4> weights = {};
};

/// One quad pass, resolved once from the render state and the bound
/// program into what its fragments can vary on: the depth source (the
/// constant quad depth, or CopyToDepth's affine texel fetch), the alpha
/// source (constant 1.0, TestBit's fetched bit, or Semilinear's dot
/// product and KILL), the tests as truth tables (ALWAYS when off), the
/// stencil ops and the write set (read from `rs` by the kernel). Bands
/// share it read-only.
struct PassShape {
  PassShape(const RenderState& state, const FrameBuffer& fb,
            const BatchedForm& batched,
            const std::array<const Texture*, 4>& units, float quad_depth,
            bool profiled)
      : rs(state),
        form(batched),
        quad_depth_q(fb.Quantize(quad_depth)),
        depth_max(fb.depth_max()),
        const_alive(!rs.alpha_test_enabled ||
                    EvalCompare(rs.alpha_func, 1.0f, rs.alpha_ref)),
        depth_stage(rs.depth_test_enabled || rs.depth_bounds_test_enabled),
        profile(profiled) {
    if (rs.alpha_test_enabled) alpha_cmp = CompareTable(rs.alpha_func);
    if (rs.depth_test_enabled) depth_cmp = CompareTable(rs.depth_func);
    stencil_cmp = CompareTable(rs.stencil_func);
    if (form.kind == BatchedForm::Kind::kDepthCopy ||
        form.kind == BatchedForm::Kind::kTestBit) {
      texels = units[0]->data().data() + form.channel;
      texel_stride = static_cast<uint64_t>(units[0]->channels());
    }
    for (int u = 0; u < form.dot_units; ++u) {
      const Texture* tex = units[static_cast<size_t>(u)];
      if (tex == nullptr) continue;
      DotUnit& d = dot[static_cast<size_t>(dot_count++)];
      d.texels = tex->data().data();
      d.channels = tex->channels();
      std::copy_n(form.weights.begin() + 4 * u, 4, d.weights.begin());
    }
  }

  RenderState rs;
  BatchedForm form;  // kNone here: no program, the fixed-function quad
  uint32_t quad_depth_q;
  uint32_t depth_max;
  bool const_alive;  // the alpha verdict for a constant alpha of 1.0
  bool depth_stage;  // reads the stored depth (depth or bounds test on)
  bool profile;      // count the kill ledger too
  CompareTable alpha_cmp;
  CompareTable depth_cmp;
  CompareTable stencil_cmp;
  const float* texels = nullptr;  // tex0 data + the program's channel
  uint64_t texel_stride = 0;
  std::array<DotUnit, 2> dot;  // the dot product's bound units, in order
  int dot_count = 0;
};

/// A band's counters from the sixteen-wide lane, folded into its
/// PassRecord at band end. `alive` (past KILL and the alpha test) and
/// `stencil_ok` (of those, past the stencil test) feed the kill ledger and
/// are counted on profiled passes only.
struct KernelOut {
  uint64_t fragments = 0;
  uint64_t alive = 0;
  uint64_t stencil_ok = 0;
  uint64_t passed = 0;
  uint64_t depth_writes = 0;
  uint64_t stencil_updates = 0;

  void FoldInto(bool stencil_tested, bool profile, PassRecord* pass,
                uint64_t* occlusion) const {
    pass->fragments += fragments;
    pass->fragments_passed += passed;
    pass->depth_writes += depth_writes;
    pass->stencil_updates += stencil_updates;
    if (profile) {
      pass->prof.alpha_killed += fragments - alive;
      if (stencil_tested) pass->prof.stencil_killed += alive - stencil_ok;
    }
    if (occlusion != nullptr) *occlusion += passed;
  }
};

struct AlphaVerdict {
  bool alive;                  // survived the KILL and the alpha test
  std::array<float, 4> color;  // the fragment's output color
};

#if defined(__SSE2__)
/// A float lane mask: all ones when `on`, else all zeros.
__m128 LaneMask(bool on) {
  return _mm_castsi128_ps(_mm_set1_epi32(on ? -1 : 0));
}

/// EvalCompare(op, x, r) on four lanes, from op's truth table; a NaN on
/// either side takes the unordered row.
__m128 CompareLanes(const CompareTable& cmp, __m128 x, __m128 r) {
  return _mm_or_ps(
      _mm_or_ps(_mm_and_ps(_mm_cmplt_ps(x, r), LaneMask(cmp.lt)),
                _mm_and_ps(_mm_cmpeq_ps(x, r), LaneMask(cmp.eq))),
      _mm_or_ps(_mm_and_ps(_mm_cmpgt_ps(x, r), LaneMask(cmp.gt)),
                _mm_and_ps(_mm_cmpunord_ps(x, r), LaneMask(cmp.un))));
}
#endif

// The depth and alpha sources, one fragment at a time (operator()) and,
// for the SSE2 lane, four at a time (Lanes: depth codes as uint32 lanes,
// alpha verdicts as all-ones lanes).

/// Constant depth source: the quad's quantized depth.
struct ConstDepth {
  uint32_t q;
  uint32_t operator()(uint64_t /*i*/) const { return q; }
#if defined(__SSE2__)
  __m128i Lanes(uint64_t /*i*/) const {
    return _mm_set1_epi32(static_cast<int>(q));
  }
#endif
};

/// Texel depth source: CopyToDepthProgram::Execute + FrameBuffer::Quantize
/// -- fetch, normalize in double, round once to float32, quantize.
struct TexelDepth {
  const float* texels;
  uint64_t stride;
  double scale;
  double offset;
  uint32_t depth_max;
  uint32_t operator()(uint64_t i) const {
    const float v = texels[i * stride];
    const auto d =
        static_cast<float>((static_cast<double>(v) - offset) * scale);
    if (!(d > 0.0f)) return 0;
    if (d >= 1.0f) return depth_max;
    return static_cast<uint32_t>(static_cast<double>(d) * depth_max + 0.5);
  }
#if defined(__SSE2__)
  __m128i Lanes(uint64_t i) const {
    const float* t = texels + i * stride;
    const __m128 v = _mm_setr_ps(t[0], t[stride], t[2 * stride], t[3 * stride]);
    const __m128d off = _mm_set1_pd(offset);
    const __m128d sc = _mm_set1_pd(scale);
    const __m128 d = _mm_movelh_ps(
        _mm_cvtpd_ps(_mm_mul_pd(_mm_sub_pd(_mm_cvtps_pd(v), off), sc)),
        _mm_cvtpd_ps(_mm_mul_pd(
            _mm_sub_pd(_mm_cvtps_pd(_mm_movehl_ps(v, v)), off), sc)));
    const __m128d mx = _mm_set1_pd(depth_max);
    const __m128d half = _mm_set1_pd(0.5);
    const __m128i q = _mm_unpacklo_epi64(
        _mm_cvttpd_epi32(_mm_add_pd(_mm_mul_pd(_mm_cvtps_pd(d), mx), half)),
        _mm_cvttpd_epi32(_mm_add_pd(
            _mm_mul_pd(_mm_cvtps_pd(_mm_movehl_ps(d, d)), mx), half)));
    // Lanes at or below 0, and NaN, quantize to 0; lanes at or above 1 to
    // depth_max.
    const __m128i top = _mm_castps_si128(_mm_cmpge_ps(d, _mm_set1_ps(1.0f)));
    const __m128i in = _mm_castps_si128(_mm_cmpgt_ps(d, _mm_setzero_ps()));
    return _mm_or_si128(
        _mm_and_si128(top, _mm_set1_epi32(static_cast<int>(depth_max))),
        _mm_andnot_si128(top, _mm_and_si128(in, q)));
  }
#endif
};

/// Constant alpha source: 1.0, with the alpha test resolved once per pass.
struct ConstAlpha {
  bool alive;
  AlphaVerdict operator()(uint64_t /*i*/) const {
    return {alive, {0.0f, 0.0f, 0.0f, 1.0f}};
  }
#if defined(__SSE2__)
  __m128i Lanes(uint64_t /*i*/) const { return _mm_set1_epi32(-alive); }
#endif
};

/// TestBit alpha source: TestBitProgram::Execute's frac(v / 2^(bit+1)),
/// TestBitKillProgram's KILL below 0.5, then the alpha test.
struct TestBitAlpha {
  const float* texels;
  uint64_t stride;
  float bit_scale;  // exactly 2^-(bit+1)
  bool kill;
  CompareOp func;
  float ref;
  CompareTable cmp;
  AlphaVerdict operator()(uint64_t i) const {
    const float scaled = texels[i * stride] * bit_scale;
    const float frac = scaled - FloorF32(scaled);
    return {(!kill || !(frac < 0.5f)) && EvalCompare(func, frac, ref),
            {0.0f, 0.0f, 0.0f, frac}};
  }
#if defined(__SSE2__)
  __m128i Lanes(uint64_t i) const {
    const float* t = texels + i * stride;
    const __m128 scaled =
        _mm_mul_ps(_mm_setr_ps(t[0], t[stride], t[2 * stride], t[3 * stride]),
                   _mm_set1_ps(bit_scale));
    // FloorF32, lane by lane.
    const __m128 small = _mm_cmplt_ps(
        _mm_and_ps(scaled, _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff))),
        _mm_set1_ps(8388608.0f));
    const __m128 xs = _mm_and_ps(scaled, small);
    const __m128 tr = _mm_cvtepi32_ps(_mm_cvttps_epi32(xs));
    const __m128 f =
        _mm_sub_ps(tr, _mm_and_ps(_mm_cmpgt_ps(tr, xs), _mm_set1_ps(1.0f)));
    const __m128 use_f =
        _mm_and_ps(small, _mm_cmpneq_ps(scaled, _mm_setzero_ps()));
    const __m128 frac = _mm_sub_ps(
        scaled, _mm_or_ps(_mm_and_ps(use_f, f), _mm_andnot_ps(use_f, scaled)));
    const __m128 kept = _mm_or_ps(_mm_cmpnlt_ps(frac, _mm_set1_ps(0.5f)),
                                  LaneMask(!kill));
    return _mm_castps_si128(
        _mm_and_ps(kept, CompareLanes(cmp, frac, _mm_set1_ps(ref))));
  }
#endif
};

/// Dot-product alpha source: SemilinearProgram::Execute and
/// WideSemilinearProgram::Execute. In float32 from 0.0f, dot += w * texel
/// over every channel of each bound unit in order, zero weights included
/// (0 * inf is NaN) and each product rounded before its add; then the KILL
/// where `dot op b` fails. Survivors' alpha is 1.0, so the alpha test is
/// the pass constant `alive`.
struct DotAlpha {
  std::array<DotUnit, 2> units;
  int count;
  CompareOp op;
  float b;
  CompareTable cmp;
  bool alive;
  AlphaVerdict operator()(uint64_t i) const {
    float dot = 0.0f;
    for (int u = 0; u < count; ++u) {
      const DotUnit& d = units[static_cast<size_t>(u)];
      const float* t = d.texels + i * static_cast<uint64_t>(d.channels);
      for (int c = 0; c < d.channels; ++c) {
        dot += d.weights[static_cast<size_t>(c)] * t[c];
      }
    }
    return {alive && EvalCompare(op, dot, b), {dot, 0.0f, 0.0f, 1.0f}};
  }
#if defined(__SSE2__)
  __m128i Lanes(uint64_t i) const {
    __m128 dot = _mm_setzero_ps();
    for (int u = 0; u < count; ++u) {
      const DotUnit& d = units[static_cast<size_t>(u)];
      __m128 ch[4];
      LoadChannels(d.texels + i * static_cast<uint64_t>(d.channels),
                   d.channels, ch);
      for (int c = 0; c < d.channels; ++c) {
        dot = _mm_add_ps(
            dot, _mm_mul_ps(_mm_set1_ps(d.weights[static_cast<size_t>(c)]),
                            ch[c]));
      }
    }
    return _mm_castps_si128(
        _mm_and_ps(LaneMask(alive), CompareLanes(cmp, dot, _mm_set1_ps(b))));
  }

  /// Texels t[0..3] of a `channels`-channel texture, de-interleaved into
  /// one vector per channel.
  static void LoadChannels(const float* t, int channels, __m128* ch) {
    switch (channels) {
      case 1:
        ch[0] = _mm_loadu_ps(t);
        return;
      case 2: {
        const __m128 lo = _mm_loadu_ps(t);
        const __m128 hi = _mm_loadu_ps(t + 4);
        ch[0] = _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
        ch[1] = _mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
        return;
      }
      case 4:
        for (int c = 0; c < 4; ++c) ch[c] = _mm_loadu_ps(t + 4 * c);
        _MM_TRANSPOSE4_PS(ch[0], ch[1], ch[2], ch[3]);
        return;
      default:
        for (int c = 0; c < channels; ++c) {
          ch[c] = _mm_setr_ps(t[c], t[channels + c], t[2 * channels + c],
                              t[3 * channels + c]);
        }
        return;
    }
  }
#endif
};

#if defined(__SSE2__)
/// Packs four 32-bit lane masks into one sixteen-byte mask; saturating
/// packs map 0 / -1 lanes onto 0 / -1 bytes exactly.
__m128i PackMasks(const __m128i* m) {
  return _mm_packs_epi16(_mm_packs_epi32(m[0], m[1]),
                         _mm_packs_epi32(m[2], m[3]));
}

/// The stencil test on sixteen stored bytes as a byte mask -- GL's
/// (ref & mask) FUNC (stored & mask), from the func's truth table. For the
/// bit sweep, which stores nothing; ShapeRowKernel keeps the same compare
/// in plain locals, which its stencil stores cannot alias.
struct StencilLanes {
  StencilLanes(const RenderState& rs, const CompareTable& cmp)
      : ref(Set(rs.stencil_ref & rs.stencil_value_mask)),
        ref_b(_mm_xor_si128(ref, Set(0x80))),
        vmask(Set(rs.stencil_value_mask)),
        lt(Set(-cmp.lt)),
        eq(Set(-cmp.eq)),
        gt(Set(-cmp.gt)) {}

  __m128i Pass(__m128i stored) const {
    // Unsigned byte compares as signed ones on sign-flipped bytes.
    const __m128i val = _mm_and_si128(stored, vmask);
    const __m128i val_b = _mm_xor_si128(val, Set(0x80));
    return _mm_or_si128(
        _mm_or_si128(_mm_and_si128(_mm_cmpgt_epi8(val_b, ref_b), lt),
                     _mm_and_si128(_mm_cmpeq_epi8(ref, val), eq)),
        _mm_and_si128(_mm_cmpgt_epi8(ref_b, val_b), gt));
  }

  static __m128i Set(int v) { return _mm_set1_epi8(static_cast<char>(v)); }

  __m128i ref, ref_b, vmask, lt, eq, gt;
};

/// The row kernel: TestFragment's test chain and writes, sixteen
/// fragments per step over columns [rect.x0, rect.x1) (a multiple of 16
/// wide) of rows [y_begin, y_end), with the depth from `depth_q_of` and
/// the alpha verdict from `alpha_of`. Test outcomes are lane masks, so the
/// 40-60% selectivities of the paper's queries cost no mispredicted
/// branches, and the stencil ops run as byte arithmetic.
template <typename DepthFn, typename AlphaFn>
void ShapeRowKernel(const PassShape& s, FrameBuffer* fb,
                    const ScissorRect& rect, uint32_t y_begin, uint32_t y_end,
                    DepthFn depth_q_of, AlphaFn alpha_of, KernelOut* out) {
  // Everything the loop reads lives in locals: a stencil store may alias
  // any object, so values read through `s` would be reloaded after it.
  const RenderState& rs = s.rs;
  const bool depth_stage = s.depth_stage;
  const bool bounds_test = rs.depth_bounds_test_enabled;
  const bool stencil_test = rs.stencil_test_enabled;
  const bool write_depth = rs.depth_test_enabled && rs.depth_write_mask;
  const bool write_color = rs.color_write_mask;
  const bool profile = s.profile;
  const StencilOp fail_op = rs.stencil_fail_op;
  const StencilOp zfail_op = rs.stencil_zfail_op;
  const StencilOp zpass_op = rs.stencil_zpass_op;
  const uint32_t w = fb->width();
  uint32_t* const depth = fb->depth_data();
  uint8_t* const stencil = fb->stencil_data();
  float* const color = fb->color_data();

  const auto mask32 = [](uint8_t on) { return _mm_set1_epi32(-on); };
  const auto mask8 = [](uint8_t on) {
    return _mm_set1_epi8(static_cast<char>(-on));
  };
  const auto set8 = [](uint8_t v) {
    return _mm_set1_epi8(static_cast<char>(v));
  };
  // Unsigned compares as signed ones on sign-flipped lanes.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i d_lt = mask32(s.depth_cmp.lt);
  const __m128i d_eq = mask32(s.depth_cmp.eq);
  const __m128i d_gt = mask32(s.depth_cmp.gt);
  const __m128i bmin = _mm_xor_si128(
      _mm_set1_epi32(static_cast<int>(rs.depth_bounds_min)), bias);
  const __m128i bmax = _mm_xor_si128(
      _mm_set1_epi32(static_cast<int>(rs.depth_bounds_max)), bias);
  const __m128i flip8 = set8(0x80);
  const __m128i ref = set8(rs.stencil_ref & rs.stencil_value_mask);
  const __m128i ref_b = _mm_xor_si128(ref, flip8);
  const __m128i raw_ref = set8(rs.stencil_ref);
  const __m128i vmask = set8(rs.stencil_value_mask);
  const __m128i wmask = set8(rs.stencil_write_mask);
  const __m128i s_lt = mask8(s.stencil_cmp.lt);
  const __m128i s_eq = mask8(s.stencil_cmp.eq);
  const __m128i s_gt = mask8(s.stencil_cmp.gt);
  const __m128i one8 = set8(1);
  const __m128i ones = _mm_set1_epi32(-1);
  const auto select = [](__m128i m, __m128i a, __m128i b) {
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
  };
  // ApplyStencilOp on sixteen bytes, merged under the write mask.
  const auto apply = [&](StencilOp op, __m128i stored) {
    __m128i r = stored;
    switch (op) {
      case StencilOp::kKeep:
        return stored;
      case StencilOp::kZero:
        r = _mm_setzero_si128();
        break;
      case StencilOp::kReplace:
        r = raw_ref;
        break;
      case StencilOp::kIncr:
        r = _mm_adds_epu8(stored, one8);
        break;
      case StencilOp::kDecr:
        r = _mm_subs_epu8(stored, one8);
        break;
      case StencilOp::kInvert:
        r = _mm_xor_si128(stored, ones);
        break;
    }
    return select(wmask, r, stored);
  };
  const auto keeps = [&](StencilOp op) {
    return op == StencilOp::kKeep || rs.stencil_write_mask == 0;
  };
  const bool fail_keeps = keeps(fail_op);
  const bool zfail_keeps = keeps(zfail_op);
  // Byte-mask counts accumulate as two 64-bit lane sums (psadbw), which
  // baseline x86-64 does without a popcount instruction.
  const auto count = [one8](__m128i* acc, __m128i m) {
    *acc = _mm_add_epi64(
        *acc, _mm_sad_epu8(_mm_and_si128(m, one8), _mm_setzero_si128()));
  };
  __m128i alive_n = _mm_setzero_si128();
  __m128i stencil_ok = _mm_setzero_si128();
  __m128i passed = _mm_setzero_si128();
  __m128i unchanged = _mm_setzero_si128();  // stencil bytes left as they were
  uint64_t stencil_bytes = 0;

  for (uint32_t y = y_begin; y < y_end; ++y) {
    uint64_t i = uint64_t{y} * w + rect.x0;
    for (uint32_t x = rect.x0; x < rect.x1; x += 16, i += 16) {
      __m128i alive32[4];
      __m128i q32[4] = {};
      __m128i dp32[4];
#pragma GCC unroll 4
      for (int g = 0; g < 4; ++g) {
        alive32[g] = alpha_of.Lanes(i + 4 * g);
        dp32[g] = ones;
        if (!depth_stage) continue;
        q32[g] = depth_q_of.Lanes(i + 4 * g);
        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(depth + i) + g);
        const __m128i db = _mm_xor_si128(d, bias);
        const __m128i qb = _mm_xor_si128(q32[g], bias);
        dp32[g] = _mm_or_si128(
            _mm_or_si128(_mm_and_si128(_mm_cmpgt_epi32(db, qb), d_lt),
                         _mm_and_si128(_mm_cmpeq_epi32(q32[g], d), d_eq)),
            _mm_and_si128(_mm_cmpgt_epi32(qb, db), d_gt));
        if (bounds_test) {
          dp32[g] = _mm_andnot_si128(
              _mm_or_si128(_mm_cmpgt_epi32(bmin, db), _mm_cmpgt_epi32(db, bmax)),
              dp32[g]);
        }
      }
      const __m128i alive = PackMasks(alive32);
      const __m128i dp = PackMasks(dp32);
      __m128i pass = _mm_and_si128(alive, dp);
      if (profile) count(&alive_n, alive);
      if (stencil_test) {
        const __m128i stored =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(stencil + i));
        const __m128i val = _mm_and_si128(stored, vmask);
        const __m128i val_b = _mm_xor_si128(val, flip8);
        const __m128i sok = _mm_or_si128(
            _mm_or_si128(_mm_and_si128(_mm_cmpgt_epi8(val_b, ref_b), s_lt),
                         _mm_and_si128(_mm_cmpeq_epi8(ref, val), s_eq)),
            _mm_and_si128(_mm_cmpgt_epi8(ref_b, val_b), s_gt));
        const __m128i reached = _mm_and_si128(alive, sok);
        if (profile) count(&stencil_ok, reached);
        pass = _mm_and_si128(pass, sok);
        __m128i next = select(pass, apply(zpass_op, stored), stored);
        if (!fail_keeps) {
          next = select(_mm_andnot_si128(sok, alive), apply(fail_op, stored),
                        next);
        }
        if (!zfail_keeps) {
          next = select(_mm_andnot_si128(dp, reached),
                        apply(zfail_op, stored), next);
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(stencil + i), next);
        count(&unchanged, _mm_cmpeq_epi8(next, stored));
        stencil_bytes += 16;
      }
      count(&passed, pass);
      const int pass_bits = _mm_movemask_epi8(pass);
      if (pass_bits == 0) continue;
      if (write_depth) {
        // Widen the byte verdicts back to 32-bit lanes; store q where the
        // fragment passed.
        const __m128i lo = _mm_unpacklo_epi8(pass, pass);
        const __m128i hi = _mm_unpackhi_epi8(pass, pass);
        const __m128i wide[4] = {
            _mm_unpacklo_epi16(lo, lo), _mm_unpackhi_epi16(lo, lo),
            _mm_unpacklo_epi16(hi, hi), _mm_unpackhi_epi16(hi, hi)};
#pragma GCC unroll 4
        for (int g = 0; g < 4; ++g) {
          __m128i* const p = reinterpret_cast<__m128i*>(depth + i) + g;
          _mm_storeu_si128(p, select(wide[g], q32[g], _mm_loadu_si128(p)));
        }
      }
      for (int j = 0; write_color && j < 16; ++j) {
        if (((pass_bits >> j) & 1) == 0) continue;
        const std::array<float, 4> rgba = alpha_of(i + j).color;
        std::copy(rgba.begin(), rgba.end(), color + (i + j) * 4);
      }
    }
  }
  const auto total = [](__m128i acc) {
    return static_cast<uint64_t>(_mm_cvtsi128_si64(acc)) +
           static_cast<uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
  };
  out->fragments += uint64_t{y_end - y_begin} * (rect.x1 - rect.x0);
  out->alive += total(alive_n);
  out->stencil_ok += total(stencil_ok);
  out->passed += total(passed);
  if (write_depth) out->depth_writes += total(passed);
  out->stencil_updates += stencil_bytes - total(unchanged);
}
#endif  // defined(__SSE2__)

/// Runs rows [y_begin, y_end) of `rect` over one source pair: the row
/// kernel over the sixteen-aligned columns, then `test(i, q, verdict)` --
/// the interpreter's test stages -- one fragment at a time over the rest.
template <typename DepthFn, typename AlphaFn, typename TestFn>
void RunSourceRows(const PassShape& s, FrameBuffer* fb, ScissorRect rect,
                   uint32_t y_begin, uint32_t y_end, DepthFn depth_q_of,
                   AlphaFn alpha_of, KernelOut* out, TestFn test) {
#if defined(__SSE2__)
  const uint32_t split = rect.x0 + (rect.x1 - rect.x0) / 16 * 16;
  if (split > rect.x0) {
    ShapeRowKernel(s, fb, {rect.x0, rect.y0, split, rect.y1}, y_begin, y_end,
                   depth_q_of, alpha_of, out);
  }
  rect.x0 = split;
#else
  (void)s;
  (void)out;
#endif
  for (uint32_t y = y_begin; y < y_end; ++y) {
    for (uint32_t x = rect.x0; x < rect.x1; ++x) {
      const uint64_t i = uint64_t{y} * fb->width() + x;
      test(i, depth_q_of(i), alpha_of(i));
    }
  }
}

/// Runs rows [y_begin, y_end) of `rect` for a resolved pass shape. Forced
/// inline into the band: out of line, the call costs a small pass ~5%.
template <typename TestFn>
GPUDB_ALWAYS_INLINE void RunShapeRows(const PassShape& s, FrameBuffer* fb, const ScissorRect& rect,
                  uint32_t y_begin, uint32_t y_end, KernelOut* out,
                  TestFn test) {
  const ConstDepth quad_depth{s.quad_depth_q};
  const ConstAlpha const_alpha{s.const_alive};
  switch (s.form.kind) {
    case BatchedForm::Kind::kNone:
      RunSourceRows(s, fb, rect, y_begin, y_end, quad_depth, const_alpha, out,
                    test);
      break;
    case BatchedForm::Kind::kDepthCopy:
      RunSourceRows(s, fb, rect, y_begin, y_end,
                    TexelDepth{s.texels, s.texel_stride, s.form.scale,
                               s.form.offset, s.depth_max},
                    const_alpha, out, test);
      break;
    case BatchedForm::Kind::kTestBit:
      // TestBitProgram::Execute divides by exp2f(bit + 1), an exact power
      // of two; multiplying by its exact reciprocal rounds the same real
      // quotient the same way, for every float input.
      RunSourceRows(
          s, fb, rect, y_begin, y_end, quad_depth,
          TestBitAlpha{s.texels, s.texel_stride,
                       1.0f / std::exp2f(static_cast<float>(s.form.bit + 1)),
                       s.form.kill,
                       s.rs.alpha_test_enabled ? s.rs.alpha_func
                                               : CompareOp::kAlways,
                       s.rs.alpha_ref, s.alpha_cmp},
          out, test);
      break;
    case BatchedForm::Kind::kDot:
      RunSourceRows(s, fb, rect, y_begin, y_end, quad_depth,
                    DotAlpha{s.dot, s.dot_count, s.form.op, s.form.b,
                             CompareTable(s.form.op), s.const_alive},
                    out, test);
      break;
  }
}

/// The most bits one sweep tallies: Accumulate's ceiling, and the widest
/// bit Int32Exact's argument covers.
constexpr int kMaxSweepBits = 24;

/// A bit sweep resolved once: the texel channel, TestBit pass b's alpha
/// source for each bit (the float path of a lane that is not int32-exact)
/// and the stencil test. Bands share it read-only.
struct BitSweepShape {
  BitSweepShape(const RenderState& state, const Texture& tex, int channel,
                int bit_width, bool kill, bool tally_alive)
      : rs(state),
        texels(tex.data().data() + channel),
        stride(static_cast<uint64_t>(tex.channels())),
        bits(bit_width),
        stencil_cmp(rs.stencil_func),
        count_alive(tally_alive && rs.stencil_test_enabled) {
    const CompareOp func =
        rs.alpha_test_enabled ? rs.alpha_func : CompareOp::kAlways;
    for (int b = 0; b < bits; ++b) {
      // The exact reciprocal of TestBitProgram's exp2f(b + 1), as in
      // RunShapeRows.
      bit_alpha[static_cast<size_t>(b)] = TestBitAlpha{
          texels, stride, 1.0f / std::exp2f(static_cast<float>(b + 1)), kill,
          func, rs.alpha_ref, CompareTable(func)};
    }
  }

  RenderState rs;
  const float* texels;
  uint64_t stride;
  int bits;
  std::array<TestBitAlpha, kMaxSweepBits> bit_alpha;
  CompareTable stencil_cmp;
  /// Tally `alive` apart from `passed`: only a profiled pass with the
  /// stencil test on needs it (with the test off the two are equal).
  bool count_alive;
};

/// One band's tallies, per bit.
struct BitTally {
  uint64_t fragments = 0;
  /// Survived the KILL and the alpha test; counted only with count_alive.
  std::array<uint64_t, kMaxSweepBits> alive{};
  /// Of those, survived the stencil test: the occlusion count.
  std::array<uint64_t, kMaxSweepBits> passed{};
};

/// Texel i's verdict word: bit b is set when TestBit pass b keeps the
/// fragment alive. An int32-exact texel's word is int(v) itself; any
/// other texel takes TestBitAlpha's float path, bit by bit.
uint32_t BitSweepWord(const BitSweepShape& s, uint64_t i) {
  int32_t n;
  if (Int32Exact(s.texels[i * s.stride], &n)) return static_cast<uint32_t>(n);
  uint32_t word = 0;
  for (int b = 0; b < s.bits; ++b) {
    word |= uint32_t{s.bit_alpha[static_cast<size_t>(b)](i).alive} << b;
  }
  return word;
}

#if defined(__SSE2__)
/// The bit sweep's row kernel: sixteen fragments per step over columns
/// [rect.x0, rect.x1) (a multiple of 16 wide) of rows [y_begin, y_end).
/// Each texel and stencil byte is read once. A lane's word comes straight
/// from cvttps2dq when the texel survives the int32 round trip, else from
/// BitSweepWord; the words split into byte planes, and bit b's verdicts
/// (ANDed with the stencil mask for `passed`) add into byte counters that
/// psadbw flushes into 64-bit sums before they can wrap.
void BitSweepRowKernel(const BitSweepShape& s, const uint8_t* stencil,
                       uint32_t width, const ScissorRect& rect,
                       uint32_t y_begin, uint32_t y_end, BitTally* out) {
  const float* const texels = s.texels;
  const uint64_t stride = s.stride;
  const int planes = (s.bits + 7) / 8;
  const bool stencil_test = s.rs.stencil_test_enabled;
  const bool count_alive = s.count_alive;
  const StencilLanes stencil_lanes(s.rs, s.stencil_cmp);
  const __m128i zero = _mm_setzero_si128();
  const __m128i one8 = _mm_set1_epi8(1);
  const __m128i low_byte = _mm_set1_epi32(0xff);
  const __m128i all = _mm_set1_epi32(-1);
  __m128i passed8[kMaxSweepBits];
  __m128i alive8[kMaxSweepBits];
  __m128i passed64[kMaxSweepBits];
  __m128i alive64[kMaxSweepBits];
  for (int b = 0; b < kMaxSweepBits; ++b) {
    passed8[b] = alive8[b] = passed64[b] = alive64[b] = zero;
  }
  const auto flush = [&] {
    for (int b = 0; b < planes * 8; ++b) {
      passed64[b] = _mm_add_epi64(passed64[b], _mm_sad_epu8(passed8[b], zero));
      passed8[b] = zero;
      if (!count_alive) continue;
      alive64[b] = _mm_add_epi64(alive64[b], _mm_sad_epu8(alive8[b], zero));
      alive8[b] = zero;
    }
  };
  // Bit j of each byte of `v` added into counters[0..7]; srli_epi16
  // shifts the high byte's bits into the low byte's top, which the
  // low-bit mask never reaches within eight steps.
  const auto tally = [one8](__m128i v, __m128i* counters) {
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) {
      counters[j] = _mm_add_epi8(counters[j], _mm_and_si128(v, one8));
      v = _mm_srli_epi16(v, 1);
    }
  };
  int steps = 0;  // since the last flush; a byte counter holds 255

  for (uint32_t y = y_begin; y < y_end; ++y) {
    uint64_t i = uint64_t{y} * width + rect.x0;
    for (uint32_t x = rect.x0; x < rect.x1; x += 16, i += 16) {
      __m128i word[4];
      __m128i exact[4];
#pragma GCC unroll 4
      for (int g = 0; g < 4; ++g) {
        const float* t = texels + (i + 4 * g) * stride;
        const __m128 v =
            _mm_setr_ps(t[0], t[stride], t[2 * stride], t[3 * stride]);
        word[g] = _mm_cvttps_epi32(v);
        exact[g] = _mm_castps_si128(_mm_cmpeq_ps(_mm_cvtepi32_ps(word[g]), v));
      }
      const int exact_bits = _mm_movemask_epi8(PackMasks(exact));
      if (exact_bits != 0xffff) {
        alignas(16) uint32_t lanes[16];
        for (int g = 0; g < 4; ++g) {
          _mm_store_si128(reinterpret_cast<__m128i*>(lanes) + g, word[g]);
        }
        for (int j = 0; j < 16; ++j) {
          if (((exact_bits >> j) & 1) == 0) lanes[j] = BitSweepWord(s, i + j);
        }
        for (int g = 0; g < 4; ++g) {
          word[g] = _mm_load_si128(reinterpret_cast<const __m128i*>(lanes) + g);
        }
      }
      const __m128i sel =
          stencil_test
              ? stencil_lanes.Pass(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(stencil + i)))
              : all;
      for (int k = 0; k < planes; ++k) {
        const __m128i shift = _mm_cvtsi32_si128(8 * k);
        __m128i bytes32[4];
        for (int g = 0; g < 4; ++g) {
          bytes32[g] = _mm_and_si128(_mm_srl_epi32(word[g], shift), low_byte);
        }
        const __m128i plane =
            _mm_packus_epi16(_mm_packs_epi32(bytes32[0], bytes32[1]),
                             _mm_packs_epi32(bytes32[2], bytes32[3]));
        tally(_mm_and_si128(plane, sel), passed8 + 8 * k);
        if (count_alive) tally(plane, alive8 + 8 * k);
      }
      if (++steps == 255) {
        flush();
        steps = 0;
      }
    }
  }
  flush();
  const auto total = [](__m128i acc) {
    return static_cast<uint64_t>(_mm_cvtsi128_si64(acc)) +
           static_cast<uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
  };
  out->fragments += uint64_t{y_end - y_begin} * (rect.x1 - rect.x0);
  for (int b = 0; b < s.bits; ++b) {
    out->passed[static_cast<size_t>(b)] += total(passed64[b]);
    if (count_alive) out->alive[static_cast<size_t>(b)] += total(alive64[b]);
  }
}
#endif  // defined(__SSE2__)

/// Runs rows [y_begin, y_end) of `rect` through the bit sweep: the row
/// kernel over the sixteen-aligned columns, then one fragment at a time,
/// with TestFragment's stencil compare, over the rest.
void BitSweepRows(const BitSweepShape& s, const uint8_t* stencil,
                  uint32_t width, ScissorRect rect, uint32_t y_begin,
                  uint32_t y_end, BitTally* out) {
#if defined(__SSE2__)
  const uint32_t split = rect.x0 + (rect.x1 - rect.x0) / 16 * 16;
  if (split > rect.x0) {
    BitSweepRowKernel(s, stencil, width, {rect.x0, rect.y0, split, rect.y1},
                      y_begin, y_end, out);
  }
  rect.x0 = split;
#endif
  const RenderState& rs = s.rs;
  const auto ref = static_cast<uint8_t>(rs.stencil_ref & rs.stencil_value_mask);
  for (uint32_t y = y_begin; y < y_end; ++y) {
    for (uint32_t x = rect.x0; x < rect.x1; ++x) {
      const uint64_t i = uint64_t{y} * width + x;
      const uint32_t word = BitSweepWord(s, i);
      const bool sok =
          !rs.stencil_test_enabled ||
          EvalCompare(rs.stencil_func, ref,
                      static_cast<uint8_t>(stencil[i] & rs.stencil_value_mask));
      ++out->fragments;
      for (int b = 0; b < s.bits; ++b) {
        const uint32_t bit = (word >> b) & 1;
        if (s.count_alive) out->alive[static_cast<size_t>(b)] += bit;
        if (sok) out->passed[static_cast<size_t>(b)] += bit;
      }
    }
  }
}

}  // namespace

void Device::ApplyPlaneTrafficModel(PassRecord* pass) const {
  // Bandwidth model for a tested pass (DESIGN.md §13): the stencil unit
  // reads 1 byte for every fragment that reaches it (all fragments past the
  // alpha stage), the depth unit reads the 4-byte stored depth for bounds
  // and compare, updates write back at plane width, and a passing fragment
  // with the color mask open writes 4 float32 channels.
  const RenderState& rs = state_;
  PassProfile& p = pass->prof;
  const uint64_t after_alpha = pass->fragments - p.alpha_killed;
  const uint64_t depth_tested = after_alpha - p.stencil_killed;
  uint64_t reads = 0;
  if (rs.stencil_test_enabled) reads += after_alpha;
  if (rs.depth_bounds_test_enabled || rs.depth_test_enabled) {
    reads += depth_tested * 4;
  }
  uint64_t writes = pass->stencil_updates + pass->depth_writes * 4;
  if (rs.color_write_mask) writes += pass->fragments_passed * 16;
  p.plane_bytes_read = reads;
  p.plane_bytes_written = writes;
}

Status Device::FinishPass(PassRecord pass) {
  if (pass.profiled) {
    // Close the fragment ledger: kills were counted at the test stages,
    // the rest is arithmetic. Imbalance (more kills than fragments, or
    // more survivors than depth-tested fragments) means the pipeline
    // miscounted; surface it before the unsigned subtraction wraps.
    PassProfile& p = pass.prof;
    if (p.alpha_killed + p.stencil_killed > pass.fragments ||
        pass.fragments - p.alpha_killed - p.stencil_killed <
            pass.fragments_passed) {
      return Status::Internal(
          "gpuprof fragment ledger out of balance in pass '" + pass.label +
          "'");
    }
    p.depth_tested = pass.fragments - p.alpha_killed - p.stencil_killed;
    p.depth_killed = p.depth_tested - pass.fragments_passed;
    p.occlusion_samples =
        pass.in_occlusion_query ? pass.fragments_passed : 0;
  }
  // Record-time enforcement of the PassRecord invariants: a violated
  // invariant means the simulator itself miscounted, which would silently
  // corrupt every downstream PerfModel estimate. Propagated as a Status so
  // release builds catch it too (a fired assert is invisible at -DNDEBUG).
  if (!pass.Valid()) {
    return Status::Internal(
        "PassRecord invariants violated at record time in pass '" +
        pass.label + "'");
  }
  counters_.Add(pass);
  DeviceMetrics::Get().passes.Increment();
  DeviceMetrics::Get().fragments.Add(pass.fragments);
  if (pass.profiled) {
    DeviceMetrics::Get().alpha_killed.Add(pass.prof.alpha_killed);
    DeviceMetrics::Get().stencil_killed.Add(pass.prof.stencil_killed);
    DeviceMetrics::Get().depth_killed.Add(pass.prof.depth_killed);
    DeviceMetrics::Get().plane_bytes_read.Add(pass.prof.plane_bytes_read);
    DeviceMetrics::Get().plane_bytes_written.Add(
        pass.prof.plane_bytes_written);
    Profiler::Global().RecordPass(pass.label, pass.fragments,
                                  pass.fragments_passed, pass.prof,
                                  pass.fused, pass.cache_hit);
  }
  if (Tracer::Current().enabled()) {
    // One span per rendering pass, carrying the full PassRecord. The span
    // is emitted at pass completion (zero duration on the trace timeline);
    // the nesting under the operator that issued the pass is what matters.
    TraceSpan span("pass:" + pass.label);
    span.AddTag("fragments", pass.fragments);
    span.AddTag("fragments_passed", pass.fragments_passed);
    span.AddTag("fp_instructions", pass.fp_instructions);
    span.AddTag("depth_writes", pass.depth_writes);
    span.AddTag("stencil_updates", pass.stencil_updates);
    span.AddTag("in_occlusion_query",
                pass.in_occlusion_query ? "true" : "false");
    if (pass.fused) span.AddTag("fused", "true");
    if (pass.cache_hit) span.AddTag("cache", "hit");
    if (pass.profiled) {
      span.AddTag("alpha_killed", pass.prof.alpha_killed);
      span.AddTag("stencil_killed", pass.prof.stencil_killed);
      span.AddTag("depth_tested", pass.prof.depth_tested);
      span.AddTag("depth_killed", pass.prof.depth_killed);
      span.AddTag("occlusion_samples", pass.prof.occlusion_samples);
      span.AddTag("plane_bytes_read", pass.prof.plane_bytes_read);
      span.AddTag("plane_bytes_written", pass.prof.plane_bytes_written);
    }
  }
  // Per-pass records are retained only for open scopes; with none open the
  // pass lives on as the scalar counters above and nothing else.
  for (PassLogScope* scope : pass_log_scopes_) {
    scope->records_.push_back(pass);
  }
  return Status::OK();
}

Status Device::CheckInterrupt() const {
  // The deadline is the only interrupt: work stops when its statement's
  // budget runs out, never on a request from another thread, so every
  // check reads state that only the issuing thread writes.
  if (deadline_armed_ && std::chrono::steady_clock::now() >= deadline_) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

Result<PassRecord> Device::OpenQuadPass(const FragmentProgram* program,
                                        bool textured,
                                        std::array<const Texture*, 4>* units) {
  // Consume the one-shot fused mark up front: if this pass faults before
  // recording, the operator-level retry re-issues the whole fused sequence
  // (re-marking included), so the flag must not leak onto an unrelated
  // later pass.
  const bool fused = std::exchange(next_pass_fused_, false);
  // Cooperative per-pass interrupt check plus the watchdog fault site.
  // Both happen before any fragment work, on the issuing thread, so the
  // injector's draw sequence is independent of the worker-thread count.
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  if (textured) {
    for (int u = 0; u < kTextureUnits; ++u) {
      if (bound_units_[u] < 0) continue;
      GPUDB_RETURN_NOT_OK(EnsureResident(bound_units_[u]));
      (*units)[u] = &textures_[bound_units_[u]].data;
      if ((*units)[u]->total_texels() < viewport_pixels_) {
        return Status::FailedPrecondition(
            "bound texture has fewer texels than the viewport covers");
      }
    }
  }

  PassRecord pass;
  pass.label = program != nullptr ? std::string(program->name())
                                  : std::string("fixed-function");
  pass.fp_instructions = program != nullptr ? program->instruction_count() : 0;
  pass.in_occlusion_query = occlusion_active_;
  pass.fused = fused;
  // One DeepProfiling() read per pass picks the kernel instantiation and
  // which PassRecords carry deep counters; a mid-pass toggle cannot tear.
  pass.profiled = DeepProfiling();
  return pass;
}

// Tile decomposition: the pass's rows, concatenated across rects, are split
// into `bands` contiguous, disjoint horizontal slices. Every pixel belongs to
// exactly one band and each pass touches each pixel at most once, so
// framebuffer writes are race-free by construction; per-band counters are
// reduced in fixed band order afterwards so every reduction (and therefore
// counters_, the records PassLogScopes see, and occlusion results) is
// bit-identical to serial execution. Wall-clock band time never enters a
// PassRecord: counters stay bit-stable across thread counts while timings
// feed the "gpu.band_ms" histogram and trace counter track.
template <typename Tile, typename BandFn>
std::vector<Tile> Device::RunBands(uint32_t rows, const BandFn& band,
                                   std::vector<double>* band_ms) {
  const int bands =
      std::max(1, std::min(worker_threads_, static_cast<int>(rows)));
  std::vector<Tile> tiles(static_cast<size_t>(bands));
  if (band_ms != nullptr) band_ms->assign(tiles.size(), 0.0);
  const auto run_band = [&](int b) {
    // Per-band deadline check: a band that starts after the deadline
    // passed does no work. Bands already in their fragment loop finish
    // normally; the caller's post-reduction check surfaces the error.
    if (InterruptPending()) return;
    const auto band_start = band_ms != nullptr
                                ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point();
    // Tile accumulators live on the band's stack so the optimizer can keep
    // them in registers through the fragment loop; copied into the shared
    // tile vector once at band end.
    Tile tile;
    const auto n = uint64_t{rows};
    const auto k = static_cast<uint64_t>(bands);
    band(static_cast<uint32_t>(n * static_cast<uint64_t>(b) / k),
         static_cast<uint32_t>(n * (static_cast<uint64_t>(b) + 1) / k),
         &tile);
    if (band_ms != nullptr) {
      (*band_ms)[static_cast<size_t>(b)] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - band_start)
              .count();
    }
    tiles[static_cast<size_t>(b)] = std::move(tile);
  };
  if (bands == 1) {
    run_band(0);
  } else {
    EnsurePool()->ParallelFor(bands, run_band, band_ms != nullptr);
  }
  return tiles;
}

Status Device::RenderInternal(float quad_depth, bool textured) {
  const FragmentProgram* program = textured ? program_ : nullptr;
  std::array<const Texture*, 4> units = {nullptr, nullptr, nullptr, nullptr};
  GPUDB_ASSIGN_OR_RETURN(PassRecord pass,
                         OpenQuadPass(program, textured, &units));

  // Each coverage rect is a screen-aligned quad at constant depth, so
  // rasterization takes the span fast path (RasterizeRectRows): the two
  // triangles of such a quad cover exactly the rectangle's pixels, once
  // each, with the quad depth passed through bit-exactly, and emitting the
  // runs directly skips three edge-function evaluations per fragment.
  const Coverage coverage(viewport_pixels_, fb_.width(), state_);
  struct Tile {
    PassRecord pass;
    uint64_t occlusion = 0;
  };

  // Resolve the pass once into its shape for the row kernel; a program
  // with no batched form runs on the per-fragment interpreter instead.
  const BatchedForm form =
      program != nullptr ? program->batched_form() : BatchedForm{};
  const bool interpret = program != nullptr &&
                         (form.kind == BatchedForm::Kind::kNone ||
                          units[0] == nullptr);
  const bool profiled = pass.profiled;
  const PassShape shape(state_, fb_, interpret ? BatchedForm{} : form, units,
                        quad_depth, profiled);
  const auto band = [&](uint32_t row_begin, uint32_t row_end, Tile* tile) {
    PassContext ctx;
    ctx.units = units;
    ctx.program = program;
    ctx.pass = &tile->pass;
    ctx.occlusion = occlusion_active_ ? &tile->occlusion : nullptr;
    ctx.profile = profiled;
    KernelOut kernel_out;
    coverage.ForBandRows(
        row_begin, row_end,
        [&](const ScissorRect& rect, uint32_t yb, uint32_t ye) {
          if (interpret) {
            RasterizeRectRows(rect, quad_depth, yb, ye,
                              [this, &ctx](const RasterFragment& frag) {
                                ProcessFragment(frag, &ctx);
                              });
          } else {
            RunShapeRows(shape, &fb_, rect, yb, ye, &kernel_out,
                         [this, &ctx](uint64_t i, uint32_t q, AlphaVerdict a) {
                           TestFragment(i, q, a.alive, a.color, &ctx);
                         });
          }
        });
    kernel_out.FoldInto(state_.stencil_test_enabled, profiled, &tile->pass,
                        ctx.occlusion);
  };
  std::vector<double> band_ms;
  const std::vector<Tile> tiles =
      RunBands<Tile>(coverage.rows, band, profiled ? &band_ms : nullptr);

  // An interrupt that fired mid-pass leaves partially rendered bands; the
  // pass is not recorded and the framebuffer contents are indeterminate
  // (the query is being abandoned either way).
  GPUDB_RETURN_NOT_OK(CheckInterrupt());

  for (const Tile& tile : tiles) {
    pass.fragments += tile.pass.fragments;
    pass.fragments_passed += tile.pass.fragments_passed;
    pass.depth_writes += tile.pass.depth_writes;
    pass.stencil_updates += tile.pass.stencil_updates;
    pass.prof.alpha_killed += tile.pass.prof.alpha_killed;
    pass.prof.stencil_killed += tile.pass.prof.stencil_killed;
    occlusion_count_ += tile.occlusion;
  }
  if (profiled) {
    ApplyPlaneTrafficModel(&pass);
    Profiler::Global().RecordBandTimings(band_ms);
  }

  return FinishPass(std::move(pass));
}

Result<std::vector<uint64_t>> Device::CountBitPasses(int channel,
                                                     int bit_width,
                                                     bool kill) {
  if (bit_width < 1 || bit_width > kMaxSweepBits) {
    return Status::InvalidArgument("CountBitPasses: bit_width must be in "
                                   "[1,24], got " +
                                   std::to_string(bit_width));
  }
  const RenderState& rs = state_;
  const bool stencil_keeps =
      !rs.stencil_test_enabled || rs.stencil_write_mask == 0 ||
      (rs.stencil_fail_op == StencilOp::kKeep &&
       rs.stencil_zfail_op == StencilOp::kKeep &&
       rs.stencil_zpass_op == StencilOp::kKeep);
  const bool bit_test = rs.alpha_test_enabled
                            ? rs.alpha_func == CompareOp::kGreaterEqual &&
                                  rs.alpha_ref == 0.5f
                            : kill;
  if (rs.color_write_mask || rs.depth_test_enabled ||
      rs.depth_bounds_test_enabled || !stencil_keeps || !bit_test) {
    return Status::FailedPrecondition(
        "CountBitPasses needs write-free TestBit passes: no color write, no "
        "depth or depth-bounds test, KEEP stencil ops, and the alpha test "
        "GEQUAL 0.5 (or off, with KILL)");
  }
  if (bound_units_[0] >= 0 &&
      (channel < 0 || channel >= textures_[bound_units_[0]].data.channels())) {
    return Status::InvalidArgument("CountBitPasses: texture has no channel " +
                                   std::to_string(channel));
  }

  // The sweep runs once, after the first pass's issue checks succeed, and
  // again only if a later pass is profiled where the first was not and
  // needs the alive tallies.
  const auto counts_size = static_cast<size_t>(bit_width);
  BitTally sweep;
  bool swept = false;
  bool have_alive = false;
  std::vector<double> band_ms;
  const auto run_sweep = [&](const Texture& tex, bool tally_alive,
                             bool timed) {
    const BitSweepShape shape(state_, tex, channel, bit_width, kill,
                              tally_alive);
    const Coverage coverage(viewport_pixels_, fb_.width(), state_);
    const uint8_t* const stencil = fb_.stencil_data();
    const uint32_t width = fb_.width();
    const auto band = [&](uint32_t row_begin, uint32_t row_end,
                          BitTally* tally) {
      coverage.ForBandRows(
          row_begin, row_end,
          [&](const ScissorRect& rect, uint32_t yb, uint32_t ye) {
            BitSweepRows(shape, stencil, width, rect, yb, ye, tally);
          });
    };
    sweep = BitTally();
    for (const BitTally& tile : RunBands<BitTally>(
             coverage.rows, band, timed ? &band_ms : nullptr)) {
      sweep.fragments += tile.fragments;
      for (size_t b = 0; b < counts_size; ++b) {
        sweep.alive[b] += tile.alive[b];
        sweep.passed[b] += tile.passed[b];
      }
    }
    swept = true;
    have_alive = shape.count_alive;
  };

  std::vector<uint64_t> counts(counts_size);
  std::array<const Texture*, 4> units = {nullptr, nullptr, nullptr, nullptr};
  for (int b = 0; b < bit_width; ++b) {
    // Accumulate's deadline check between TestBit passes, then the pass as
    // BeginOcclusionQuery / RenderTexturedQuad / EndOcclusionQuery issue it.
    GPUDB_RETURN_NOT_OK(CheckInterrupt());
    GPUDB_RETURN_NOT_OK(BeginOcclusionQuery());
    if (bound_units_[0] < 0) {
      return Status::FailedPrecondition(
          "RenderTexturedQuad requires a bound texture");
    }
    const TestBitProgram bit_program(channel, b);
    const TestBitKillProgram kill_program(channel, b);
    GPUDB_ASSIGN_OR_RETURN(
        PassRecord pass,
        OpenQuadPass(kill ? static_cast<const FragmentProgram*>(&kill_program)
                          : &bit_program,
                     /*textured=*/true, &units));
    const bool need_alive = pass.profiled && rs.stencil_test_enabled;
    if (!swept || (need_alive && !have_alive)) {
      run_sweep(*units[0], need_alive, pass.profiled);
    }
    // RenderInternal's post-band check: a deadline that passed during the
    // sweep leaves this pass unrecorded.
    GPUDB_RETURN_NOT_OK(CheckInterrupt());
    const auto bit = static_cast<size_t>(b);
    pass.fragments = sweep.fragments;
    pass.fragments_passed = sweep.passed[bit];
    if (pass.profiled) {
      const uint64_t alive =
          rs.stencil_test_enabled ? sweep.alive[bit] : sweep.passed[bit];
      pass.prof.alpha_killed = pass.fragments - alive;
      if (rs.stencil_test_enabled) {
        pass.prof.stencil_killed = alive - pass.fragments_passed;
      }
      ApplyPlaneTrafficModel(&pass);
    }
    // The sweep's band times are recorded once, with the first pass that
    // follows it.
    if (!band_ms.empty()) {
      Profiler::Global().RecordBandTimings(band_ms);
      band_ms.clear();
    }
    occlusion_count_ += pass.fragments_passed;
    GPUDB_RETURN_NOT_OK(FinishPass(std::move(pass)));
    GPUDB_ASSIGN_OR_RETURN(counts[bit], EndOcclusionQuery());
  }
  return counts;
}

Status Device::DrawTriangles(const std::vector<Vertex>& vertices) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnPass());
  if (vertices.empty() || vertices.size() % 3 != 0) {
    return Status::InvalidArgument(
        "DrawTriangles requires a positive multiple of 3 vertices");
  }
  std::array<const Texture*, 4> units = {nullptr, nullptr, nullptr, nullptr};
  for (int u = 0; u < kTextureUnits; ++u) {
    if (bound_units_[u] < 0) continue;
    GPUDB_RETURN_NOT_OK(EnsureResident(bound_units_[u]));
    units[u] = &textures_[bound_units_[u]].data;
  }
  PassRecord pass;
  pass.label = program_ != nullptr ? std::string(program_->name())
                                   : std::string("triangles");
  pass.fp_instructions =
      program_ != nullptr ? program_->instruction_count() : 0;
  pass.in_occlusion_query = occlusion_active_;
  pass.profiled = DeepProfiling();

  // Arbitrary geometry may overlap itself (later triangles read earlier
  // ones' depth/stencil writes), so this path stays strictly serial; only
  // the disjoint-pixel quad passes of RenderInternal parallelize.
  PassContext ctx;
  ctx.units = units;
  ctx.program = program_;
  ctx.pass = &pass;
  ctx.occlusion = occlusion_active_ ? &occlusion_count_ : nullptr;
  ctx.profile = pass.profiled;
  const auto emit = [this, &ctx](const RasterFragment& frag) {
    ProcessFragment(frag, &ctx);
  };

  // Primitives are clipped to the quad coverage, so a triangle never writes
  // a pixel a clear would not reach. Each triangle is finished (both rects,
  // in row order) before the next one starts.
  const Coverage coverage(viewport_pixels_, fb_.width(), state_);
  for (size_t t = 0; t + 2 < vertices.size(); t += 3) {
    for (const ScissorRect& rect : coverage) {
      RasterizeTriangle(vertices[t], vertices[t + 1], vertices[t + 2], rect,
                        emit);
    }
  }
  if (pass.profiled) ApplyPlaneTrafficModel(&pass);
  return FinishPass(std::move(pass));
}

Status Device::BeginOcclusionQuery() {
  if (occlusion_active_) {
    return Status::FailedPrecondition("occlusion query already active");
  }
  occlusion_active_ = true;
  occlusion_count_ = 0;
  return Status::OK();
}

Result<uint64_t> Device::EndOcclusionQuery() {
  if (!occlusion_active_) {
    return Status::FailedPrecondition("no active occlusion query");
  }
  occlusion_active_ = false;
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  // Transient occlusion-query failure: the query still ended (active flag
  // cleared above) but its count never made it back across the bus.
  GPUDB_RETURN_NOT_OK(injector_.OnOcclusionReadback());
  ++counters_.occlusion_readbacks;
  counters_.bytes_read_back += 4;  // the pixel pass count
  DeviceMetrics::Get().occlusion_readbacks.Increment();
  DeviceMetrics::Get().bytes_read_back.Add(4);
  return occlusion_count_;
}

Result<std::vector<uint8_t>> Device::ReadStencil() {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("stencil"));
  counters_.bytes_read_back += fb_.pixel_count();
  DeviceMetrics::Get().bytes_read_back.Add(fb_.pixel_count());
  TraceSpan span("gpu.read_stencil");
  span.AddTag("bytes", fb_.pixel_count());
  return fb_.stencil_plane();
}

Result<std::vector<uint32_t>> Device::ReadDepth() {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("depth"));
  counters_.bytes_read_back += fb_.pixel_count() * 4;
  DeviceMetrics::Get().bytes_read_back.Add(fb_.pixel_count() * 4);
  TraceSpan span("gpu.read_depth");
  span.AddTag("bytes", fb_.pixel_count() * 4);
  return fb_.depth_plane();
}

bool Device::DeepProfiling() const {
  if (Profiler::Global().enabled()) return true;
  return std::any_of(pass_log_scopes_.begin(), pass_log_scopes_.end(),
                     [](const PassLogScope* scope) { return scope->profile_; });
}

PassLogScope::PassLogScope(Device* device, bool profile)
    : device_(device), profile_(profile) {
  device_->pass_log_scopes_.push_back(this);
}

PassLogScope::~PassLogScope() {
  std::vector<PassLogScope*>& scopes = device_->pass_log_scopes_;
  scopes.erase(std::find(scopes.begin(), scopes.end(), this));
}

}  // namespace gpu
}  // namespace gpudb
