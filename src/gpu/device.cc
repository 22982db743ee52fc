#include "src/gpu/device.h"

#include <algorithm>
#include <chrono>
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

}  // namespace

Device::Device(uint32_t width, uint32_t height, int depth_bits)
    : fb_(width, height, depth_bits),
      viewport_pixels_(uint64_t{width} * height),
      worker_threads_(ThreadPool::DefaultThreads()) {}

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
  pass.profiled = Profiler::Global().enabled();
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
  pass.profiled = Profiler::Global().enabled();
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
  pass.profiled = Profiler::Global().enabled();
  if (pass.profiled) pass.prof.plane_bytes_read = n * 4;
  GPUDB_RETURN_NOT_OK(FinishPass(std::move(pass)));
  plane_cache_.Insert(key, std::move(plane));
  return Status::OK();
}

void Device::InvalidateCachedPlanes(std::string_view table) {
  plane_cache_.InvalidateTable(table);
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

void Device::ClearColor(float r, float g, float b, float a) {
  fb_.ClearColor(r, g, b, a);
}

void Device::ClearDepth(float d) { fb_.ClearDepth(d); }

void Device::ClearStencil(uint8_t s) { fb_.ClearStencil(s); }

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

ScreenVertex Device::ApplyVertexStage(const Vertex& v) const {
  ScreenVertex out;
  if (window_space_vertices_) {
    // Default host setup: positions already in window coordinates with
    // z = window depth (the orthographic screen-aligned configuration every
    // algorithm in the paper renders under).
    out.x = v.position.x;
    out.y = v.position.y;
    out.depth = v.position.z;
  } else {
    const Vec4 clip = transform_.Transform(v.position);
    const float w = clip.w != 0.0f ? clip.w : 1.0f;
    // Viewport transform over the full framebuffer, depth range [0,1].
    out.x = (clip.x / w + 1.0f) * 0.5f * static_cast<float>(fb_.width());
    out.y = (clip.y / w + 1.0f) * 0.5f * static_cast<float>(fb_.height());
    out.depth = (clip.z / w + 1.0f) * 0.5f;
  }
  out.u = v.u;
  out.v = v.v;
  return out;
}

void Device::SetTransform(const Mat4& mvp) {
  transform_ = mvp;
  window_space_vertices_ = false;
}

void Device::ResetTransform() {
  transform_ = Mat4::Identity();
  window_space_vertices_ = true;
}

GPUDB_ALWAYS_INLINE
void Device::ProcessFragment(const RasterFragment& frag, PassContext* ctx) {
  const RenderState& rs = state_;
  const uint64_t i = uint64_t{frag.y} * fb_.width() + frag.x;
  ++ctx->pass->fragments;

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
    ctx->program->Execute(in, &out);
    if (out.discarded) {  // KILL: skips all later stages.
      if (ctx->profile) ++ctx->pass->prof.alpha_killed;
      return;
    }
  } else if (ctx->flat_depth) {
    // Fixed-function quad: depth quantization and the alpha test were
    // resolved once per pass (same outcome for every fragment).
    if (ctx->alpha_fail) {
      if (ctx->profile) ++ctx->pass->prof.alpha_killed;
      return;
    }
    ProcessTestedFragment(i, ctx->flat_depth_q, out.color, ctx);
    return;
  }
  const uint32_t frag_depth_q =
      out.depth_written ? fb_.Quantize(out.depth) : fb_.Quantize(frag.depth);

  // --- Alpha test -------------------------------------------------------
  if (rs.alpha_test_enabled &&
      !EvalCompare(rs.alpha_func, out.color[3], rs.alpha_ref)) {
    // Alpha failures do not reach the stencil stage.
    if (ctx->profile) ++ctx->pass->prof.alpha_killed;
    return;
  }

  ProcessTestedFragment(i, frag_depth_q, out.color, ctx);
}

GPUDB_ALWAYS_INLINE
void Device::ProcessTestedFragment(uint64_t i, uint32_t frag_depth_q,
                                   const std::array<float, 4>& color,
                                   PassContext* ctx) {
  const RenderState& rs = state_;

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

/// Per-band output of a specialized quad-row kernel, reduced into the
/// band's PassContext by the caller.
struct QuadKernelOut {
  uint64_t fragments = 0;
  uint64_t passed = 0;
  uint64_t depth_writes = 0;
  uint64_t stencil_updates = 0;
  uint64_t occlusion = 0;
  // Filled only by the kProfile instantiation; zero otherwise.
  uint64_t alpha_killed = 0;
  uint64_t stencil_killed = 0;
};

/// Shared body of the specialized quad-row kernels: the exact
/// alpha/stencil/depth-bounds/depth chain and buffer writes of
/// ProcessFragment/ProcessTestedFragment for a screen-aligned quad whose
/// per-fragment color is FragmentOutput's default and whose alpha test was
/// resolved once per pass, with the fragment depth supplied by
/// `depth_q_of(i)` (a constant for fixed-function quads, a texel fetch for
/// depth-copy programs).
///
/// Everything the loop reads lives in locals: the stencil plane is
/// uint8_t, and char-typed stores may alias any object in the abstract
/// machine, so a loop reading RenderState or the plane pointers through
/// members would reload them after every stencil write. Locals whose
/// address never escapes cannot alias and stay in registers.
///
/// `kProfile` selects the gpuprof instantiation: the extra kill counters
/// are `if constexpr`-guarded, so the default <false> kernel -- the one
/// every non-profiled pass runs -- compiles to exactly the pre-gpuprof
/// loop (counters off = no-ops, not branches).
template <bool kProfile, typename DepthQFn>
void QuadRowKernel(const RenderState& rs_in, FrameBuffer* fb,
                   const ScissorRect& rect, uint32_t y_begin, uint32_t y_end,
                   bool alpha_fail, bool count_occlusion, DepthQFn depth_q_of,
                   QuadKernelOut* result) {
  const RenderState rs = rs_in;
  const uint32_t w = fb->width();
  uint32_t* const depth = fb->depth_data();
  uint8_t* const stencil = fb->stencil_data();
  float* const color = fb->color_data();
  // FragmentOutput's default color: what these quad passes write.
  const std::array<float, 4> out_color = {0, 0, 0, 1};
  const auto ref_masked =
      static_cast<uint8_t>(rs.stencil_ref & rs.stencil_value_mask);

  uint64_t fragments = 0;
  uint64_t passed = 0;
  uint64_t depth_writes = 0;
  uint64_t stencil_updates = 0;
  uint64_t occl = 0;
  uint64_t stencil_killed = 0;

  for (uint32_t y = y_begin; y < y_end; ++y) {
    uint64_t i = uint64_t{y} * w + rect.x0;
    for (uint32_t x = rect.x0; x < rect.x1; ++x, ++i) {
      ++fragments;
      if (alpha_fail) continue;

      const uint8_t stored_stencil = stencil[i];
      const auto update_stencil = [&](StencilOp op) {
        const uint8_t result8 =
            ApplyStencilOp(op, stored_stencil, rs.stencil_ref);
        const uint8_t merged =
            static_cast<uint8_t>((stored_stencil & ~rs.stencil_write_mask) |
                                 (result8 & rs.stencil_write_mask));
        if (merged != stored_stencil) {
          stencil[i] = merged;
          ++stencil_updates;
        }
      };
      if (rs.stencil_test_enabled) {
        const auto val =
            static_cast<uint8_t>(stored_stencil & rs.stencil_value_mask);
        if (!EvalCompare(rs.stencil_func, ref_masked, val)) {
          update_stencil(rs.stencil_fail_op);  // Op1
          if constexpr (kProfile) ++stencil_killed;
          continue;
        }
      }

      const uint32_t frag_depth_q = depth_q_of(i);

      bool depth_pass = true;
      if (rs.depth_bounds_test_enabled) {
        const uint32_t stored_depth = depth[i];
        depth_pass = stored_depth >= rs.depth_bounds_min &&
                     stored_depth <= rs.depth_bounds_max;
      }
      if (depth_pass && rs.depth_test_enabled) {
        depth_pass = EvalCompare(rs.depth_func, frag_depth_q, depth[i]);
      }
      if (!depth_pass) {
        if (rs.stencil_test_enabled) update_stencil(rs.stencil_zfail_op);
        continue;
      }
      if (rs.stencil_test_enabled) update_stencil(rs.stencil_zpass_op);

      ++passed;
      if (count_occlusion) ++occl;
      if (rs.depth_test_enabled && rs.depth_write_mask) {
        if (depth[i] != frag_depth_q) depth[i] = frag_depth_q;
        ++depth_writes;
      }
      if (rs.color_write_mask) {
        for (int c = 0; c < 4; ++c) color[i * 4 + c] = out_color[c];
      }
    }
  }

  result->fragments = fragments;
  result->passed = passed;
  result->depth_writes = depth_writes;
  result->stencil_updates = stencil_updates;
  result->occlusion = occl;
  if constexpr (kProfile) {
    // A pre-resolved alpha failure kills every fragment of the quad.
    result->alpha_killed = alpha_fail ? fragments : 0;
    result->stencil_killed = stencil_killed;
  } else {
    (void)stencil_killed;
  }
}

/// Whether a pass can run the branchless TestCountRowKernel below instead
/// of the general QuadRowKernel: nothing but the stencil plane and the
/// counters may change (depth and color writes off, bounds test off), the
/// fragment must reach the depth test whenever the stencil lets it through
/// (no alpha kill), and a failing fragment must leave its stencil alone
/// (Keep on both fail paths). This is the shape of every comparison,
/// selection, chain, and counting quad the operators issue, which makes it
/// the hottest loop in the simulator. Profiled passes stay eligible: the
/// only per-fragment gpuprof tallies are the kill counts, alpha_killed is
/// structurally zero here (no alpha kill) and stencil_killed is the
/// stencil-fail count the kernels produce on demand.
bool EligibleForTestCount(const RenderState& rs, bool alpha_fail) {
  return !alpha_fail && !rs.depth_bounds_test_enabled &&
         rs.depth_test_enabled && !rs.depth_write_mask &&
         !rs.color_write_mask &&
         (!rs.stencil_test_enabled ||
          (rs.stencil_fail_op == StencilOp::kKeep &&
           rs.stencil_zfail_op == StencilOp::kKeep));
}

/// Branchless body for EligibleForTestCount passes. Semantically identical
/// to QuadRowKernel under that configuration -- same counters, same stencil
/// results -- but the data-dependent test outcomes feed arithmetic selects
/// instead of branches: at the 40-60% selectivities the paper's queries
/// run, the general loop's depth-test branch mispredicts almost every other
/// fragment, which is what made a fixed-function comparison quad slower
/// than the 3-instruction copy pass it follows.
template <typename DepthQFn>
void TestCountRowKernel(const RenderState& rs_in, FrameBuffer* fb,
                        const ScissorRect& rect, uint32_t y_begin,
                        uint32_t y_end, bool count_occlusion, bool profile,
                        DepthQFn depth_q_of, QuadKernelOut* result) {
  const RenderState rs = rs_in;
  const uint32_t w = fb->width();
  const uint32_t* const depth = fb->depth_data();
  uint8_t* const stencil = fb->stencil_data();
  const bool stest = rs.stencil_test_enabled;
  const auto ref_masked =
      static_cast<uint8_t>(rs.stencil_ref & rs.stencil_value_mask);

  // The compare op is loop-invariant, so reduce it to a truth table over
  // the three orderings: dp = (lt & m_lt) | (eq & m_eq) | (gt & m_gt).
  const CompareOp df = rs.depth_func;
  const uint8_t m_lt =
      (df == CompareOp::kLess || df == CompareOp::kLessEqual ||
       df == CompareOp::kNotEqual || df == CompareOp::kAlways)
          ? 1
          : 0;
  const uint8_t m_eq =
      (df == CompareOp::kEqual || df == CompareOp::kLessEqual ||
       df == CompareOp::kGreaterEqual || df == CompareOp::kAlways)
          ? 1
          : 0;
  const uint8_t m_gt =
      (df == CompareOp::kGreater || df == CompareOp::kGreaterEqual ||
       df == CompareOp::kNotEqual || df == CompareOp::kAlways)
          ? 1
          : 0;

  // The stencil pipeline -- func, zpass op, write mask -- only ever sees the
  // stored byte as its varying input, so the whole thing collapses into two
  // 256-entry tables computed once per pass.
  uint8_t sok_of[256];
  uint8_t pass_value_of[256];
  if (stest) {
    for (int s = 0; s < 256; ++s) {
      const auto stored = static_cast<uint8_t>(s);
      sok_of[s] = EvalCompare(
                      rs.stencil_func, ref_masked,
                      static_cast<uint8_t>(stored & rs.stencil_value_mask))
                      ? 1
                      : 0;
      const uint8_t res =
          ApplyStencilOp(rs.stencil_zpass_op, stored, rs.stencil_ref);
      pass_value_of[s] =
          static_cast<uint8_t>((stored & ~rs.stencil_write_mask) |
                               (res & rs.stencil_write_mask));
    }
  }

  // The chain passes the planner emits (DESIGN.md §14) test the stencil
  // with kEqual under full masks, so a passing fragment always holds
  // exactly `ref` and its replacement value is one constant -- the table
  // lookups drop out of the loop entirely.
  const bool exact_equal = stest && rs.stencil_func == CompareOp::kEqual &&
                           rs.stencil_value_mask == 0xff;
  const uint8_t eq_next = exact_equal ? pass_value_of[ref_masked] : 0;

  uint64_t fragments = 0;
  uint64_t passed = 0;
  uint64_t stencil_updates = 0;
  uint64_t stencil_ok = 0;  // -> stencil_killed when profiling
  for (uint32_t y = y_begin; y < y_end; ++y) {
    uint64_t i = uint64_t{y} * w + rect.x0;
    if (exact_equal) {
      for (uint32_t x = rect.x0; x < rect.x1; ++x, ++i) {
        const uint8_t stored = stencil[i];
        const uint32_t q = depth_q_of(i);
        const uint32_t d = depth[i];
        const uint8_t dp = static_cast<uint8_t>((m_lt & (q < d ? 1 : 0)) |
                                                (m_eq & (q == d ? 1 : 0)) |
                                                (m_gt & (q > d ? 1 : 0)));
        const uint8_t sok = stored == ref_masked ? 1 : 0;
        const uint8_t pass = static_cast<uint8_t>(sok & dp);
        stencil_ok += sok;
        const uint8_t next = pass != 0 ? eq_next : stored;
        stencil[i] = next;
        stencil_updates += next != stored ? 1 : 0;
        passed += pass;
      }
    } else if (stest) {
      for (uint32_t x = rect.x0; x < rect.x1; ++x, ++i) {
        const uint8_t stored = stencil[i];
        const uint32_t q = depth_q_of(i);
        const uint32_t d = depth[i];
        const uint8_t dp = static_cast<uint8_t>((m_lt & (q < d ? 1 : 0)) |
                                                (m_eq & (q == d ? 1 : 0)) |
                                                (m_gt & (q > d ? 1 : 0)));
        const uint8_t sok = sok_of[stored];
        const uint8_t pass = static_cast<uint8_t>(sok & dp);
        stencil_ok += sok;
        const uint8_t next = pass != 0 ? pass_value_of[stored] : stored;
        stencil[i] = next;
        stencil_updates += next != stored ? 1 : 0;
        passed += pass;
      }
    } else {
      for (uint32_t x = rect.x0; x < rect.x1; ++x, ++i) {
        const uint32_t q = depth_q_of(i);
        const uint32_t d = depth[i];
        passed += (m_lt & (q < d ? 1 : 0)) | (m_eq & (q == d ? 1 : 0)) |
                  (m_gt & (q > d ? 1 : 0));
      }
    }
    fragments += rect.x1 - rect.x0;
  }
  result->fragments = fragments;
  result->passed = passed;
  result->stencil_updates = stencil_updates;
  result->occlusion = count_occlusion ? passed : 0;
  // Same ledger the kProfile QuadRowKernel keeps: alpha_killed is zero by
  // eligibility (no alpha kill), stencil_killed is the stencil-fail count.
  if (profile && stest) result->stencil_killed = fragments - stencil_ok;
}

#if defined(__SSE2__)
/// SSE2 lane of TestCountRowKernel for flat quads (one depth value for the
/// whole primitive) whose stencil state is either off or the planner's
/// exact-equal chain shape. Sixteen fragments per step; the scalar kernel
/// handles the row remainder and every other configuration. Counter and
/// stencil results are bit-identical to the scalar loop.
bool TestCountRowsFlatSimd(const RenderState& rs, FrameBuffer* fb,
                           const ScissorRect& rect, uint32_t y_begin,
                           uint32_t y_end, bool count_occlusion, bool profile,
                           uint32_t q, QuadKernelOut* result) {
  const bool stest = rs.stencil_test_enabled;
  const bool exact_equal = stest && rs.stencil_func == CompareOp::kEqual &&
                           rs.stencil_value_mask == 0xff;
  if (stest && !exact_equal) return false;

  const CompareOp df = rs.depth_func;
  const bool w_lt = df == CompareOp::kLess || df == CompareOp::kLessEqual ||
                    df == CompareOp::kNotEqual || df == CompareOp::kAlways;
  const bool w_eq = df == CompareOp::kEqual || df == CompareOp::kLessEqual ||
                    df == CompareOp::kGreaterEqual || df == CompareOp::kAlways;
  const bool w_gt = df == CompareOp::kGreater ||
                    df == CompareOp::kGreaterEqual ||
                    df == CompareOp::kNotEqual || df == CompareOp::kAlways;

  const uint32_t w = fb->width();
  const uint32_t* const depth = fb->depth_data();
  uint8_t* const stencil = fb->stencil_data();
  const auto ref =
      static_cast<uint8_t>(rs.stencil_ref & rs.stencil_value_mask);
  uint8_t eq_next = 0;
  if (exact_equal) {
    const uint8_t res = ApplyStencilOp(rs.stencil_zpass_op, ref,
                                       rs.stencil_ref);
    eq_next = static_cast<uint8_t>((ref & ~rs.stencil_write_mask) |
                                   (res & rs.stencil_write_mask));
  }

  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i qv = _mm_set1_epi32(static_cast<int>(q));
  const __m128i qb = _mm_xor_si128(qv, bias);
  const __m128i m_lt = _mm_set1_epi32(w_lt ? -1 : 0);
  const __m128i m_eq = _mm_set1_epi32(w_eq ? -1 : 0);
  const __m128i m_gt = _mm_set1_epi32(w_gt ? -1 : 0);
  const __m128i ref16 = _mm_set1_epi8(static_cast<char>(ref));
  const __m128i next16 = _mm_set1_epi8(static_cast<char>(eq_next));

  uint64_t fragments = 0;
  uint64_t passed = 0;
  uint64_t stencil_updates = 0;
  uint64_t stencil_ok = 0;  // -> stencil_killed when profiling
  for (uint32_t y = y_begin; y < y_end; ++y) {
    uint64_t i = uint64_t{y} * w + rect.x0;
    uint32_t x = rect.x0;
    for (; x + 16 <= rect.x1; x += 16, i += 16) {
      // Pack four 32-lane depth verdicts into one 16-byte mask. The packs
      // are saturating, which maps 0 / -1 lanes onto 0 / -1 bytes exactly.
      __m128i dp32[4];
      for (int g = 0; g < 4; ++g) {
        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(depth + i) + g);
        const __m128i db = _mm_xor_si128(d, bias);
        const __m128i lt = _mm_cmpgt_epi32(db, qb);  // q < d
        const __m128i eq = _mm_cmpeq_epi32(qv, d);
        const __m128i gt = _mm_cmpgt_epi32(qb, db);  // q > d
        dp32[g] = _mm_or_si128(
            _mm_or_si128(_mm_and_si128(lt, m_lt), _mm_and_si128(eq, m_eq)),
            _mm_and_si128(gt, m_gt));
      }
      const __m128i dp16 = _mm_packs_epi16(_mm_packs_epi32(dp32[0], dp32[1]),
                                           _mm_packs_epi32(dp32[2], dp32[3]));
      if (exact_equal) {
        const __m128i stored = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(stencil + i));
        const __m128i sok = _mm_cmpeq_epi8(stored, ref16);
        stencil_ok += __builtin_popcount(
            static_cast<unsigned>(_mm_movemask_epi8(sok)));
        const __m128i pass = _mm_and_si128(dp16, sok);
        const __m128i next = _mm_or_si128(_mm_and_si128(pass, next16),
                                          _mm_andnot_si128(pass, stored));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(stencil + i), next);
        passed += __builtin_popcount(
            static_cast<unsigned>(_mm_movemask_epi8(pass)));
        stencil_updates += __builtin_popcount(
            static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
                next, stored))) ^
            0xffffu);
      } else {
        passed += __builtin_popcount(
            static_cast<unsigned>(_mm_movemask_epi8(dp16)));
      }
    }
    for (; x < rect.x1; ++x, ++i) {
      const uint32_t d = depth[i];
      const bool dp = (w_lt && q < d) || (w_eq && q == d) || (w_gt && q > d);
      if (exact_equal) {
        const uint8_t stored = stencil[i];
        const bool sok = stored == ref;
        stencil_ok += sok ? 1 : 0;
        const bool pass = dp && sok;
        const uint8_t next = pass ? eq_next : stored;
        stencil[i] = next;
        stencil_updates += next != stored ? 1 : 0;
        passed += pass ? 1 : 0;
      } else {
        passed += dp ? 1 : 0;
      }
    }
    fragments += rect.x1 - rect.x0;
  }
  result->fragments = fragments;
  result->passed = passed;
  result->stencil_updates = stencil_updates;
  result->occlusion = count_occlusion ? passed : 0;
  if (profile && exact_equal) result->stencil_killed = fragments - stencil_ok;
  return true;
}
#endif  // defined(__SSE2__)

void ReduceQuadKernel(const QuadKernelOut& out, PassRecord* pass,
                      uint64_t* occlusion) {
  pass->fragments += out.fragments;
  pass->fragments_passed += out.passed;
  pass->depth_writes += out.depth_writes;
  pass->stencil_updates += out.stencil_updates;
  pass->prof.alpha_killed += out.alpha_killed;
  pass->prof.stencil_killed += out.stencil_killed;
  if (occlusion != nullptr) *occlusion += out.occlusion;
}

}  // namespace

void Device::RunFixedRows(const ScissorRect& rect, uint32_t y_begin,
                          uint32_t y_end, PassContext* ctx) {
  const uint32_t q = ctx->flat_depth_q;
  const auto depth_q_of = [q](uint64_t) { return q; };
  QuadKernelOut out;
  if (EligibleForTestCount(state_, ctx->alpha_fail)) {
#if defined(__SSE2__)
    if (!TestCountRowsFlatSimd(state_, &fb_, rect, y_begin, y_end,
                               ctx->occlusion != nullptr, ctx->profile, q,
                               &out))
#endif
      TestCountRowKernel(state_, &fb_, rect, y_begin, y_end,
                         ctx->occlusion != nullptr, ctx->profile, depth_q_of,
                         &out);
  } else if (ctx->profile) {
    QuadRowKernel<true>(state_, &fb_, rect, y_begin, y_end, ctx->alpha_fail,
                        ctx->occlusion != nullptr, depth_q_of, &out);
  } else {
    QuadRowKernel<false>(state_, &fb_, rect, y_begin, y_end, ctx->alpha_fail,
                         ctx->occlusion != nullptr, depth_q_of, &out);
  }
  ReduceQuadKernel(out, ctx->pass, ctx->occlusion);
}

void Device::RunDepthCopyRows(const ScissorRect& rect, uint32_t y_begin,
                              uint32_t y_end, const CopyToDepthProgram& prog,
                              const Texture& tex, PassContext* ctx) {
  // Per-fragment depth exactly as CopyToDepthProgram::Execute +
  // FrameBuffer::Quantize compute it: fetch, normalize in double, round
  // once to float32, then quantize (depth_max hoisted -- a uint32 depth
  // store could alias the member copy).
  const float* const texels = tex.data().data();
  const auto channels = static_cast<uint64_t>(tex.channels());
  const auto channel = static_cast<uint64_t>(prog.channel());
  const double scale = prog.scale();
  const double offset = prog.offset();
  const uint32_t depth_max = fb_.depth_max();
  const auto depth_q_of = [=](uint64_t i) -> uint32_t {
    const float v = texels[i * channels + channel];
    const auto d = static_cast<float>((static_cast<double>(v) - offset) *
                                      scale);
    if (d <= 0.0f) return 0;
    if (d >= 1.0f) return depth_max;
    return static_cast<uint32_t>(static_cast<double>(d) * depth_max + 0.5);
  };
  QuadKernelOut out;
  if (EligibleForTestCount(state_, ctx->alpha_fail)) {
    // Fused compare programs (depth writes off) take the branchless path
    // with the texel fetch inlined as the fragment depth.
    TestCountRowKernel(state_, &fb_, rect, y_begin, y_end,
                       ctx->occlusion != nullptr, ctx->profile, depth_q_of,
                       &out);
  } else if (ctx->profile) {
    QuadRowKernel<true>(state_, &fb_, rect, y_begin, y_end, ctx->alpha_fail,
                        ctx->occlusion != nullptr, depth_q_of, &out);
  } else {
    QuadRowKernel<false>(state_, &fb_, rect, y_begin, y_end, ctx->alpha_fail,
                         ctx->occlusion != nullptr, depth_q_of, &out);
  }
  ReduceQuadKernel(out, ctx->pass, ctx->occlusion);
}

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
  if (Tracer::Global().enabled()) {
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

void Device::ArmDeadline(double ms) {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(ms));
  deadline_armed_ = true;
}

Status Device::CheckInterrupt() const {
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  if (deadline_armed_ && std::chrono::steady_clock::now() >= deadline_) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

Status Device::RenderInternal(float quad_depth, bool textured) {
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
  const FragmentProgram* program = textured ? program_ : nullptr;
  std::array<const Texture*, 4> units = {nullptr, nullptr, nullptr, nullptr};
  if (textured) {
    for (int u = 0; u < kTextureUnits; ++u) {
      if (bound_units_[u] < 0) continue;
      GPUDB_RETURN_NOT_OK(EnsureResident(bound_units_[u]));
      units[u] = &textures_[bound_units_[u]].data;
      if (units[u]->total_texels() < viewport_pixels_) {
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
  // One relaxed load per pass decides both the kernel instantiation and
  // which PassRecords carry deep counters; a mid-pass toggle cannot tear.
  pass.profiled = Profiler::Global().enabled();

  // The viewport's first n pixels form up to two rectangles: the full rows
  // and a partial final row. Each is a screen-aligned quad at constant
  // depth, so rasterization takes the span fast path (RasterizeRectRows):
  // the two triangles of such a quad cover exactly the rectangle's pixels,
  // once each, with the quad depth passed through bit-exactly, and emitting
  // the runs directly skips three edge-function evaluations per fragment.
  const uint32_t w = fb_.width();
  const uint32_t full_rows = static_cast<uint32_t>(viewport_pixels_ / w);
  const uint32_t remainder = static_cast<uint32_t>(viewport_pixels_ % w);
  std::vector<ScissorRect> rects;
  if (full_rows > 0) rects.push_back({0, 0, w, full_rows});
  if (remainder > 0) rects.push_back({0, full_rows, remainder, full_rows + 1});

  // Clip to the user scissor; surviving rects keep disjoint, increasing row
  // ranges, which is what makes the band split below race-free.
  std::vector<ScissorRect> clipped;
  uint32_t total_rows = 0;
  for (ScissorRect rect : rects) {
    if (state_.scissor_test_enabled) {
      const ScissorRect& s = state_.scissor;
      rect.x0 = std::max(rect.x0, s.x0);
      rect.y0 = std::max(rect.y0, s.y0);
      rect.x1 = std::min(rect.x1, s.x1);
      rect.y1 = std::min(rect.y1, s.y1);
      if (rect.x0 >= rect.x1 || rect.y0 >= rect.y1) continue;
    }
    total_rows += rect.y1 - rect.y0;
    clipped.push_back(rect);
  }

  // Tile decomposition: the pass's rows, concatenated across rects, are
  // split into `bands` contiguous, disjoint horizontal slices. Every pixel
  // belongs to exactly one band and each pass touches each pixel at most
  // once, so framebuffer writes are race-free by construction; per-band
  // PassRecord counters and occlusion counts are reduced in fixed band
  // order afterwards so every reduction (and therefore counters_, the
  // records PassLogScopes see, and EndOcclusionQuery results) is
  // bit-identical to serial execution.
  // Wall-clock band time rides in the Tile but never enters the PassRecord:
  // counters stay bit-stable across thread counts while timings feed the
  // "gpu.band_ms" histogram and trace counter track.
  struct Tile {
    PassRecord pass;
    uint64_t occlusion = 0;
    double band_ms = 0.0;
  };
  const int bands =
      std::max(1, std::min(worker_threads_, static_cast<int>(total_rows)));
  std::vector<Tile> tiles(static_cast<size_t>(bands));

  // Per-pass constants for the fixed-function fast path: every fragment of
  // an untextured quad has the same depth (quantize once) and the constant
  // alpha 1.0 (resolve the alpha test once).
  const uint32_t flat_depth_q = fb_.Quantize(quad_depth);
  const bool alpha_fail =
      state_.alpha_test_enabled &&
      !EvalCompare(state_.alpha_func, 1.0f, state_.alpha_ref);
  // Depth-copy programs leave the output color at its default, so the same
  // hoisted alpha outcome applies and the batched kernel below is exact.
  const CopyToDepthProgram* depth_copy =
      program != nullptr ? program->AsDepthCopy() : nullptr;

  const bool profiled = pass.profiled;
  const auto run_band = [&](int band) {
    // Per-band cooperative cancellation: a band that starts after the
    // interrupt fired does no work. Bands already in their fragment loop
    // finish normally; the post-reduction check below surfaces the error.
    if (InterruptPending()) return;
    const auto band_start = profiled ? std::chrono::steady_clock::now()
                                     : std::chrono::steady_clock::time_point();
    // Tile accumulators live on the band's stack so the optimizer can keep
    // them in registers through the fragment loop; copied into the shared
    // tile vector once at band end.
    Tile tile;
    PassContext ctx;
    ctx.units = units;
    ctx.program = program;
    ctx.pass = &tile.pass;
    ctx.occlusion = occlusion_active_ ? &tile.occlusion : nullptr;
    ctx.flat_depth = program == nullptr;
    ctx.flat_depth_q = flat_depth_q;
    ctx.alpha_fail = alpha_fail;
    ctx.profile = profiled;
    // Rows [row_begin, row_end) of the concatenated row sequence.
    const auto nrows = uint64_t{total_rows};
    const auto row_begin =
        static_cast<uint32_t>(nrows * static_cast<uint64_t>(band) /
                              static_cast<uint64_t>(bands));
    const auto row_end =
        static_cast<uint32_t>(nrows * (static_cast<uint64_t>(band) + 1) /
                              static_cast<uint64_t>(bands));
    uint32_t skipped = 0;
    for (const ScissorRect& rect : clipped) {
      const uint32_t height = rect.y1 - rect.y0;
      const uint32_t lo = std::max(row_begin, skipped);
      const uint32_t hi = std::min(row_end, skipped + height);
      if (lo < hi) {
        const uint32_t yb = rect.y0 + (lo - skipped);
        const uint32_t ye = rect.y0 + (hi - skipped);
        if (program == nullptr) {
          // Fixed-function quad: dedicated kernel with hoisted state.
          RunFixedRows(rect, yb, ye, &ctx);
        } else if (depth_copy != nullptr && units[0] != nullptr) {
          // Depth-copy program: batched fetch/normalize/quantize kernel.
          RunDepthCopyRows(rect, yb, ye, *depth_copy, *units[0], &ctx);
        } else {
          RasterizeRectRows(rect, quad_depth, yb, ye,
                            [this, &ctx](const RasterFragment& frag) {
                              ProcessFragment(frag, &ctx);
                            });
        }
      }
      skipped += height;
    }
    if (profiled) {
      tile.band_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - band_start)
                         .count();
    }
    tiles[static_cast<size_t>(band)] = std::move(tile);
  };

  if (bands == 1) {
    run_band(0);
  } else {
    EnsurePool()->ParallelFor(bands, run_band);
  }

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
    std::vector<double> band_times;
    band_times.reserve(tiles.size());
    for (const Tile& tile : tiles) band_times.push_back(tile.band_ms);
    Profiler::Global().RecordBandTimings(band_times);
  }

  return FinishPass(std::move(pass));
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
  pass.profiled = Profiler::Global().enabled();

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

  ScissorRect clip{0, 0, fb_.width(), fb_.height()};
  if (state_.scissor_test_enabled) {
    const ScissorRect& s = state_.scissor;
    clip.x0 = std::max(clip.x0, s.x0);
    clip.y0 = std::max(clip.y0, s.y0);
    clip.x1 = std::min(clip.x1, s.x1);
    clip.y1 = std::min(clip.y1, s.y1);
    if (clip.x0 >= clip.x1 || clip.y0 >= clip.y1) {
      return FinishPass(std::move(pass));
    }
  }
  for (size_t t = 0; t + 2 < vertices.size(); t += 3) {
    const ScreenVertex a = ApplyVertexStage(vertices[t]);
    const ScreenVertex b = ApplyVertexStage(vertices[t + 1]);
    const ScreenVertex c = ApplyVertexStage(vertices[t + 2]);
    RasterizeTriangle(a, b, c, clip, emit);
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

Result<std::vector<float>> Device::ReadColorChannel(int channel) {
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  GPUDB_RETURN_NOT_OK(injector_.OnReadback("color"));
  counters_.bytes_read_back += fb_.pixel_count() * 4;
  DeviceMetrics::Get().bytes_read_back.Add(fb_.pixel_count() * 4);
  std::vector<float> out(fb_.pixel_count());
  for (uint64_t i = 0; i < fb_.pixel_count(); ++i) {
    out[i] = fb_.color(i)[channel];
  }
  return out;
}

PassLogScope::PassLogScope(Device* device) : device_(device) {
  device_->pass_log_scopes_.push_back(this);
}

PassLogScope::~PassLogScope() {
  std::vector<PassLogScope*>& scopes = device_->pass_log_scopes_;
  scopes.erase(std::find(scopes.begin(), scopes.end(), this));
}

}  // namespace gpu
}  // namespace gpudb
