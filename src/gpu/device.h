#ifndef GPUDB_GPU_DEVICE_H_
#define GPUDB_GPU_DEVICE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/gpu/counters.h"
#include "src/gpu/fault_injector.h"
#include "src/gpu/fragment_program.h"
#include "src/gpu/framebuffer.h"
#include "src/gpu/plane_cache.h"
#include "src/gpu/rasterizer.h"
#include "src/gpu/render_state.h"
#include "src/gpu/texture.h"
#include "src/gpu/thread_pool.h"
#include "src/gpu/types.h"

namespace gpudb {
namespace gpu {

class PassLogScope;

/// Texture object handle returned by Device::UploadTexture.
using TextureId = int;

/// \brief Software model of the 2004-era graphics pipeline slice used by the
/// paper: texture memory, a color/depth/stencil framebuffer, programmable
/// fragment processing, the alpha/stencil/depth/depth-bounds test chain, and
/// NV_occlusion_query-style pixel pass counting.
///
/// Semantics follow the OpenGL 1.5 fragment pipeline:
///   fragment program -> alpha test -> stencil test -> depth bounds test ->
///   depth test -> (occlusion count, buffer writes)
/// with the three-outcome stencil operation of Section 3.4 (Op1 on stencil
/// fail, Op2 on depth fail, Op3 on pass).
///
/// Screen-filling quads are modeled as covering the first `viewport_pixels()`
/// pixels of the framebuffer in row-major order; real host code achieves the
/// same coverage with a scissor rectangle or a pair of quads, so this is a
/// simulation-level shortcut with identical semantics.
///
/// Coverage rule: that region, clipped to the scissor when the scissor test
/// is on, is all any call reaches. A clear writes exactly the pixels a
/// screen-filling quad covers (a scissored glClear), and DrawTriangles clips
/// every triangle to them (GL clips primitives to the viewport), so a pass
/// and its clears cost what its records cover, whatever the framebuffer
/// size. Pixels past the viewport keep whatever they held; readbacks still
/// return, and charge, the whole plane.
///
/// The class is a facade: all mutating calls also maintain DeviceCounters so
/// that PerfModel can reconstruct what the operations would have cost on the
/// paper's GeForce FX 5900 Ultra.
class Device {
 public:
  /// Creates a device whose framebuffer is `width` x `height` pixels.
  /// The paper's setup is 1000x1000 (one million records per screen) with
  /// the 24-bit depth buffer that was the 2004 maximum; `depth_bits` can be
  /// lowered to reproduce the Section 6.1 precision ceiling.
  explicit Device(uint32_t width, uint32_t height,
                  int depth_bits = kDepthBits);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- Texture memory --------------------------------------------------

  /// Copies a texture into video memory, charging the AGP upload to the
  /// counters. Returns a handle for BindTexture.
  [[nodiscard]] Result<TextureId> UploadTexture(Texture texture);

  /// Allocates an uninitialized texture in video memory (no bus transfer) --
  /// scratch storage for multi-pass ping-pong algorithms such as the bitonic
  /// sort (glTexImage2D with a null pointer, in 2004 terms).
  [[nodiscard]] Result<TextureId> CreateTexture(uint32_t width, uint32_t height,
                                  int channels);

  /// Copies the framebuffer's color plane into a texture of matching
  /// dimensions (glCopyTexSubImage2D): the 2004 idiom for render-to-texture
  /// ping-pong. Only the first `channels()` color channels are copied.
  /// Charged as a one-cycle-per-texel on-card pass.
  [[nodiscard]] Status CopyColorToTexture(TextureId dst);

  /// Reads a texture's contents back to the CPU (charged as a GPU->CPU
  /// transfer). Used to materialize sorted output.
  [[nodiscard]] Result<std::vector<float>> ReadTexture(TextureId id, int channel);

  /// Partial texture update (glTexSubImage2D): overwrites `values.size()`
  /// texels of channel `channel` starting at linear texel `offset`, charging
  /// only the updated bytes to the upload bus. This is what keeps streaming
  /// windows incremental (only new records cross the AGP bus).
  [[nodiscard]] Status UpdateTexture(TextureId id, uint64_t offset,
                       const std::vector<float>& values, int channel = 0);

  /// Binds a texture to texture unit 0.
  [[nodiscard]] Status BindTexture(TextureId id);

  /// Binds a texture to a numbered unit (0..3). Multi-unit programs read
  /// attribute vectors split across textures (paper Section 4.1.2).
  [[nodiscard]] Status BindTextureUnit(int unit, TextureId id);

  /// Unbinds a unit (fragments see a null texture there).
  [[nodiscard]] Status UnbindTextureUnit(int unit);

  const Texture& texture(TextureId id) const { return textures_[id].data; }

  // --- Video memory management (paper Sections 5.1, 6.1) -----------------

  /// Sets the video memory budget in bytes (default 256 MB, the paper's
  /// GeForce FX 5900 Ultra). Textures beyond the budget are evicted
  /// least-recently-used; touching an evicted texture swaps it back in
  /// across the bus, charged to the `bytes_swapped` counter -- the
  /// out-of-core texture traffic Section 6.1 describes. Shrinking the
  /// budget below the size of any single texture makes that texture
  /// unusable (ResourceExhausted on touch).
  [[nodiscard]] Status SetVideoMemoryBudget(uint64_t bytes);

  uint64_t video_memory_budget() const { return video_memory_budget_; }
  uint64_t video_memory_used() const { return resident_bytes_; }

  // --- Depth-plane cache (DESIGN.md §14) ----------------------------------

  /// Tags the next quad pass as planner-fused: RenderInternal transfers the
  /// one-shot flag onto that pass's PassRecord, and FinishPass counts it in
  /// `fused_passes`. Purely an accounting mark -- the pass itself is
  /// configured by the caller (see core::FusedComparePass).
  void MarkNextPassFused() { next_pass_fused_ = true; }

  /// If a depth plane for `key` is cached, re-materializes it into the
  /// first `key.viewport_pixels` depth texels -- the on-card blit that
  /// replaces CopyToDepth for a hot column -- and returns true. The blit is
  /// recorded as a synthetic "plane-restore" pass (1 instruction/texel, 4
  /// bytes/texel plane writes) so the byte ledger and figures stay honest.
  /// A miss records nothing and returns false; the caller then runs the
  /// real copy and may CacheDepthPlane afterwards.
  [[nodiscard]] Result<bool> RestoreCachedDepthPlane(const PlaneKey& key);

  /// Snapshots the first `key.viewport_pixels` depth texels into the plane
  /// cache under `key`, recorded as a synthetic "plane-snapshot" pass (4
  /// bytes/texel plane reads). Cached planes are charged against the video
  /// memory budget at strictly lower priority than textures: this call
  /// evicts its own LRU planes to make room but never evicts a texture --
  /// if the plane cannot fit beside the resident textures it is silently
  /// not cached (the query already ran; caching is best-effort).
  [[nodiscard]] Status CacheDepthPlane(const PlaneKey& key);

  const PlaneCache& plane_cache() const { return plane_cache_; }

  // --- Render state (glEnable/glDepthFunc/... equivalents) -------------

  /// Mutable render state; core operations snapshot/restore this around
  /// multi-pass algorithms.
  RenderState& state() { return state_; }
  const RenderState& state() const { return state_; }

  void SetAlphaTest(bool enabled, CompareOp func, float ref);
  void SetStencilTest(bool enabled, CompareOp func, uint8_t ref,
                      uint8_t value_mask = 0xff);
  /// StencilOp(Op1, Op2, Op3) exactly as in the paper's Section 3.4.
  void SetStencilOp(StencilOp fail, StencilOp zfail, StencilOp zpass);
  void SetDepthTest(bool enabled, CompareOp func);
  void SetDepthWriteMask(bool enabled);
  void SetColorWriteMask(bool enabled);
  /// Depth bounds in normalized [0,1] coordinates (quantized internally).
  void SetDepthBoundsTest(bool enabled, float zmin = 0.0f, float zmax = 1.0f);

  /// Installs a fragment program for subsequent textured quads (nullptr
  /// restores fixed function). The program must outlive its use.
  void UseProgram(const FragmentProgram* program) { program_ = program; }

  /// The currently installed fragment program (nullptr = fixed function).
  const FragmentProgram* program() const { return program_; }

  // --- Viewport ----------------------------------------------------------

  /// Limits quads, clears and triangles to the first `pixels` pixels
  /// (<= framebuffer size). Database operations set this to the record
  /// count, before clearing.
  [[nodiscard]] Status SetViewport(uint64_t pixels);
  uint64_t viewport_pixels() const { return viewport_pixels_; }

  // --- Clears ------------------------------------------------------------
  // Each writes exactly the pixels RenderQuad would cover (see the class
  // comment); not counted in DeviceCounters.

  void ClearDepth(float d = 1.0f);
  void ClearStencil(uint8_t s = 0);

  // --- Drawing -------------------------------------------------------------

  /// Renders a screen-filling quad at normalized depth `depth` with no bound
  /// texture (fixed-function). This is the paper's RenderQuad(d).
  ///
  /// The quad covers the viewport's pixel range as two scissored rectangles
  /// (full rows plus a partial row). Each is rasterized by the span path
  /// (RasterizeRectRows), which emits exactly the fragments its two
  /// triangles would through RasterizeTriangle.
  [[nodiscard]] Status RenderQuad(float depth);

  /// Renders a screen-filling quad textured with the bound texture, running
  /// the installed fragment program per fragment. This is the paper's
  /// RenderTexturedQuad(tex).
  [[nodiscard]] Status RenderTexturedQuad();

  // --- General geometry path --------------------------------------------

  /// Draws triangles (consecutive vertex triples) given in window
  /// coordinates (x, y in pixels, window depth in [0,1]; there is no vertex
  /// transform): triangle setup/rasterization with the top-left fill rule,
  /// clipped to the quad coverage, then the per-fragment test chain. The
  /// fragment count of the call is whatever the rasterizer emits.
  [[nodiscard]] Status DrawTriangles(const std::vector<Vertex>& vertices);

  // --- Occlusion queries (GL_NV_occlusion_query) -------------------------

  /// Starts counting fragments that pass all tests.
  [[nodiscard]] Status BeginOcclusionQuery();

  /// Stops counting and returns the pixel pass count; charges the readback
  /// latency to the counters.
  [[nodiscard]] Result<uint64_t> EndOcclusionQuery();

  // --- Accumulator bit sweep (DESIGN.md §10) -----------------------------

  /// Routine 4.6's `bit_width` passes (1..24) over channel `channel` of
  /// the texture on unit 0: for b = 0, 1, ..., what CheckInterrupt, then
  /// BeginOcclusionQuery / RenderTexturedQuad / EndOcclusionQuery with
  /// TestBitProgram(channel, b) -- TestBitKillProgram when `kill` --
  /// installed would do. Returns the occlusion counts, count[b] for bit b.
  ///
  /// One band-parallel sweep reads each covered texel and stencil byte
  /// once and tallies every bit; the passes are then replayed in order
  /// with their interrupt checks, fault sites, residency, PassRecords and
  /// readbacks, so a fault or deadline at bit k leaves exactly k passes
  /// recorded and returns the Status the pass loop would have. Counters,
  /// records and counts are the pass loop's, bit for bit.
  ///
  /// The sweep is valid because these passes write nothing, so the
  /// render state must say so: no color write, no depth or depth-bounds
  /// test, stencil ops that keep, and an alpha stage that is the bit test
  /// (alpha test GEQUAL 0.5, or off with `kill`). Any other state is
  /// FailedPrecondition; a channel the texture lacks, or a `bit_width`
  /// outside 1..24, is InvalidArgument.
  [[nodiscard]] Result<std::vector<uint64_t>> CountBitPasses(int channel,
                                                             int bit_width,
                                                             bool kill);

  // --- Readback ------------------------------------------------------------

  /// Reads the stencil plane back to the CPU (charged as a GPU->CPU
  /// transfer). Used to materialize selection results. Fails with
  /// kDeviceLost under injected readback corruption, or with
  /// kDeadlineExceeded once an armed deadline has passed.
  [[nodiscard]] Result<std::vector<uint8_t>> ReadStencil();

  /// Reads the depth plane back (quantized values).
  [[nodiscard]] Result<std::vector<uint32_t>> ReadDepth();

  FrameBuffer& framebuffer() { return fb_; }
  const FrameBuffer& framebuffer() const { return fb_; }

  // --- Parallel pixel engines ---------------------------------------------

  /// Sets how many host threads execute quad passes -- the software stand-in
  /// for the FX 5900's parallel pixel pipelines (paper Section 3.1). The
  /// default is ThreadPool::DefaultThreads() ($GPUDB_THREADS or the host's
  /// hardware concurrency); 1 runs every pass inline on the calling thread
  /// (exact legacy behaviour).
  ///
  /// Results are bit-identical for every thread count: each quad pass
  /// touches each pixel at most once, the screen is split into disjoint row
  /// bands, and per-band counters are reduced in fixed band order (see
  /// DESIGN.md section 10).
  [[nodiscard]] Status SetWorkerThreads(int n);
  int worker_threads() const { return worker_threads_; }

  // --- Fault injection (DESIGN.md section 11) -----------------------------

  /// Installs a deterministic fault-injection configuration. A zero rate
  /// (the default) disables injection entirely; the sites then cost one
  /// predicted branch each. Restarts the injector's draw sequence.
  void ConfigureFaults(const FaultConfig& config) {
    injector_.Configure(config);
  }

  FaultInjector& fault_injector() { return injector_; }
  const FaultInjector& fault_injector() const { return injector_; }

  // --- Deadlines -------------------------------------------------------------

  /// Arms a wall-clock deadline at an absolute expiry: a statement's one
  /// deadline, shared by every dispatch it makes on every device. Every
  /// pass entry, row band, and readback checks it cooperatively; once
  /// exceeded, device entry points return kDeadlineExceeded until
  /// DisarmDeadline().
  void ArmDeadlineAt(std::chrono::steady_clock::time_point expiry) {
    deadline_ = expiry;
    deadline_armed_ = true;
  }

  void DisarmDeadline() { deadline_armed_ = false; }
  bool deadline_armed() const { return deadline_armed_; }

  /// kDeadlineExceeded if an armed deadline has passed, OK otherwise.
  /// Cheap when nothing is armed. Every pass entry, readback and operator
  /// loop calls it, so a deadline stays responsive.
  [[nodiscard]] Status CheckInterrupt() const;

  /// Clears transient per-query device state (an open occlusion query and
  /// its count) so an operator can be retried cleanly after a fault left
  /// the device mid-query.
  void ResetQueryState() {
    occlusion_active_ = false;
    occlusion_count_ = 0;
  }

  // --- Counters ------------------------------------------------------------

  /// Cumulative scalar counters; a copy is a fixed-size snapshot. Per-pass
  /// records are not kept here -- open a PassLogScope to see them.
  const DeviceCounters& counters() const { return counters_; }
  void ResetCounters() { counters_.Reset(); }

 private:
  friend class PassLogScope;

  /// A texture object plus its residency bookkeeping.
  struct TextureSlot {
    Texture data;
    bool resident = false;
    bool ever_resident = false;  ///< Distinguishes first upload from swap-in.
    uint64_t last_use = 0;       ///< LRU stamp

    explicit TextureSlot(Texture t) : data(std::move(t)) {}
  };

  /// Context shared by all fragments of one tile (one row band of one
  /// pass). Counters point at tile-local accumulators so concurrent bands
  /// never touch shared state; FinishPass sees the fixed-order reduction.
  struct PassContext {
    std::array<const Texture*, 4> units = {nullptr, nullptr, nullptr,
                                           nullptr};
    const FragmentProgram* program = nullptr;
    PassRecord* pass = nullptr;
    /// Tile-local pixel pass counter; null when no occlusion query is
    /// active.
    uint64_t* occlusion = nullptr;
    /// Deep profiling on for this pass (one DeepProfiling() read per pass,
    /// taken where the PassRecord is created): gates the per-fragment kill
    /// counters.
    bool profile = false;
  };

  /// Whether the next pass carries deep counters: the process-wide
  /// Profiler is on, or an open PassLogScope asked for them.
  bool DeepProfiling() const;

  /// Swaps a texture into video memory if evicted, evicting LRU textures as
  /// needed, and stamps its LRU slot.
  [[nodiscard]] Status EnsureResident(TextureId id);

  /// Shared quad path for RenderQuad / RenderTexturedQuad: rasterizes the
  /// viewport rectangles at constant depth. `textured` selects whether the
  /// fragment program runs with the bound texture.
  [[nodiscard]] Status RenderInternal(float quad_depth, bool textured);

  /// The issue half of a quad pass, shared by RenderInternal and the bit
  /// sweep's replay: consumes the one-shot fused mark, runs the per-pass
  /// interrupt check and watchdog fault site, makes every bound unit
  /// resident for a textured pass (filling `units`), and returns the
  /// pass's PassRecord header for `program`.
  [[nodiscard]] Result<PassRecord> OpenQuadPass(
      const FragmentProgram* program, bool textured,
      std::array<const Texture*, 4>* units);

  /// Splits `rows` covered rows into contiguous bands, one per worker
  /// thread (at most one per row), and runs band(row_begin, row_end,
  /// &tile) for each on the pool, the calling thread working too. Returns
  /// the tiles in band order, the fixed order every reduction walks. A
  /// band that starts after an armed deadline has passed leaves its tile
  /// empty. With `band_ms`, each band's wall time is stored there.
  template <typename Tile, typename BandFn>
  std::vector<Tile> RunBands(uint32_t rows, const BandFn& band,
                             std::vector<double>* band_ms);

  /// The per-fragment interpreter: runs one rasterized fragment through
  /// the program, then TestFragment. Serves DrawTriangles and quad passes
  /// whose program has no batched form; it is the oracle for the row
  /// kernel every other quad pass runs. Safe to call from worker threads
  /// as long as no two concurrent calls share a pixel or a PassContext
  /// (RenderInternal's row bands guarantee both).
  void ProcessFragment(const RasterFragment& frag, PassContext* ctx);

  /// Counts a shaded fragment, then runs it -- unless KILLed or failed by
  /// the alpha test (`alive` false) -- through the stencil/depth-bounds/
  /// depth chain and the buffer writes. Shared by the interpreter and the
  /// row kernel's leftover columns. Same threading contract.
  void TestFragment(uint64_t i, uint32_t frag_depth_q, bool alive,
                    const std::array<float, 4>& color, PassContext* ctx);

  /// The worker pool, created on first parallel pass.
  ThreadPool* EnsurePool();

  /// Folds a finished pass into the cumulative counters. For a profiled
  /// pass, first closes the fragment ledger (depth_tested / depth_killed /
  /// occlusion_samples are derived from the counted kills) and feeds the
  /// per-label Profiler aggregate. Fails with Status::Internal when the
  /// PassRecord invariants are violated (the simulator miscounted -- every
  /// downstream cost estimate would be corrupt), without recording the bad
  /// pass.
  [[nodiscard]] Status FinishPass(PassRecord pass);

  /// Fills a profiled pass's plane_bytes_read/written from the current
  /// render state and the pass's counted fragments (gpuprof bandwidth
  /// model; see DESIGN.md §13). Call before FinishPass, at the issue site,
  /// while the pass's RenderState is still live.
  void ApplyPlaneTrafficModel(PassRecord* pass) const;

  /// Check shared by the per-band loops: true when an armed deadline has
  /// passed.
  bool InterruptPending() const {
    return deadline_armed_ && std::chrono::steady_clock::now() >= deadline_;
  }

  FrameBuffer fb_;
  RenderState state_;
  std::vector<TextureSlot> textures_;
  std::array<TextureId, 4> bound_units_ = {-1, -1, -1, -1};
  const FragmentProgram* program_ = nullptr;
  uint64_t viewport_pixels_;

  uint64_t video_memory_budget_ = 256ull * 1024 * 1024;  // paper Section 5.1
  uint64_t resident_bytes_ = 0;
  uint64_t lru_clock_ = 0;

  PlaneCache plane_cache_;        // shares video_memory_budget_ with textures
  bool next_pass_fused_ = false;  // one-shot, consumed by RenderInternal

  bool occlusion_active_ = false;
  uint64_t occlusion_count_ = 0;

  FaultInjector injector_;
  bool deadline_armed_ = false;
  std::chrono::steady_clock::time_point deadline_;

  int worker_threads_;
  std::unique_ptr<ThreadPool> pool_;

  DeviceCounters counters_;
  /// Open PassLogScopes, in opening order; FinishPass appends every
  /// finished pass to each. Empty in steady state.
  std::vector<PassLogScope*> pass_log_scopes_;
};

/// \brief RAII window onto a device's per-pass records.
///
/// The device keeps only scalar DeviceCounters. While a scope is open,
/// every pass the device finishes is also appended to the scope's
/// records(); nested or overlapping scopes each see every pass, and a scope
/// sees nothing after it closes. With no scope open nothing is retained, so
/// a device's bookkeeping stays the same size however long it runs.
///
///   gpu::PassLogScope log(&device);
///   GPUDB_RETURN_NOT_OK(core::CompareSelect(&device, attr, op, t).status());
///   for (const gpu::PassRecord& pass : log.records()) { ... }
///
/// A scope opened with `profile` turns on the deep per-pass counters
/// (PassRecord::prof) for this device while it is open, as the process-wide
/// Profiler switch does for every device (EXPLAIN PROFILE).
///
/// Like the device, a scope belongs to the thread that issues passes: the
/// record is appended in FinishPass, after the band reduction, never from
/// a pixel-engine worker. The scope must not outlive its device.
class PassLogScope {
 public:
  explicit PassLogScope(Device* device, bool profile = false);
  ~PassLogScope();

  PassLogScope(const PassLogScope&) = delete;
  PassLogScope& operator=(const PassLogScope&) = delete;

  /// Passes finished on the device since this scope opened, in order.
  const std::vector<PassRecord>& records() const { return records_; }

 private:
  friend class Device;

  Device* device_;
  bool profile_;
  std::vector<PassRecord> records_;
};

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_DEVICE_H_
