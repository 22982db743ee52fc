#ifndef GPUDB_COMMON_PROFILE_H_
#define GPUDB_COMMON_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace gpudb {

/// \brief Deep per-pass pipeline counters (gpuprof, DESIGN.md §13).
///
/// Every field is a deterministic function of the pass inputs: kill counts
/// come from the fragment tests themselves and the plane-traffic fields from
/// the bandwidth model applied to those counts, so two runs of the same pass
/// -- at any thread count -- produce bit-identical PassProfiles. Wall-clock
/// measurements (band timings, engine busy time) deliberately live outside
/// this struct, in metrics histograms and trace counter tracks.
struct PassProfile {
  /// Fragments removed before any depth-plane access: fragment-program
  /// KIL (discard) plus fixed-function alpha-test failures.
  uint64_t alpha_killed = 0;
  /// Fragments removed by the stencil function (Op1 path).
  uint64_t stencil_killed = 0;
  /// Fragments that reached the depth unit (survived alpha + stencil).
  uint64_t depth_tested = 0;
  /// Depth-tested fragments killed by depth bounds or the depth compare
  /// (Op2 path).
  uint64_t depth_killed = 0;
  /// Fragments counted by an active occlusion query.
  uint64_t occlusion_samples = 0;
  /// Modeled plane traffic: stencil reads are 1 byte, depth reads/writes 4
  /// bytes, color writes 16 bytes (4 float32 channels).
  uint64_t plane_bytes_read = 0;
  uint64_t plane_bytes_written = 0;

  void Merge(const PassProfile& other) {
    alpha_killed += other.alpha_killed;
    stencil_killed += other.stencil_killed;
    depth_tested += other.depth_tested;
    depth_killed += other.depth_killed;
    occlusion_samples += other.occlusion_samples;
    plane_bytes_read += other.plane_bytes_read;
    plane_bytes_written += other.plane_bytes_written;
  }

  bool operator==(const PassProfile&) const = default;
};

/// \brief Aggregated profile for all passes sharing one label ("compare",
/// "stencil_reduce", ...), as surfaced by the gpudb_profile system table and
/// EXPLAIN PROFILE.
struct PassProfileGroup {
  std::string label;
  uint64_t passes = 0;
  uint64_t fragments = 0;         ///< fragments rasterized
  uint64_t fragments_passed = 0;  ///< fragments that reached the color stage
  uint64_t fused_passes = 0;      ///< passes the planner fused (DESIGN.md §14)
  uint64_t cache_hits = 0;        ///< depth-plane cache restores
  PassProfile prof;

  /// Folds one finished pass into the group: the fold of both the process
  /// aggregate (Profiler::RecordPass) and EXPLAIN PROFILE's table.
  void Add(uint64_t pass_fragments, uint64_t pass_fragments_passed,
           const PassProfile& pass_prof, bool fused, bool cache_hit) {
    ++passes;
    fragments += pass_fragments;
    fragments_passed += pass_fragments_passed;
    if (fused) ++fused_passes;
    if (cache_hit) ++cache_hits;
    prof.Merge(pass_prof);
  }
};

/// \brief Process-wide switch and aggregation point for deep profiling.
///
/// Disabled by default; `enabled()` is a relaxed atomic load the Device
/// reads once per pass, and the row kernel skips the kill counts it gates
/// behind that per-pass flag, so the profiler costs nothing measurable
/// when off and <5% when on. A profiling gpu::PassLogScope asks one device
/// for deep counters without this switch; those passes land here too.
///
/// RecordPass aggregates by pass label under a mutex -- called once per
/// pass, not per fragment, so contention is irrelevant. RecordBandTimings
/// feeds the wall-clock side: the "gpu.band_ms" histogram, the
/// "gpu.band_imbalance" gauge (max band time over mean, 1.0 = perfectly
/// balanced), and per-band Chrome-trace counter samples when tracing.
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  static Profiler& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Folds one finished pass into the per-label aggregate. Labels appear in
  /// Snapshot() in sorted order, so the aggregate view is deterministic
  /// regardless of pass interleaving. `fused` and `cache_hit` are the
  /// pass's planner fast-path marks.
  void RecordPass(std::string_view label, uint64_t fragments,
                  uint64_t fragments_passed, const PassProfile& prof,
                  bool fused = false, bool cache_hit = false);

  /// Records one ParallelFor dispatch's per-band wall times (milliseconds).
  /// Updates the "gpu.band_ms" histogram and the "gpu.band_imbalance" gauge
  /// and, when the thread's current Tracer is enabled, emits one counter
  /// sample per band on the "gpu.band_ms" track.
  void RecordBandTimings(const std::vector<double>& band_ms);

  /// Point-in-time copy of every label aggregate, sorted by label.
  std::vector<PassProfileGroup> Snapshot() const;

  /// Drops all label aggregates (the enabled flag is left alone).
  void ResetForTesting();

 private:
  std::atomic<bool> enabled_{false};  // lint: lock-free (relaxed atomic)
  /// Lock-order level: `profile` (innermost leaf) -- RecordPass holds mu_
  /// only for the map fold, never into other subsystems.
  mutable Mutex mu_;
  std::map<std::string, PassProfileGroup, std::less<>> groups_
      GUARDED_BY(mu_);
};

/// \brief Renders profile groups as the fixed-width counter table EXPLAIN
/// PROFILE appends below the operator tree. Only deterministic counters are
/// printed -- no wall times -- so the rendered text is byte-identical across
/// thread counts (the bit-stability acceptance check diffs this string).
std::string FormatPassProfileTable(const std::vector<PassProfileGroup>& groups);

}  // namespace gpudb

#endif  // GPUDB_COMMON_PROFILE_H_
