#include "src/common/profile.h"

#include <algorithm>
#include <cstdio>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace gpudb {

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

void Profiler::RecordPass(std::string_view label, uint64_t fragments,
                          uint64_t fragments_passed, const PassProfile& prof,
                          bool fused, bool cache_hit) {
  MutexLock lock(&mu_);
  auto it = groups_.find(label);
  if (it == groups_.end()) {
    it = groups_.emplace(std::string(label), PassProfileGroup{}).first;
    it->second.label = std::string(label);
  }
  it->second.Add(fragments, fragments_passed, prof, fused, cache_hit);
}

void Profiler::RecordBandTimings(const std::vector<double>& band_ms) {
  if (band_ms.empty()) return;
  // Cached instrument references: RecordBandTimings runs once per pass, but
  // a bench sweep issues tens of thousands of passes.
  static MetricHistogram& band_hist =
      MetricsRegistry::Global().histogram("gpu.band_ms");
  static MetricGauge& imbalance =
      MetricsRegistry::Global().gauge("gpu.band_imbalance");
  double sum = 0.0;
  double max = 0.0;
  for (double ms : band_ms) {
    band_hist.Record(ms);
    sum += ms;
    max = std::max(max, ms);
  }
  const double mean = sum / static_cast<double>(band_ms.size());
  imbalance.Set(mean > 0.0 ? max / mean : 1.0);
  Tracer& tracer = Tracer::Current();
  if (tracer.enabled()) {
    for (double ms : band_ms) tracer.Counter("gpu.band_ms", ms);
  }
}

std::vector<PassProfileGroup> Profiler::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<PassProfileGroup> out;
  out.reserve(groups_.size());
  for (const auto& [label, group] : groups_) out.push_back(group);
  return out;  // std::map iteration order: already sorted by label.
}

void Profiler::ResetForTesting() {
  MutexLock lock(&mu_);
  groups_.clear();
}

std::string FormatPassProfileTable(
    const std::vector<PassProfileGroup>& groups) {
  std::string out;
  if (groups.empty()) return out;
  size_t label_width = 4;  // "pass"
  for (const PassProfileGroup& g : groups) {
    label_width = std::max(label_width, g.label.size());
  }
  char line[512];
  std::snprintf(line, sizeof(line),
                "%-*s %6s %12s %12s %12s %12s %12s %12s %10s %12s %12s %6s "
                "%6s\n",
                static_cast<int>(label_width), "pass", "count", "fragments",
                "alpha_kill", "stencil_kill", "depth_test", "depth_kill",
                "passed", "occl", "plane_rd_B", "plane_wr_B", "fused",
                "c_hit");
  out += line;
  for (const PassProfileGroup& g : groups) {
    std::snprintf(line, sizeof(line),
                  "%-*s %6llu %12llu %12llu %12llu %12llu %12llu %12llu "
                  "%10llu %12llu %12llu %6llu %6llu\n",
                  static_cast<int>(label_width), g.label.c_str(),
                  static_cast<unsigned long long>(g.passes),
                  static_cast<unsigned long long>(g.fragments),
                  static_cast<unsigned long long>(g.prof.alpha_killed),
                  static_cast<unsigned long long>(g.prof.stencil_killed),
                  static_cast<unsigned long long>(g.prof.depth_tested),
                  static_cast<unsigned long long>(g.prof.depth_killed),
                  static_cast<unsigned long long>(g.fragments_passed),
                  static_cast<unsigned long long>(g.prof.occlusion_samples),
                  static_cast<unsigned long long>(g.prof.plane_bytes_read),
                  static_cast<unsigned long long>(g.prof.plane_bytes_written),
                  static_cast<unsigned long long>(g.fused_passes),
                  static_cast<unsigned long long>(g.cache_hits));
    out += line;
  }
  return out;
}

}  // namespace gpudb
