// gpuprof unit tests: PassProfile arithmetic, Profiler aggregation and
// determinism guarantees, band-timing instruments, and the EXPLAIN PROFILE
// table renderer. The bit-stability of the counters themselves (same values
// at any worker-thread count) is covered end to end in gpu_parallel_test.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/common/trace.h"

namespace gpudb {
namespace {

/// Restores the global profiler/tracer state a test toggles.
class ProfilerGuard {
 public:
  ProfilerGuard()
      : profiler_was_on_(Profiler::Global().enabled()),
        tracer_was_on_(Tracer::Global().enabled()) {}
  ~ProfilerGuard() {
    Profiler::Global().set_enabled(profiler_was_on_);
    Profiler::Global().ResetForTesting();
    Tracer::Global().set_enabled(tracer_was_on_);
  }

 private:
  bool profiler_was_on_;
  bool tracer_was_on_;
};

PassProfile MakeProfile(uint64_t base) {
  PassProfile p;
  p.alpha_killed = base + 1;
  p.stencil_killed = base + 2;
  p.depth_tested = base + 3;
  p.depth_killed = base + 4;
  p.occlusion_samples = base + 5;
  p.plane_bytes_read = base + 6;
  p.plane_bytes_written = base + 7;
  return p;
}

TEST(PassProfileTest, MergeSumsEveryField) {
  PassProfile a = MakeProfile(10);
  const PassProfile b = MakeProfile(100);
  a.Merge(b);
  EXPECT_EQ(a.alpha_killed, 112u);
  EXPECT_EQ(a.stencil_killed, 114u);
  EXPECT_EQ(a.depth_tested, 116u);
  EXPECT_EQ(a.depth_killed, 118u);
  EXPECT_EQ(a.occlusion_samples, 120u);
  EXPECT_EQ(a.plane_bytes_read, 122u);
  EXPECT_EQ(a.plane_bytes_written, 124u);
}

TEST(PassProfileTest, EqualityComparesEveryField) {
  EXPECT_EQ(MakeProfile(3), MakeProfile(3));
  PassProfile changed = MakeProfile(3);
  changed.plane_bytes_written += 1;
  EXPECT_NE(MakeProfile(3), changed);
}

TEST(ProfilerTest, DisabledByDefault) {
  // The global switch must default off so the hot paths stay no-ops.
  ProfilerGuard guard;
  Profiler profiler;
  EXPECT_FALSE(profiler.enabled());
}

TEST(ProfilerTest, RecordPassAggregatesByLabelSorted) {
  ProfilerGuard guard;
  Profiler& profiler = Profiler::Global();
  profiler.ResetForTesting();
  profiler.RecordPass("zeta", 100, 60, MakeProfile(0));
  profiler.RecordPass("alpha", 10, 5, MakeProfile(10));
  profiler.RecordPass("zeta", 200, 120, MakeProfile(0));

  const std::vector<PassProfileGroup> groups = profiler.Snapshot();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].label, "alpha");
  EXPECT_EQ(groups[0].passes, 1u);
  EXPECT_EQ(groups[0].fragments, 10u);
  EXPECT_EQ(groups[0].fragments_passed, 5u);
  EXPECT_EQ(groups[0].prof, MakeProfile(10));
  EXPECT_EQ(groups[1].label, "zeta");
  EXPECT_EQ(groups[1].passes, 2u);
  EXPECT_EQ(groups[1].fragments, 300u);
  EXPECT_EQ(groups[1].fragments_passed, 180u);
  PassProfile doubled = MakeProfile(0);
  doubled.Merge(MakeProfile(0));
  EXPECT_EQ(groups[1].prof, doubled);
}

TEST(ProfilerTest, ResetForTestingDropsGroupsKeepsFlag) {
  ProfilerGuard guard;
  Profiler& profiler = Profiler::Global();
  profiler.set_enabled(true);
  profiler.RecordPass("compare", 10, 10, MakeProfile(0));
  profiler.ResetForTesting();
  EXPECT_TRUE(profiler.Snapshot().empty());
  EXPECT_TRUE(profiler.enabled());
}

TEST(ProfilerTest, BandTimingsFeedHistogramGaugeAndTracer) {
  ProfilerGuard guard;
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t hist_before = registry.histogram("gpu.band_ms").count();

  // The capture is this thread's current tracer: an enabled, private one.
  const TraceCapture capture;

  // max 3.0 over mean 2.0 -> imbalance 1.5.
  Profiler::Global().RecordBandTimings({1.0, 2.0, 3.0});

  EXPECT_EQ(registry.histogram("gpu.band_ms").count(), hist_before + 3);
  EXPECT_DOUBLE_EQ(registry.gauge("gpu.band_imbalance").value(), 1.5);
  const std::vector<CounterSample> samples =
      Tracer::Current().CounterSamples();
  ASSERT_EQ(samples.size(), 3u);
  for (const CounterSample& s : samples) {
    EXPECT_EQ(s.name, "gpu.band_ms");
  }
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);
  EXPECT_DOUBLE_EQ(samples[2].value, 3.0);
}

TEST(ProfilerTest, BandTimingsWithoutTracerEmitNoSamples) {
  ProfilerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(false);
  Profiler::Global().RecordBandTimings({0.5, 0.5});
  EXPECT_TRUE(tracer.CounterSamples().empty());
}

TEST(FormatPassProfileTableTest, EmptyGroupsRenderEmpty) {
  EXPECT_EQ(FormatPassProfileTable({}), "");
}

TEST(FormatPassProfileTableTest, RendersHeaderAndOneRowPerGroup) {
  PassProfileGroup g;
  g.label = "compare";
  g.passes = 3;
  g.fragments = 3000;
  g.fragments_passed = 1800;
  g.prof.alpha_killed = 100;
  g.prof.stencil_killed = 200;
  g.prof.depth_tested = 2700;
  g.prof.depth_killed = 900;
  g.prof.occlusion_samples = 1800;
  g.prof.plane_bytes_read = 11100;
  g.prof.plane_bytes_written = 4096;
  const std::string table = FormatPassProfileTable({g});

  // One header line + one row.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 2);
  EXPECT_NE(table.find("pass"), std::string::npos);
  EXPECT_NE(table.find("depth_kill"), std::string::npos);
  EXPECT_NE(table.find("plane_wr_B"), std::string::npos);
  EXPECT_NE(table.find("compare"), std::string::npos);
  EXPECT_NE(table.find("2700"), std::string::npos);
  EXPECT_NE(table.find("11100"), std::string::npos);
}

TEST(FormatPassProfileTableTest, DeterministicForSameGroups) {
  PassProfileGroup g;
  g.label = "stencil_reduce";
  g.passes = 1;
  g.fragments = 42;
  g.prof = MakeProfile(1);
  EXPECT_EQ(FormatPassProfileTable({g}), FormatPassProfileTable({g}));
}

}  // namespace
}  // namespace gpudb
