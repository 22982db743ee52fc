// Extension bench: k-means clustering (paper Section 7 future work:
// "classification, and clustering"). The algorithm straddles the paper's
// Section 6.2 gain classes: the ASSIGNMENT step is a selection (Voronoi
// cells = conjunctions of semi-linear half-planes -- high-gain class), while
// the UPDATE step is an aggregation (masked coordinate sums through the
// Accumulator -- the low-gain class of Figure 10). The per-phase breakdown
// makes the split visible.

#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/core/accumulator.h"
#include "src/core/eval_cnf.h"
#include "src/core/kmeans.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace bench {
namespace {

int Run() {
  PrintHeader("Extension: k-means clustering",
              "k=4 over 100K integer points, per-phase cost split",
              "clustering as future work (Section 7); assignment is "
              "high-gain selection, update is low-gain accumulation");
  constexpr size_t kPoints = 100'000;
  constexpr int kBits = 10;
  Random rng(777);
  std::vector<float> xs(kPoints), ys(kPoints);
  std::vector<uint32_t> xs_i(kPoints), ys_i(kPoints);
  const std::vector<std::pair<float, float>> truth = {
      {200, 200}, {800, 250}, {300, 800}, {750, 750}};
  for (size_t i = 0; i < kPoints; ++i) {
    const auto& [cx, cy] = truth[i % truth.size()];
    const double x =
        std::clamp(cx + 60.0 * rng.NextGaussian(), 0.0, 1023.0);
    const double y =
        std::clamp(cy + 60.0 * rng.NextGaussian(), 0.0, 1023.0);
    xs_i[i] = static_cast<uint32_t>(x);
    ys_i[i] = static_cast<uint32_t>(y);
    xs[i] = static_cast<float>(xs_i[i]);
    ys[i] = static_cast<float>(ys_i[i]);
  }
  gpu::Device device(1000, 1000);
  auto tex = gpu::Texture::FromColumns({&xs, &ys}, 1000);
  if (!tex.ok()) return 1;
  auto id = device.UploadTexture(std::move(tex).ValueOrDie());
  if (!id.ok() || !device.SetViewport(kPoints).ok()) return 1;
  const std::vector<std::pair<float, float>> init = {
      {100, 100}, {900, 100}, {100, 900}, {900, 900}};

  gpu::PerfModel model;
  device.ResetCounters();
  gpu::PassLogScope passes(&device);
  Timer gpu_timer;
  auto result = core::KMeans2D(&device, id.ValueOrDie(), kBits, init, 20);
  const double gpu_wall = gpu_timer.ElapsedMs();
  if (!result.ok()) return 1;
  const gpu::GpuTimeBreakdown b = model.Estimate(device.counters());

  // Per-phase split from the pass records: Accumulator passes run TestBitFP.
  double update_ms = 0, assign_ms = 0;
  for (const gpu::PassRecord& pass : passes.records()) {
    if (pass.label == "TestBitFP") {
      update_ms += model.PassFillMs(pass) + model.params().pass_setup_ms;
    } else {
      assign_ms += model.PassFillMs(pass) + model.params().pass_setup_ms;
    }
  }

  Timer cpu_timer;
  const core::KMeansResult cpu_result =
      core::CpuKMeans2D(xs_i, ys_i, init, 20);
  const double cpu_wall = cpu_timer.ElapsedMs();

  bool same = result.ValueOrDie().iterations_run == cpu_result.iterations_run;
  for (size_t j = 0; same && j < init.size(); ++j) {
    same = result.ValueOrDie().cluster_sizes[j] == cpu_result.cluster_sizes[j];
  }

  std::printf("iterations:           %d (converged: %s, matches CPU: %s)\n",
              result.ValueOrDie().iterations_run,
              result.ValueOrDie().converged ? "yes" : "no",
              same ? "yes" : "MISMATCH");
  std::printf("gpu model total:      %.2f ms\n", b.TotalMs());
  std::printf("  assignment passes:  %.2f ms (selection class, ~%d passes)\n",
              assign_ms,
              static_cast<int>(device.counters().passes));
  std::printf("  update (sums):      %.2f ms (accumulation class)\n",
              update_ms);
  std::printf("  occlusion readbacks:%.2f ms\n",
              static_cast<double>(device.counters().occlusion_readbacks) *
                  model.params().occlusion_readback_ms);
  std::printf("wall: gpu sim %.0f ms, cpu reference %.1f ms\n", gpu_wall,
              cpu_wall);
  for (size_t j = 0; j < init.size(); ++j) {
    std::printf("centroid %zu: (%.1f, %.1f), %llu points\n", j,
                result.ValueOrDie().centroids[j].first,
                result.ValueOrDie().centroids[j].second,
                static_cast<unsigned long long>(
                    result.ValueOrDie().cluster_sizes[j]));
  }
  PrintFooter(
      "The update step's masked coordinate sums dominate the GPU cost "
      "(Figure 10's weakness inherited), while the Voronoi assignment rides "
      "the fast selection path -- k-means on 2004 hardware wants the "
      "co-processor split: GPU assignment, CPU update.");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gpudb

int main(int argc, char** argv) {
  gpudb::bench::InitBench(argc, argv);
  return gpudb::bench::Run();
}
