#include "src/gpu/fault_injector.h"

#include <utility>

#include "src/common/metrics.h"

namespace gpudb {
namespace gpu {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {

/// Injection metrics, cached like DeviceMetrics in device.cc.
struct FaultMetrics {
  MetricCounter& injected =
      MetricsRegistry::Global().counter("faults.injected");
  MetricCounter& alloc =
      MetricsRegistry::Global().counter("faults.injected.alloc");
  MetricCounter& pass =
      MetricsRegistry::Global().counter("faults.injected.pass");
  MetricCounter& occlusion =
      MetricsRegistry::Global().counter("faults.injected.occlusion");
  MetricCounter& readback =
      MetricsRegistry::Global().counter("faults.injected.readback");

  static FaultMetrics& Get() {
    static FaultMetrics* m = new FaultMetrics();
    return *m;
  }
};

MetricCounter& SiteCounter(const char* site) {
  FaultMetrics& m = FaultMetrics::Get();
  switch (site[0]) {
    case 'a':
      return m.alloc;
    case 'p':
      return m.pass;
    case 'o':
      return m.occlusion;
    default:
      return m.readback;
  }
}

}  // namespace

void FaultInjector::Configure(const FaultConfig& config) {
  config_ = config;
  if (config_.rate < 0.0) config_.rate = 0.0;
  if (config_.rate > 1.0) config_.rate = 1.0;
  draws_ = 0;
  faults_ = 0;
}

bool FaultInjector::Draw() {
  const uint64_t bits =
      SplitMix64(config_.effective_seed() ^ SplitMix64(++draws_));
  // 53 high bits -> uniform double in [0, 1).
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return u < config_.rate;
}

Status FaultInjector::Inject(const char* site, std::string message) {
  ++faults_;
  FaultMetrics::Get().injected.Increment();
  SiteCounter(site).Increment();
  return Status::DeviceLost(std::move(message));
}

Status FaultInjector::OnAllocation(uint64_t bytes) {
  if (!enabled() || !Draw()) return Status::OK();
  return Inject("alloc", "injected: video memory allocation of " +
                             std::to_string(bytes) + " bytes failed");
}

Status FaultInjector::OnPass() {
  if (!enabled() || !Draw()) return Status::OK();
  return Inject("pass", "injected: watchdog timeout aborted rendering pass");
}

Status FaultInjector::OnOcclusionReadback() {
  if (!enabled() || !Draw()) return Status::OK();
  return Inject("occlusion",
                "injected: occlusion query result lost in transit");
}

Status FaultInjector::OnReadback(std::string_view what) {
  if (!enabled() || !Draw()) return Status::OK();
  return Inject("readback", "injected: " + std::string(what) +
                                " readback corruption detected");
}

}  // namespace gpu
}  // namespace gpudb
