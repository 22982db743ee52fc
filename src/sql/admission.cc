#include "src/sql/admission.h"

#include <algorithm>
#include <chrono>

#include "src/common/metrics.h"

namespace gpudb {
namespace sql {

namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Admission metrics, cached like DeviceMetrics in device.cc.
struct AdmissionMetrics {
  MetricCounter& rejected =
      MetricsRegistry::Global().counter("admission.rejected");
  MetricGauge& queue_depth =
      MetricsRegistry::Global().gauge("admission.queue_depth");
  MetricCounter& throttled =
      MetricsRegistry::Global().counter("tenant.throttled");

  static AdmissionMetrics& Get() {
    static AdmissionMetrics* m = new AdmissionMetrics();
    return *m;
  }
};

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  if (options_.max_concurrent < 1) options_.max_concurrent = 1;
  if (options_.queue_capacity < 0) options_.queue_capacity = 0;
  if (options_.max_queue_wait_ms <= 0.0) options_.max_queue_wait_ms = 1.0;
  if (!options_.now_ms) options_.now_ms = SteadyNowMs;
}

void AdmissionController::Ticket::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot();
    controller_ = nullptr;
  }
}

void AdmissionController::ReleaseSlot() {
  {
    MutexLock lock(&mu_);
    --running_;
  }
  slot_free_.NotifyOne();
}

bool AdmissionController::TakeToken(const std::string& tenant, double now) {
  TokenBucket& bucket = buckets_[tenant];
  if (!bucket.initialized) {
    bucket.tokens = options_.tenant_burst;
    bucket.refilled_at_ms = now;
    bucket.initialized = true;
  }
  const double elapsed_s =
      std::max(0.0, (now - bucket.refilled_at_ms) / 1000.0);
  bucket.tokens = std::min(options_.tenant_burst,
                           bucket.tokens + elapsed_s * options_.tenant_qps);
  bucket.refilled_at_ms = now;
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    const std::string& tenant, double deadline_ms) {
  AdmissionMetrics& metrics = AdmissionMetrics::Get();
  const double now = options_.now_ms();

  // The p95 shed signal is read *before* taking mu_: the registry lookup
  // and the histogram scan belong to the telemetry tier, and the admission
  // lock is the outermost level of the declared order (DESIGN.md §12) --
  // it must never be held into another subsystem. The histogram is all
  // relaxed atomics, so the unlocked read is safe; the verdict is a
  // heuristic snapshot either way.
  double shed_p95 = 0.0;
  bool shed = false;
  if (deadline_ms > 0.0) {
    const MetricHistogram& exec =
        MetricsRegistry::Global().histogram("sql.exec_ms");
    if (exec.count() >= kMinP95Samples) {
      shed_p95 = exec.Quantile(0.95);
      shed = shed_p95 > deadline_ms;
    }
  }

  MutexLock lock(&mu_);
  // 1. Per-tenant quota (token bucket).
  if (options_.tenant_qps > 0.0 && !TakeToken(tenant, now)) {
    metrics.throttled.Increment();
    metrics.rejected.Increment();
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' over quota (" +
        std::to_string(options_.tenant_qps) + " qps); retry later");
  }
  // 2. Deadline-aware rejection: a statement whose remaining budget cannot
  // cover the observed p95 execution time would only waste a device slot.
  if (shed) {
    metrics.rejected.Increment();
    return Status::ResourceExhausted(
        "deadline " + std::to_string(deadline_ms) +
        " ms cannot cover the p95 execution time (" +
        std::to_string(shed_p95) + " ms); shedding load");
  }
  // 3. Bounded admission queue.
  if (running_ < options_.max_concurrent) {
    ++running_;
    return Ticket(this);
  }
  if (waiting_ >= options_.queue_capacity) {
    metrics.rejected.Increment();
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(waiting_) + " waiting, " +
        std::to_string(options_.queue_capacity) + " allowed)");
  }
  ++waiting_;
  metrics.queue_depth.Set(static_cast<double>(waiting_));
  double wait_budget_ms = options_.max_queue_wait_ms;
  if (deadline_ms > 0.0) wait_budget_ms = std::min(wait_budget_ms, deadline_ms);
  // The deadline uses the real steady clock (not options_.now_ms, which
  // tests may fake): the original wait_for semantics were a real-time
  // bound, and a fake clock must not turn the bounded wait into a hang.
  const auto wait_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(wait_budget_ms));
  bool got_slot = true;
  while (running_ >= options_.max_concurrent) {
    if (!slot_free_.WaitUntil(mu_, wait_deadline)) {
      // Timed out: one final predicate check, matching wait_for semantics.
      got_slot = running_ < options_.max_concurrent;
      break;
    }
  }
  --waiting_;
  metrics.queue_depth.Set(static_cast<double>(waiting_));
  if (!got_slot) {
    metrics.rejected.Increment();
    return Status::ResourceExhausted(
        "timed out after " + std::to_string(wait_budget_ms) +
        " ms in the admission queue");
  }
  ++running_;
  return Ticket(this);
}

int AdmissionController::running() const {
  MutexLock lock(&mu_);
  return running_;
}

int AdmissionController::queue_depth() const {
  MutexLock lock(&mu_);
  return waiting_;
}

}  // namespace sql
}  // namespace gpudb
