#ifndef GPUDB_COMMON_METRICS_H_
#define GPUDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace gpudb {

/// \brief Monotonically increasing event count (queries run, passes
/// rendered, bytes moved). Thread-safe; cheap enough for simulator hot
/// paths.
class MetricCounter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-value-wins instantaneous measurement (resident video memory,
/// table row count).
class MetricGauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Log-scale latency histogram.
///
/// Buckets are powers of two: bucket i counts values in (2^(i-1+kMinExp),
/// 2^(i+kMinExp)], with bucket 0 catching everything at or below 2^kMinExp.
/// With kMinExp = -10 the histogram resolves ~1 microsecond to ~9 hours when
/// recording milliseconds, which covers every latency this codebase can
/// produce. Negative values clamp into bucket 0.
class MetricHistogram {
 public:
  static constexpr int kBuckets = 45;
  static constexpr int kMinExp = -10;

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

  /// Upper bound of a bucket (2^(bucket + kMinExp)).
  static double BucketUpperBound(int bucket);
  /// The bucket a value falls into.
  static int BucketFor(double value);

  /// Estimated value at quantile q (upper bound of the bucket that contains
  /// the q-th recorded value; 0 when empty). q is clamped into [0,1]; NaN is
  /// treated as 0, so no input produces undefined behavior.
  double Quantile(double q) const;

  void Reset();

 private:
  // lint: lock-free (relaxed atomics; each bucket/count/sum cell is
  // independently consistent, readers tolerate torn cross-field views)
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};  // lint: lock-free (relaxed atomic)
  std::atomic<double> sum_{0.0};    // lint: lock-free (CAS-loop accumulator)
  // min_/max_ are atomics so min()/max() read without a lock; minmax_mu_
  // only serializes the compare-then-store pairs in Record.
  std::atomic<double> min_{0.0};  // lint: lock-free (see minmax_mu_ note)
  std::atomic<double> max_{0.0};  // lint: lock-free (see minmax_mu_ note)
  mutable Mutex minmax_mu_;
};

/// \brief Point-in-time copy of every instrument in a MetricsRegistry.
///
/// This is the structured feed for relational introspection (the
/// `gpudb_metrics` / `gpudb_counters` system tables in db/catalog) and for
/// the Prometheus text exposition; the Dump* methods are rendered views of
/// the same data.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// (bucket upper bound, non-cumulative count), non-empty buckets only.
    std::vector<std::pair<double, uint64_t>> buckets;
  };
  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;
};

/// \brief Process-wide registry of named metrics.
///
/// Instruments are created on first use and live for the registry's
/// lifetime, so call sites may cache the returned references:
///
///   static MetricCounter& passes =
///       MetricsRegistry::Global().counter("gpu.passes");
///   passes.Increment();
///
/// Names are dotted paths by convention ("gpu.passes", "sql.query_ms").
/// Tests may construct private registries; Global() is the shared one.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  MetricCounter& counter(std::string_view name);
  MetricGauge& gauge(std::string_view name);
  MetricHistogram& histogram(std::string_view name);

  /// Consistent copy of every instrument, sorted by name within each kind.
  MetricsSnapshot Snapshot() const;

  /// Human-readable dump, one metric per line, sorted by name.
  std::string DumpText() const;

  /// Prometheus text exposition (version 0.0.4): metric names are prefixed
  /// with "gpudb_" and sanitized to [a-zA-Z0-9_]; every metric gets a
  /// `# HELP` line (carrying the original dotted name, escaped) before its
  /// `# TYPE` line; label values escape backslash/quote/newline; NaN and
  /// infinities render as `NaN`/`+Inf`/`-Inf`; histograms emit the standard
  /// cumulative _bucket{le=...}/_sum/_count series.
  std::string DumpPrometheus() const;

  /// Zeroes every registered instrument (instruments stay registered, so
  /// cached references remain valid). Intended for tests and bench setup.
  void ResetForTesting();

 private:
  /// Lock-order level: `metrics` (innermost leaf, alongside the other
  /// telemetry sinks) -- nothing is called out while mu_ is held.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace gpudb

#endif  // GPUDB_COMMON_METRICS_H_
