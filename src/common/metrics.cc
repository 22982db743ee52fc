#include "src/common/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>


namespace gpudb {

void MetricHistogram::Record(double value) {
  const int bucket = BucketFor(value);
  buckets_[static_cast<size_t>(bucket)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // atomic<double> has no fetch_add pre-C++20 on all targets; CAS-loop keeps
  // the sum exact under concurrent recording.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
  MutexLock lock(&minmax_mu_);
  if (count() == 1 || value < min_.load(std::memory_order_relaxed)) {
    min_.store(value, std::memory_order_relaxed);
  }
  if (count() == 1 || value > max_.load(std::memory_order_relaxed)) {
    max_.store(value, std::memory_order_relaxed);
  }
}

double MetricHistogram::min() const {
  return min_.load(std::memory_order_relaxed);
}

double MetricHistogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

double MetricHistogram::BucketUpperBound(int bucket) {
  return std::ldexp(1.0, bucket + kMinExp);
}

int MetricHistogram::BucketFor(double value) {
  if (!(value > 0.0)) return 0;  // catches negatives and NaN
  const int exp = static_cast<int>(std::ceil(std::log2(value)));
  return std::clamp(exp - kMinExp, 0, kBuckets - 1);
}

double MetricHistogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  // std::clamp passes NaN through (all comparisons are false), which would
  // turn the rank cast below into undefined behavior.
  if (std::isnan(q)) q = 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket_count(b);
    if (seen >= rank) return BucketUpperBound(b);
  }
  return BucketUpperBound(kBuckets - 1);
}

void MetricHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricCounter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<MetricCounter>();
  return *slot;
}

MetricGauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<MetricGauge>();
  return *slot;
}

MetricHistogram& MetricsRegistry::histogram(std::string_view name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[std::string(name)];
  if (slot == nullptr) slot = std::make_unique<MetricHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramEntry e;
    e.name = name;
    e.count = h->count();
    e.sum = h->sum();
    e.min = h->min();
    e.max = h->max();
    e.p50 = h->Quantile(0.5);
    e.p95 = h->Quantile(0.95);
    e.p99 = h->Quantile(0.99);
    for (int b = 0; b < MetricHistogram::kBuckets; ++b) {
      const uint64_t n = h->bucket_count(b);
      if (n > 0) {
        e.buckets.emplace_back(MetricHistogram::BucketUpperBound(b), n);
      }
    }
    snap.histograms.push_back(std::move(e));
  }
  return snap;
}

namespace {

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; fold the
/// registry's dotted names ("executor.count") into underscores and prefix
/// the namespace, which also guarantees a legal first character.
std::string PrometheusName(const std::string& name) {
  std::string out = "gpudb_";
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

/// HELP text escaping (text exposition 0.0.4): backslash and newline.
std::string EscapeHelpText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Label-value escaping: backslash, double quote, and newline.
std::string EscapeLabelValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Sample values the way Prometheus parsers expect them: `NaN`, `+Inf`, and
/// `-Inf` spelled out (printf would write "nan"/"inf", which promtool
/// rejects); finite values round-trip through %.17g.
std::string FormatPromValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// The `# HELP` line (which promtool wants before `# TYPE`) carries the
/// original dotted registry name, so scrapes map back to source call sites.
void AppendPromHeader(const std::string& prom_name, const char* type,
                      const std::string& registry_name, std::string* out) {
  *out += "# HELP " + prom_name + " gpudb registry metric " +
          EscapeHelpText(registry_name) + "\n";
  *out += "# TYPE " + prom_name + " " + type + "\n";
}

}  // namespace

std::string MetricsRegistry::DumpPrometheus() const {
  const MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const auto& c : snap.counters) {
    const std::string n = PrometheusName(c.name);
    AppendPromHeader(n, "counter", c.name, &out);
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : snap.gauges) {
    const std::string n = PrometheusName(g.name);
    AppendPromHeader(n, "gauge", g.name, &out);
    out += n + " " + FormatPromValue(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string n = PrometheusName(h.name);
    AppendPromHeader(n, "histogram", h.name, &out);
    uint64_t cumulative = 0;
    for (const auto& [le, count] : h.buckets) {
      cumulative += count;
      out += n + "_bucket{le=\"" + EscapeLabelValue(FormatPromValue(le)) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + FormatPromValue(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsRegistry::DumpText() const {
  MutexLock lock(&mu_);
  std::string out;
  char buf[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "counter   %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "gauge     %-32s %.6g\n", name.c_str(),
                  g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    std::snprintf(buf, sizeof(buf),
                  "histogram %-32s count=%llu sum=%.6g min=%.6g max=%.6g "
                  "p50=%.6g p95=%.6g p99=%.6g\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  h->sum(), h->min(), h->max(), h->Quantile(0.5),
                  h->Quantile(0.95), h->Quantile(0.99));
    out += buf;
  }
  return out;
}

void MetricsRegistry::ResetForTesting() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace gpudb
