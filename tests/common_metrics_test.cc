#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/metrics.h"

namespace gpudb {
namespace {

TEST(MetricCounterTest, AddAndReset) {
  MetricsRegistry registry;
  MetricCounter& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.counter("test.counter"), &c);
  registry.ResetForTesting();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricGaugeTest, LastValueWins) {
  MetricsRegistry registry;
  MetricGauge& g = registry.gauge("test.gauge");
  g.Set(3.5);
  g.Set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(MetricHistogramTest, BucketBoundaries) {
  // Bucket i covers (2^(i-1+kMinExp), 2^(i+kMinExp)]; values at the upper
  // bound land in the bucket, values just above spill into the next.
  const int one_bucket = MetricHistogram::BucketFor(1.0);  // 2^0
  EXPECT_DOUBLE_EQ(MetricHistogram::BucketUpperBound(one_bucket), 1.0);
  EXPECT_EQ(MetricHistogram::BucketFor(1.0001), one_bucket + 1);
  EXPECT_EQ(MetricHistogram::BucketFor(2.0), one_bucket + 1);
  EXPECT_EQ(MetricHistogram::BucketFor(0.5), one_bucket - 1);
  // Non-positive and tiny values clamp into bucket 0.
  EXPECT_EQ(MetricHistogram::BucketFor(0.0), 0);
  EXPECT_EQ(MetricHistogram::BucketFor(-5.0), 0);
  EXPECT_EQ(MetricHistogram::BucketFor(1e-12), 0);
  // Huge values clamp into the last bucket.
  EXPECT_EQ(MetricHistogram::BucketFor(1e30), MetricHistogram::kBuckets - 1);
}

TEST(MetricHistogramTest, RecordsCountSumMinMax) {
  MetricsRegistry registry;
  MetricHistogram& h = registry.histogram("test.latency");
  h.Record(1.0);
  h.Record(4.0);
  h.Record(0.25);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.25);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_EQ(h.bucket_count(MetricHistogram::BucketFor(1.0)), 1u);
  EXPECT_EQ(h.bucket_count(MetricHistogram::BucketFor(4.0)), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(MetricHistogramTest, QuantileUsesBucketUpperBounds) {
  MetricsRegistry registry;
  MetricHistogram& h = registry.histogram("test.quantile");
  for (int i = 0; i < 99; ++i) h.Record(1.0);
  h.Record(1024.0);
  // The 50th percentile is in the 1.0 bucket, the 100th in the 1024 bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1024.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
}

TEST(MetricHistogramTest, QuantileEdgeCases) {
  MetricsRegistry registry;
  MetricHistogram& h = registry.histogram("test.quantile_edge");
  // Empty histogram: every quantile is 0 (no observations).
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
  // Single bucket: every quantile lands on that bucket's upper bound.
  h.Record(3.0);
  const double only = MetricHistogram::BucketUpperBound(
      MetricHistogram::BucketFor(3.0));
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), only);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), only);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), only);
  // Out-of-range and NaN arguments clamp instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), only);
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), only);
  EXPECT_DOUBLE_EQ(h.Quantile(std::nan("")), only);
}

TEST(MetricsRegistryTest, SnapshotCopiesAllInstruments) {
  MetricsRegistry registry;
  registry.counter("snap.counter").Add(7);
  registry.gauge("snap.gauge").Set(-1.25);
  MetricHistogram& h = registry.histogram("snap.hist");
  h.Record(1.0);
  h.Record(8.0);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "snap.counter");
  EXPECT_EQ(snap.counters[0].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, -1.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 9.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].min, 1.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, 8.0);
  ASSERT_EQ(snap.histograms[0].buckets.size(), 2u);
}

TEST(MetricsRegistryTest, DumpPrometheusTextExposition) {
  MetricsRegistry registry;
  registry.counter("sql.queries").Add(5);
  registry.gauge("cache.bytes").Set(2048.0);
  MetricHistogram& h = registry.histogram("query.wall_ms");
  h.Record(1.0);
  h.Record(1.0);
  h.Record(512.0);
  const std::string text = registry.DumpPrometheus();
  // Names are prefixed and sanitized for Prometheus.
  EXPECT_NE(text.find("# TYPE gpudb_sql_queries counter"), std::string::npos);
  // Each metric gets a HELP line carrying the original dotted name, and
  // promtool wants it before the TYPE line.
  const size_t help_pos = text.find("# HELP gpudb_sql_queries ");
  const size_t type_pos = text.find("# TYPE gpudb_sql_queries ");
  ASSERT_NE(help_pos, std::string::npos);
  ASSERT_NE(type_pos, std::string::npos);
  EXPECT_LT(help_pos, type_pos);
  EXPECT_NE(text.find("sql.queries"), std::string::npos);
  EXPECT_NE(text.find("gpudb_sql_queries 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gpudb_cache_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("gpudb_cache_bytes 2048"), std::string::npos);
  // Histograms emit cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(text.find("# TYPE gpudb_query_wall_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gpudb_query_wall_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("gpudb_query_wall_ms_sum 514"), std::string::npos);
  EXPECT_NE(text.find("gpudb_query_wall_ms_count 3"), std::string::npos);
  // Cumulative: the bucket holding 1.0 reports 2, later buckets at least 2.
  EXPECT_NE(text.find("le=\"1\"} 2"), std::string::npos);
}

TEST(MetricsRegistryTest, DumpPrometheusEscapesAndSpecialValues) {
  MetricsRegistry registry;
  // A metric name with every character class the sanitizer must fold, whose
  // HELP line must escape the backslash it contains.
  registry.counter("weird\\name with spaces").Add(1);
  registry.gauge("gauge.nan").Set(std::nan(""));
  registry.gauge("gauge.posinf").Set(std::numeric_limits<double>::infinity());
  registry.gauge("gauge.neginf").Set(-std::numeric_limits<double>::infinity());
  const std::string text = registry.DumpPrometheus();

  // Sanitized sample line: every non-alphanumeric folded to '_'.
  EXPECT_NE(text.find("gpudb_weird_name_with_spaces 1"), std::string::npos);
  // HELP escape: the raw backslash in the dotted name becomes "\\".
  EXPECT_NE(text.find("weird\\\\name with spaces"), std::string::npos);
  // Non-finite values spell out the Prometheus forms, never printf's "nan".
  EXPECT_NE(text.find("gpudb_gauge_nan NaN"), std::string::npos);
  EXPECT_NE(text.find("gpudb_gauge_posinf +Inf"), std::string::npos);
  EXPECT_NE(text.find("gpudb_gauge_neginf -Inf"), std::string::npos);
  EXPECT_EQ(text.find(" nan"), std::string::npos);
  EXPECT_EQ(text.find(" inf"), std::string::npos);
  EXPECT_EQ(text.find(" -inf"), std::string::npos);

  // promtool-style structural check: every non-comment line is
  // "<name>[{labels}] <value>"; every series has HELP+TYPE above it.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, line.find_first_of(" {"));
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_')
          << line;
    }
  }
}

TEST(MetricsRegistryTest, DumpTextListsEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("z.counter").Add(3);
  registry.gauge("a.gauge").Set(1.5);
  registry.histogram("m.hist").Record(2.0);
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("z.counter"), std::string::npos);
  EXPECT_NE(text.find("a.gauge"), std::string::npos);
  EXPECT_NE(text.find("m.hist"), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace gpudb
