// Long-session soak: one sql::Session runs the same statement over and over
// -- a one-pass COUNT, and EXPLAIN ANALYZE of that COUNT. Per-statement
// bookkeeping must be fixed-size, so the session's thousandth statement
// costs what its first did: peak RSS stops growing after a warm-up, every
// answer stays exact, no span outlives its statement, and -- at the long
// setting -- the last statements run as fast as the first.
//
// $GPUDB_SOAK_STATEMENTS sets the length (default 20000, the ctest run).
// From 100000 statements on, the latency gate runs too: the median latency
// of the last 10k statements must be at most 1.5x that of the first 10k.
// scripts/check.sh runs the soak at 1M statements.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/trace.h"
#include "src/db/catalog.h"
#include "src/db/column.h"
#include "src/db/table.h"
#include "src/gpu/device.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GPUDB_SOAK_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GPUDB_SOAK_SANITIZED 1
#endif

namespace gpudb {
namespace {

constexpr uint32_t kRows = 4096;
constexpr uint64_t kWarmup = 1000;
constexpr size_t kWindow = 10000;
constexpr uint64_t kLatencyGateFrom = 100000;
constexpr long kMaxRssGrowthKb = 4 * 1024;

uint64_t SoakStatements() {
  const char* env = std::getenv("GPUDB_SOAK_STATEMENTS");
  if (env == nullptr || *env == '\0') return 20000;
  return std::strtoull(env, nullptr, 10);
}

/// Peak resident set size of this process so far, in KiB (Linux units).
long MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

class SessionSoak : public ::testing::TestWithParam<const char*> {};

TEST_P(SessionSoak, RepeatedStatementStaysFlatInMemoryAndLatency) {
  const char* const sql = GetParam();
  const uint64_t statements = SoakStatements();
  ASSERT_GT(statements, kWarmup) << "GPUDB_SOAK_STATEMENTS too small";

  Random rng(20260805);
  std::vector<uint32_t> values(kRows);
  uint64_t want = 0;
  for (uint32_t& v : values) {
    v = static_cast<uint32_t>(rng.NextUint64(1024));
    if (v > 500) ++want;
  }
  db::Table table;
  ASSERT_OK_AND_ASSIGN(db::Column column, db::Column::MakeInt24("a", values));
  ASSERT_OK(table.AddColumn(std::move(column)));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("t", &table));
  gpu::Device device(64, 64);
  sql::Session session(&device, &catalog);

  // Latency windows are fixed-size and touched up front, so they do not
  // show up as growth themselves.
  const size_t window =
      static_cast<size_t>(std::min<uint64_t>(kWindow, statements / 2));
  std::vector<double> first(window, 0.0);
  std::vector<double> last(window, 0.0);
  long rss_after_warmup = 0;
  for (uint64_t i = 0; i < statements; ++i) {
    if (i == kWarmup) rss_after_warmup = MaxRssKb();
    const auto start = std::chrono::steady_clock::now();
    Result<sql::QueryResult> result = session.Execute(sql);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ASSERT_TRUE(result.ok())
        << "statement " << i << ": " << result.status().ToString();
    ASSERT_EQ(result.ValueOrDie().count, want) << "statement " << i;
    if (i < window) first[i] = ms;
    if (i >= statements - window) last[i - (statements - window)] = ms;
  }
  const long growth_kb = MaxRssKb() - rss_after_warmup;
  const double first_median = Median(first);
  const double last_median = Median(last);
  std::printf("soak: %s: %llu statements, peak RSS growth %ld KiB after "
              "%llu warm-up, median latency first %zu %.4f ms, last %zu "
              "%.4f ms\n",
              sql, static_cast<unsigned long long>(statements), growth_kb,
              static_cast<unsigned long long>(kWarmup), window, first_median,
              window, last_median);

#ifndef GPUDB_SOAK_SANITIZED
  // Sanitizer runtimes hold freed memory in quarantine, so RSS there says
  // nothing about the engine's own retention.
  EXPECT_LT(growth_kb, kMaxRssGrowthKb);
#endif
  if (statements >= kLatencyGateFrom) {
    EXPECT_LE(last_median, 1.5 * first_median);
  }
  // Tracing is off: EXPLAIN's spans went to the statement, not the process.
  ASSERT_FALSE(Tracer::Global().enabled());
  EXPECT_TRUE(Tracer::Global().Finished().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Statements, SessionSoak,
    ::testing::Values("SELECT COUNT(*) FROM t WHERE a > 500",
                      "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE a > 500"));

}  // namespace
}  // namespace gpudb
