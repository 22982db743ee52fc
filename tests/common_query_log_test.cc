#include "src/common/query_log.h"

#include <string>

#include <gtest/gtest.h>

#include "src/common/metrics.h"

namespace gpudb {
namespace {

QueryLogEntry MakeEntry(const std::string& sql, double wall_ms) {
  QueryLogEntry e;
  e.sql = sql;
  e.kind = "count";
  e.wall_ms = wall_ms;
  return e;
}

TEST(QueryLogTest, AssignsSequentialIdsAndKeepsOrder) {
  QueryLog log(8);
  EXPECT_EQ(log.Add(MakeEntry("q1", 1.0)), 1u);
  EXPECT_EQ(log.Add(MakeEntry("q2", 1.0)), 2u);
  EXPECT_EQ(log.Add(MakeEntry("q3", 1.0)), 3u);
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].sql, "q1");
  EXPECT_EQ(entries[2].sql, "q3");
  EXPECT_EQ(log.total_recorded(), 3u);
}

TEST(QueryLogTest, RingEvictsOldestBeyondCapacity) {
  QueryLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.Add(MakeEntry("q" + std::to_string(i), 1.0));
  }
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  // q0 and q1 were evicted; ids keep counting past the eviction.
  EXPECT_EQ(entries[0].sql, "q2");
  EXPECT_EQ(entries[0].id, 3u);
  EXPECT_EQ(entries[2].sql, "q4");
  EXPECT_EQ(entries[2].id, 5u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5u);
}

TEST(QueryLogTest, SlowThresholdFlagsAtOrAbove) {
  QueryLog log(8);
  log.set_slow_threshold_ms(10.0);
  log.Add(MakeEntry("fast", 9.99));
  log.Add(MakeEntry("exactly", 10.0));
  log.Add(MakeEntry("slow", 250.0));
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_FALSE(entries[0].slow);
  EXPECT_TRUE(entries[1].slow);  // "exactly"
  EXPECT_TRUE(entries[2].slow);  // "slow"
}

TEST(QueryLogTest, ZeroThresholdDisablesSlowDetection) {
  QueryLog log(8);
  log.set_slow_threshold_ms(0.0);
  log.Add(MakeEntry("glacial", 1e6));
  EXPECT_FALSE(log.Entries()[0].slow);
}

TEST(QueryLogTest, AddFeedsMetricsRegistry) {
  const uint64_t queries_before =
      MetricsRegistry::Global().counter("sql.queries").value();
  QueryLog log(4);
  log.Add(MakeEntry("q", 1.0));
  log.Add(MakeEntry("q", 2.0));
  EXPECT_EQ(MetricsRegistry::Global().counter("sql.queries").value(),
            queries_before + 2);
}

TEST(QueryLogTest, AddRecordsQueueAndExecSplit) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t queue_before = registry.histogram("sql.queue_wait_ms").count();
  const double queue_sum_before = registry.histogram("sql.queue_wait_ms").sum();
  const uint64_t exec_before = registry.histogram("sql.exec_ms").count();
  const double exec_sum_before = registry.histogram("sql.exec_ms").sum();

  QueryLog log(4);
  QueryLogEntry e = MakeEntry("split", 5.0);
  e.queue_ms = 2.0;
  e.exec_ms = 3.0;
  log.Add(e);

  // The entry keeps the split, and both histograms saw one sample each.
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0].queue_ms, 2.0);
  EXPECT_DOUBLE_EQ(entries[0].exec_ms, 3.0);
  EXPECT_EQ(registry.histogram("sql.queue_wait_ms").count(), queue_before + 1);
  EXPECT_DOUBLE_EQ(registry.histogram("sql.queue_wait_ms").sum(),
                   queue_sum_before + 2.0);
  EXPECT_EQ(registry.histogram("sql.exec_ms").count(), exec_before + 1);
  EXPECT_DOUBLE_EQ(registry.histogram("sql.exec_ms").sum(),
                   exec_sum_before + 3.0);
}

TEST(QueryLogTest, ClearKeepsIdSequence) {
  QueryLog log(4);
  log.Add(MakeEntry("a", 1.0));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.Add(MakeEntry("b", 1.0)), 2u);
}

}  // namespace
}  // namespace gpudb
