// Tests for the introspection subsystem: catalog registration, dictionary
// columns, system-table queries through the normal Executor path, ANALYZE
// statistics round-trips, estimated-vs-actual EXPLAIN output, and the
// session-driven query log.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/common/query_log.h"
#include "src/core/analyze.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/db/stats.h"
#include "src/gpu/device.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace gpudb {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = db::MakeUniformTable(2000, 10, /*num_columns=*/2, 7);
    ASSERT_OK(table.status());
    table_ = std::make_unique<db::Table>(std::move(table).ValueOrDie());
    device_ = std::make_unique<gpu::Device>(1000, 1000);
    catalog_ = std::make_unique<db::Catalog>();
    ASSERT_OK(catalog_->Register("t", table_.get()));
    session_ = std::make_unique<sql::Session>(device_.get(), catalog_.get());
  }

  std::unique_ptr<db::Table> table_;
  std::unique_ptr<gpu::Device> device_;
  std::unique_ptr<db::Catalog> catalog_;
  std::unique_ptr<sql::Session> session_;
};

TEST(CatalogTest, RegistrationRules) {
  db::Catalog catalog;
  auto table = db::MakeUniformTable(16, 4);
  ASSERT_OK(table.status());
  EXPECT_OK(catalog.Register("users", &table.ValueOrDie()));
  // Duplicate and reserved names are rejected.
  EXPECT_FALSE(catalog.Register("users", &table.ValueOrDie()).ok());
  EXPECT_FALSE(catalog.Register("gpudb_metrics", &table.ValueOrDie()).ok());
  EXPECT_FALSE(catalog.Register("", &table.ValueOrDie()).ok());
  EXPECT_FALSE(catalog.Register("null_table", nullptr).ok());
  // Lookup distinguishes missing tables with NotFound.
  EXPECT_OK(catalog.Lookup("users").status());
  EXPECT_EQ(catalog.Lookup("nope").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db::Catalog::IsSystemTable("gpudb_queries"));
  EXPECT_FALSE(db::Catalog::IsSystemTable("users"));
}

TEST(CatalogTest, DictionaryColumnRoundTrip) {
  auto col = db::Column::MakeDictionary(
      "name", {"gamma", "alpha", "beta", "alpha"});
  ASSERT_OK(col.status());
  const db::Column& c = col.ValueOrDie();
  EXPECT_TRUE(c.has_dictionary());
  EXPECT_EQ(c.type(), db::ColumnType::kInt24);
  ASSERT_EQ(c.dictionary().size(), 3u);  // sorted, deduplicated
  EXPECT_EQ(c.dict_value(0), "gamma");
  EXPECT_EQ(c.dict_value(1), "alpha");
  EXPECT_EQ(c.dict_value(3), "alpha");
  // Codes index the sorted dictionary.
  EXPECT_EQ(c.dictionary(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

TEST_F(SessionTest, SystemTableScanWithWhereRunsOnGpu) {
  // Generate some telemetry first, then query it through SQL.
  ASSERT_OK(session_->Execute("SELECT COUNT(*) FROM t").status());
  auto result = session_->Execute("SELECT * FROM gpudb_counters WHERE "
                                  "value > 0");
  ASSERT_OK(result.status());
  const sql::QueryResult& r = result.ValueOrDie();
  ASSERT_NE(r.table_view, nullptr);
  ASSERT_FALSE(r.row_ids.empty());
  // Every selected row satisfies the predicate against the snapshot.
  auto value_col = r.table_view->ColumnByName("value");
  ASSERT_OK(value_col.status());
  for (uint32_t row : r.row_ids) {
    EXPECT_GT(value_col.ValueOrDie()->value(row), 0.0f);
  }
  // The name column renders as strings through the dictionary.
  auto name_col = r.table_view->ColumnByName("name");
  ASSERT_OK(name_col.status());
  EXPECT_TRUE(name_col.ValueOrDie()->has_dictionary());
  const std::string rendered = r.table_view->FormatRows(r.row_ids, 100);
  EXPECT_NE(rendered.find("executor.count"), std::string::npos);
}

TEST_F(SessionTest, SystemTableAggregateAndMetricsKinds) {
  ASSERT_OK(session_->Execute("SELECT COUNT(*) FROM t").status());
  auto count = session_->Execute(
      "SELECT COUNT(*) FROM gpudb_metrics WHERE value > 0");
  ASSERT_OK(count.status());
  EXPECT_GT(count.ValueOrDie().count, 0u);
  // gpudb_tables lists the registered user table with its live row count.
  auto tables = session_->Execute("SELECT * FROM gpudb_tables");
  ASSERT_OK(tables.status());
  const sql::QueryResult& r = tables.ValueOrDie();
  ASSERT_NE(r.table_view, nullptr);
  const std::string rendered = r.table_view->FormatRows(r.row_ids, 10);
  EXPECT_NE(rendered.find("t"), std::string::npos);
  EXPECT_NE(rendered.find("2000"), std::string::npos);
}

TEST_F(SessionTest, EmptyQueriesTableReportsNotFound) {
  QueryLog::Global().Clear();
  auto result = session_->Execute("SELECT * FROM gpudb_queries");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The failed statement itself was recorded.
  EXPECT_EQ(QueryLog::Global().size(), 1u);
}

TEST_F(SessionTest, StatementsAfterAFailedOneStillRunAndAreLogged) {
  QueryLog::Global().Clear();
  std::vector<bool> ok;
  for (const char* sql : {"SELECT COUNT(*) FROM t WHERE u0 > 10",
                          "SELECT nonsense FROM t", "SELECT MAX(u1) FROM t"}) {
    ok.push_back(session_->Execute(sql).ok());
  }
  EXPECT_EQ(ok, (std::vector<bool>{true, false, true}));
  // Every statement is logged, the failed one with its error text.
  const auto entries = QueryLog::Global().Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].error.empty());
  EXPECT_FALSE(entries[1].error.empty());
  EXPECT_TRUE(entries[2].error.empty());
}

TEST_F(SessionTest, QueriesTableRecordsHistory) {
  QueryLog::Global().Clear();
  ASSERT_OK(session_->Execute("SELECT COUNT(*) FROM t WHERE u0 > 10")
                .status());
  ASSERT_OK(session_->Execute("SELECT MAX(u1) FROM t").status());
  auto result = session_->Execute("SELECT * FROM gpudb_queries");
  ASSERT_OK(result.status());
  const sql::QueryResult& r = result.ValueOrDie();
  ASSERT_NE(r.table_view, nullptr);
  EXPECT_EQ(r.row_ids.size(), 2u);  // snapshot taken before self is logged
  const std::string rendered = r.table_view->FormatRows(r.row_ids, 10);
  EXPECT_NE(rendered.find("SELECT MAX(u1) FROM t"), std::string::npos);
  EXPECT_NE(rendered.find("count"), std::string::npos);
  EXPECT_NE(rendered.find("aggregate"), std::string::npos);
  // Device work was attributed: the scans issued rendering passes.
  auto passes_col = r.table_view->ColumnByName("passes");
  ASSERT_OK(passes_col.status());
  EXPECT_GT(passes_col.ValueOrDie()->value(0), 0.0f);
  // The planner-rewrite columns are attributed too: the WHERE scan ran as
  // a fused chain (fusion defaults on), the MAX did not.
  auto fused_col = r.table_view->ColumnByName("fused_passes");
  ASSERT_OK(fused_col.status());
  EXPECT_GT(fused_col.ValueOrDie()->value(0), 0.0f);
  auto hits_col = r.table_view->ColumnByName("cache_hits");
  ASSERT_OK(hits_col.status());
  EXPECT_EQ(hits_col.ValueOrDie()->value(0), 0.0f);  // cache off by default
}

TEST_F(SessionTest, QueriesTableSplitsQueueAndExecTime) {
  QueryLog::Global().Clear();
  ASSERT_OK(session_->Execute("SELECT COUNT(*) FROM t WHERE u0 > 10")
                .status());
  auto result = session_->Execute("SELECT * FROM gpudb_queries");
  ASSERT_OK(result.status());
  const sql::QueryResult& r = result.ValueOrDie();
  ASSERT_NE(r.table_view, nullptr);
  auto queue_col = r.table_view->ColumnByName("queue_ms");
  auto exec_col = r.table_view->ColumnByName("exec_ms");
  auto wall_col = r.table_view->ColumnByName("wall_ms");
  ASSERT_OK(queue_col.status());
  ASSERT_OK(exec_col.status());
  ASSERT_OK(wall_col.status());
  ASSERT_EQ(r.row_ids.size(), 1u);
  const uint32_t row = r.row_ids[0];
  // Uncontended sessions spend essentially all their wall time executing.
  EXPECT_GT(exec_col.ValueOrDie()->value(row), 0.0f);
  EXPECT_GE(queue_col.ValueOrDie()->value(row), 0.0f);
  EXPECT_NEAR(queue_col.ValueOrDie()->value(row) +
                  exec_col.ValueOrDie()->value(row),
              wall_col.ValueOrDie()->value(row), 1e-3);
}

TEST_F(SessionTest, ProfileTableNotFoundUntilSomethingProfiled) {
  Profiler::Global().ResetForTesting();
  auto result = session_->Execute("SELECT * FROM gpudb_profile");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(SessionTest, ProfileTableListsPassCounters) {
  Profiler::Global().ResetForTesting();
  ASSERT_OK(session_
                ->Execute("EXPLAIN PROFILE SELECT COUNT(*) FROM t "
                          "WHERE u0 > 10")
                .status());
  auto result = session_->Execute("SELECT * FROM gpudb_profile");
  ASSERT_OK(result.status());
  const sql::QueryResult& r = result.ValueOrDie();
  ASSERT_NE(r.table_view, nullptr);
  ASSERT_FALSE(r.row_ids.empty());
  // Every deep counter is a real column; the aggregate saw fragments and
  // depth work from the profiled scan.
  for (const char* name :
       {"label", "passes", "fragments", "alpha_killed", "stencil_killed",
        "depth_tested", "depth_killed", "passed", "occlusion_samples",
        "plane_bytes_read", "plane_bytes_written"}) {
    EXPECT_TRUE(r.table_view->ColumnByName(name).ok()) << name;
  }
  auto fragments_col = r.table_view->ColumnByName("fragments");
  auto depth_col = r.table_view->ColumnByName("depth_tested");
  ASSERT_OK(fragments_col.status());
  ASSERT_OK(depth_col.status());
  double fragments = 0.0;
  double depth_tested = 0.0;
  for (uint32_t row : r.row_ids) {
    fragments += fragments_col.ValueOrDie()->value(row);
    depth_tested += depth_col.ValueOrDie()->value(row);
  }
  EXPECT_GT(fragments, 0.0);
  EXPECT_GT(depth_tested, 0.0);
  // Labels render through the dictionary column; predicate scans run
  // fragment-program passes, whose names all end in "FP".
  const std::string rendered = r.table_view->FormatRows(r.row_ids, 100);
  EXPECT_NE(rendered.find("FP"), std::string::npos);
  Profiler::Global().ResetForTesting();
}

TEST_F(SessionTest, SlowQueryThresholdFlagsStatements) {
  QueryLog::Global().Clear();
  QueryLog::Global().set_slow_threshold_ms(1e-6);  // everything is "slow"
  ASSERT_OK(session_->Execute("SELECT COUNT(*) FROM t").status());
  QueryLog::Global().set_slow_threshold_ms(0.0);
  ASSERT_OK(session_->Execute("SELECT COUNT(*) FROM t").status());
  const auto entries = QueryLog::Global().Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].slow);
  EXPECT_FALSE(entries[1].slow);
}

TEST_F(SessionTest, AnalyzeRoundTrip) {
  EXPECT_EQ(catalog_->Stats("t"), nullptr);
  auto result = session_->Execute("ANALYZE t");
  ASSERT_OK(result.status());
  EXPECT_EQ(result.ValueOrDie().kind, sql::Query::Kind::kAnalyzeTable);
  EXPECT_EQ(result.ValueOrDie().count, 2u);  // two columns analyzed

  const std::shared_ptr<const db::TableStats> stats = catalog_->Stats("t");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->analyzed());
  EXPECT_EQ(stats->table_name, "t");
  EXPECT_EQ(stats->row_count, 2000u);
  ASSERT_EQ(stats->columns.size(), 2u);
  const db::ColumnStats& c0 = stats->columns[0];
  EXPECT_EQ(c0.name, "u0");
  EXPECT_GT(c0.distinct, 0u);
  EXPECT_LE(c0.distinct, 1024u);  // 10-bit domain
  // Equi-depth fences: buckets+1 of them, non-decreasing, spanning min..max.
  ASSERT_EQ(c0.fences.size(), static_cast<size_t>(c0.buckets()) + 1);
  EXPECT_TRUE(std::is_sorted(c0.fences.begin(), c0.fences.end()));
  EXPECT_DOUBLE_EQ(c0.fences.front(), c0.min);
  EXPECT_DOUBLE_EQ(c0.fences.back(), c0.max);
  // The histogram's cumulative fraction is sane at the median fence.
  const double mid =
      c0.fences[static_cast<size_t>(c0.buckets()) / 2];
  EXPECT_NEAR(c0.CumulativeFraction(mid), 0.5, 0.1);

  // ANALYZE of a system table is rejected.
  EXPECT_FALSE(session_->Execute("ANALYZE gpudb_metrics").ok());
  // ANALYZE of an unregistered table is NotFound.
  EXPECT_EQ(session_->Execute("ANALYZE ghost").status().code(),
            StatusCode::kNotFound);
}

// A registered table never changes, so ANALYZE (which stores statistics
// and touches no texel) leaves the table's cached depth planes valid: the
// statement after it restores the plane instead of copying the column
// again, with the same count.
TEST_F(SessionTest, CachedDepthPlanesSurviveAnalyze) {
  core::PlanOptions plan_options;
  plan_options.plane_cache = true;
  session_->set_plan_options(plan_options);
  const std::string query = "SELECT COUNT(*) FROM t WHERE u0 > 300";

  auto cold = session_->Execute(query);
  ASSERT_OK(cold.status());
  const auto& counters = device_->counters();
  EXPECT_EQ(counters.plane_cache_misses, 1u);
  auto warm = session_->Execute(query);
  ASSERT_OK(warm.status());
  EXPECT_EQ(counters.plane_cache_hits, 1u);
  EXPECT_EQ(warm.ValueOrDie().count, cold.ValueOrDie().count);

  ASSERT_OK(session_->Execute("ANALYZE t").status());
  EXPECT_EQ(device_->plane_cache().size(), 1u);

  auto after = session_->Execute(query);
  ASSERT_OK(after.status());
  EXPECT_EQ(counters.plane_cache_hits, 2u);
  EXPECT_EQ(counters.plane_cache_misses, 1u);
  EXPECT_EQ(after.ValueOrDie().count, cold.ValueOrDie().count);
}

// The catalog outlives its Sessions and must keep nothing of them: after a
// Session and its device are destroyed, ANALYZE and a COUNT from another
// Session on the same catalog still succeed (ASan catches any dangling
// device pointer).
TEST(CatalogTest, CatalogOutlivesASessionAndItsDevice) {
  auto table = db::MakeUniformTable(2000, 10, /*num_columns=*/2, 7);
  ASSERT_OK(table.status());
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("t", &table.ValueOrDie()));
  const std::string query = "SELECT COUNT(*) FROM t WHERE u0 > 300";
  core::PlanOptions plan_options;
  plan_options.plane_cache = true;

  uint64_t expected = 0;
  {
    auto device = std::make_unique<gpu::Device>(64, 64);
    auto session = std::make_unique<sql::Session>(device.get(), &catalog);
    session->set_plan_options(plan_options);
    auto count = session->Execute(query);
    ASSERT_OK(count.status());
    expected = count.ValueOrDie().count;
    session.reset();
    device.reset();
  }

  gpu::Device device(64, 64);
  sql::Session session(&device, &catalog);
  session.set_plan_options(plan_options);
  ASSERT_OK(session.Execute("ANALYZE t").status());
  auto count = session.Execute(query);
  ASSERT_OK(count.status());
  EXPECT_EQ(count.ValueOrDie().count, expected);
}

// Two Sessions share one catalog: one re-ANALYZEs the table while the other
// estimates row counts from its statistics. Each statement reads the
// snapshot it attached, which a concurrent ANALYZE replaces but never
// rewrites or frees (run under TSan by scripts/check.sh).
TEST(CatalogTest, ReAnalyzeWhileAnotherSessionEstimatesIsRaceFree) {
  auto table = db::MakeUniformTable(2000, 10, /*num_columns=*/2, 7);
  ASSERT_OK(table.status());
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("t", &table.ValueOrDie()));
  gpu::Device analyze_device(64, 64);
  gpu::Device explain_device(64, 64);
  sql::Session analyzer(&analyze_device, &catalog);
  sql::Session explainer(&explain_device, &catalog);
  ASSERT_OK(analyzer.Execute("ANALYZE t").status());

  const std::string query =
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 512";
  auto reference = explainer.Execute(query);
  ASSERT_OK(reference.status());
  const uint64_t expected = reference.ValueOrDie().count;

  // ANALYZE repeats until the estimating side has run all its rounds, so
  // the two overlap for the whole loop.
  constexpr int kRounds = 200;
  std::atomic<bool> done{false};
  std::thread analyze_loop([&] {
    while (!done.load()) {
      EXPECT_OK(analyzer.Execute("ANALYZE t").status());
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    auto result = explainer.Execute(query);
    EXPECT_OK(result.status());
    if (!result.ok()) break;
    EXPECT_EQ(result.ValueOrDie().count, expected);
    EXPECT_NE(result.ValueOrDie().explain.find("rows est="),
              std::string::npos);
  }
  done.store(true);
  analyze_loop.join();
}

TEST_F(SessionTest, ExplainShowsEstimatedVsActualRows) {
  // Without statistics the explain tree has no estimate column.
  auto before = session_->Execute(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 512");
  ASSERT_OK(before.status());
  EXPECT_EQ(before.ValueOrDie().explain.find("rows est="),
            std::string::npos);

  ASSERT_OK(session_->Execute("ANALYZE t").status());
  auto after = session_->Execute(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 512");
  ASSERT_OK(after.status());
  const sql::QueryResult& r = after.ValueOrDie();
  EXPECT_TRUE(r.analyzed);
  const std::string& tree = r.explain;
  const size_t est_pos = tree.find("rows est=");
  ASSERT_NE(est_pos, std::string::npos) << tree;
  ASSERT_NE(tree.find("actual="), std::string::npos) << tree;
  // A uniform 10-bit column selected at >= 512 is ~half the table; the
  // histogram estimate must land in the right ballpark of the actual count.
  const uint64_t actual = std::stoull(
      tree.substr(tree.find("actual=", est_pos) + 7));
  const uint64_t est = std::stoull(tree.substr(est_pos + 9));
  EXPECT_GT(actual, 800u);
  EXPECT_LT(actual, 1200u);
  EXPECT_GT(est, 500u);
  EXPECT_LT(est, 1500u);
}

TEST_F(SessionTest, SelectivityEstimatesComposeOverExpressions) {
  ASSERT_OK(session_->Execute("ANALYZE t").status());
  const std::shared_ptr<const db::TableStats> stats = catalog_->Stats("t");
  ASSERT_NE(stats, nullptr);
  using predicate::Expr;
  // u0 >= 512 on a uniform 10-bit column: about half.
  const auto half = Expr::Pred(0, gpu::CompareOp::kGreaterEqual, 512.0f);
  const double s_half = core::EstimateSelectivity(*stats, half);
  EXPECT_NEAR(s_half, 0.5, 0.1);
  // AND multiplies, OR uses inclusion-exclusion, NOT complements.
  const double s_and = core::EstimateSelectivity(*stats, Expr::And(half, half));
  EXPECT_NEAR(s_and, s_half * s_half, 1e-9);
  const double s_or = core::EstimateSelectivity(*stats, Expr::Or(half, half));
  EXPECT_NEAR(s_or, 2 * s_half - s_half * s_half, 1e-9);
  const double s_not = core::EstimateSelectivity(*stats, Expr::Not(half));
  EXPECT_NEAR(s_not, 1.0 - s_half, 1e-9);
  // Attribute-attribute comparisons use the 1/3 heuristic.
  const auto attr = Expr::PredAttr(0, gpu::CompareOp::kLess, 1);
  EXPECT_NEAR(core::EstimateSelectivity(*stats, attr), 1.0 / 3.0, 1e-9);
  // No WHERE = full table.
  EXPECT_DOUBLE_EQ(core::EstimateSelectivity(*stats, nullptr), 1.0);
}

TEST(StatementTableNameTest, ExtractsFromAndAnalyzeTargets) {
  auto from = sql::StatementTableName("SELECT COUNT(*) FROM flows WHERE x>1");
  ASSERT_OK(from.status());
  EXPECT_EQ(from.ValueOrDie(), "flows");
  auto analyze = sql::StatementTableName("ANALYZE flows;");
  ASSERT_OK(analyze.status());
  EXPECT_EQ(analyze.ValueOrDie(), "flows");
  auto explain = sql::StatementTableName(
      "EXPLAIN ANALYZE SELECT * FROM gpudb_metrics");
  ASSERT_OK(explain.status());
  EXPECT_EQ(explain.ValueOrDie(), "gpudb_metrics");
  EXPECT_FALSE(sql::StatementTableName("SELECT 1").ok());
}

TEST(ColumnStatsTest, SelectivityMathIsConsistent) {
  db::ColumnStats stats;
  stats.name = "x";
  stats.row_count = 100;
  stats.min = 0.0;
  stats.max = 100.0;
  stats.distinct = 101;
  stats.fences = {0.0, 25.0, 50.0, 75.0, 100.0};
  EXPECT_NEAR(stats.CumulativeFraction(50.0), 0.5, 1e-9);
  EXPECT_NEAR(stats.CumulativeFraction(-1.0), 0.0, 1e-9);
  EXPECT_NEAR(stats.CumulativeFraction(100.0), 1.0, 1e-9);
  EXPECT_NEAR(stats.SelectivityCompare(gpu::CompareOp::kLessEqual, 50.0),
              0.5, 1e-9);
  EXPECT_NEAR(stats.SelectivityCompare(gpu::CompareOp::kGreater, 50.0),
              0.5, 1e-9);
  EXPECT_NEAR(stats.SelectivityCompare(gpu::CompareOp::kEqual, 50.0),
              1.0 / 101.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.SelectivityCompare(gpu::CompareOp::kEqual, 500.0),
                   0.0);  // out of range
  // Degenerate: no histogram falls back to the uniform assumption.
  db::ColumnStats flat;
  flat.row_count = 10;
  flat.min = 0.0;
  flat.max = 10.0;
  flat.distinct = 1;
  EXPECT_NEAR(flat.CumulativeFraction(5.0), 0.5, 1e-9);
}

}  // namespace
}  // namespace gpudb
