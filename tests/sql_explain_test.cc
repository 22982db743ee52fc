#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/profile.h"
#include "src/common/trace.h"
#include "src/core/executor.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "src/gpu/perf_model.h"
#include "src/sql/explain.h"
#include "src/sql/parser.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace gpudb {
namespace sql {
namespace {

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  ExplainAnalyzeTest() : device_(100, 100), session_(&device_, &catalog_) {
    auto t = db::MakeUniformTable(5000, 10, 3, /*seed=*/7);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();  // columns u0, u1, u2
    EXPECT_TRUE(catalog_.Register("t", &table_).ok());
  }

  ~ExplainAnalyzeTest() override {
    // EXPLAIN PROFILE's passes also feed the global Profiler's label
    // aggregates (gpudb_profile); leave none behind for other suites.
    Profiler::Global().ResetForTesting();
  }

  gpu::Device device_;
  db::Table table_;
  db::Catalog catalog_;
  Session session_;
};

TEST_F(ExplainAnalyzeTest, ParserAcceptsAndFlagsExplainAnalyze) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100",
                 table_));
  EXPECT_TRUE(q.explain_analyze);
  EXPECT_EQ(q.kind, Query::Kind::kCount);

  ASSERT_OK_AND_ASSIGN(Query plain,
                       ParseQuery("SELECT COUNT(*) FROM t", table_));
  EXPECT_FALSE(plain.explain_analyze);

  // EXPLAIN without ANALYZE is not part of the fragment.
  EXPECT_FALSE(ParseQuery("EXPLAIN SELECT COUNT(*) FROM t", table_).ok());
}

TEST_F(ExplainAnalyzeTest, MatchesPlainExecutionResult) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult plain,
      session_.Execute("SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  ASSERT_OK_AND_ASSIGN(
      QueryResult analyzed,
      session_.Execute(
          "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  EXPECT_FALSE(plain.analyzed);
  EXPECT_TRUE(analyzed.analyzed);
  EXPECT_EQ(analyzed.count, plain.count);
  EXPECT_FALSE(analyzed.explain.empty());
  EXPECT_FALSE(analyzed.spans.empty());
  EXPECT_GT(analyzed.simulated_total_ms, 0.0);
  // Tracing was off before the query and is off again after.
  EXPECT_FALSE(Tracer::Global().enabled());
}

TEST_F(ExplainAnalyzeTest, SelfMsSumsToPerfModelTotal) {
  // The acceptance criterion of the observability layer: per-operator
  // simulated self-time telescopes to the PerfModel total of the query's
  // full counter delta.
  const gpu::DeviceCounters before = device_.counters();
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      session_.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100 "
                       "AND u1 < 5"));
  const gpu::DeviceCounters delta =
      gpu::DeltaSince(before, device_.counters());
  const double expected_total = gpu::PerfModel().Estimate(delta).TotalMs();
  EXPECT_NEAR(r.simulated_total_ms, expected_total, 1e-9);

  // Recompute each span's self time (total minus direct children totals)
  // and check the telescoped sum equals the root total.
  std::map<uint64_t, double> children_total;
  for (const FinishedSpan& s : r.spans) {
    children_total[s.parent_id] += s.NumberTag("total_ms", 0.0);
  }
  double self_sum = 0.0;
  double root_total = -1.0;
  for (const FinishedSpan& s : r.spans) {
    const double total = s.NumberTag("total_ms", 0.0);
    self_sum += total - children_total[s.id];
    if (s.name == "query") root_total = total;
  }
  ASSERT_GE(root_total, 0.0) << "no root query span";
  EXPECT_NEAR(self_sum, root_total, 1e-9);
  EXPECT_NEAR(root_total, expected_total, 1e-9);
}

TEST_F(ExplainAnalyzeTest, TreeShowsOperatorsCostsAndFragments) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      session_.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100 "
                       "AND u1 < 5"));
  // Operator spans with their simulated cost split.
  EXPECT_NE(r.explain.find("query"), std::string::npos);
  EXPECT_NE(r.explain.find("Count"), std::string::npos);
  EXPECT_NE(r.explain.find("Where"), std::string::npos);
  EXPECT_NE(r.explain.find("EvalCnf"), std::string::npos);
  EXPECT_NE(r.explain.find("total="), std::string::npos);
  EXPECT_NE(r.explain.find("self="), std::string::npos);
  EXPECT_NE(r.explain.find("fill "), std::string::npos);
  EXPECT_NE(r.explain.find("setup "), std::string::npos);
  // Operator tags and the device rollup: fragments generated vs passed and
  // bytes moved.
  EXPECT_NE(r.explain.find("selectivity="), std::string::npos);
  EXPECT_NE(r.explain.find("normal_form=cnf"), std::string::npos);
  EXPECT_NE(r.explain.find("passes:"), std::string::npos);
  EXPECT_NE(r.explain.find("fragments ->"), std::string::npos);
  EXPECT_NE(r.explain.find("B uploaded"), std::string::npos);
  // The span forest renders children indented under the root.
  EXPECT_EQ(r.explain.rfind("query", 0), 0u) << "root first:\n" << r.explain;
  EXPECT_NE(r.explain.find("\n  Count"), std::string::npos) << r.explain;
}

TEST_F(ExplainAnalyzeTest, SpansExportAsValidChromeTrace) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      session_.Execute("EXPLAIN ANALYZE SELECT KTH_LARGEST(u0, 10) FROM t"));
  auto parsed = json::Parse(Tracer::ToChromeTrace(r.spans));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->as_array().size(), r.spans.size());
}

TEST_F(ExplainAnalyzeTest, WorksForEveryQueryKind) {
  for (const char* query : {
           "EXPLAIN ANALYZE SELECT * FROM t WHERE u0 < 100",
           "EXPLAIN ANALYZE SELECT SUM(u1) FROM t WHERE u0 >= 512",
           "EXPLAIN ANALYZE SELECT MAX(u2) FROM t",
           "EXPLAIN ANALYZE SELECT KTH_LARGEST(u0, 3) FROM t",
       }) {
    auto r = session_.Execute(query);
    ASSERT_TRUE(r.ok()) << query << ": " << r.status().ToString();
    EXPECT_TRUE(r.ValueOrDie().analyzed) << query;
    EXPECT_FALSE(r.ValueOrDie().explain.empty()) << query;
    EXPECT_GT(r.ValueOrDie().simulated_total_ms, 0.0) << query;
  }
}

TEST_F(ExplainAnalyzeTest, ParserAcceptsExplainProfile) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 100",
                 table_));
  EXPECT_TRUE(q.explain_profile);
  EXPECT_TRUE(q.explain_analyze);  // PROFILE implies ANALYZE

  ASSERT_OK_AND_ASSIGN(
      Query analyze,
      ParseQuery("EXPLAIN ANALYZE SELECT COUNT(*) FROM t", table_));
  EXPECT_FALSE(analyze.explain_profile);
}

TEST_F(ExplainAnalyzeTest, ExplainProfileCarriesCounterGroups) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult plain,
      session_.Execute("SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  ASSERT_OK_AND_ASSIGN(
      QueryResult profiled,
      session_.Execute(
          "EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  // Same answer, same analyze fields, plus the deep-counter table.
  EXPECT_EQ(profiled.count, plain.count);
  EXPECT_TRUE(profiled.analyzed);
  EXPECT_TRUE(profiled.profiled);
  ASSERT_FALSE(profiled.profile_groups.empty());
  ASSERT_FALSE(profiled.profile.empty());
  uint64_t fragments = 0;
  uint64_t depth_tested = 0;
  uint64_t plane_bytes = 0;
  for (const PassProfileGroup& g : profiled.profile_groups) {
    EXPECT_FALSE(g.label.empty());
    EXPECT_GT(g.passes, 0u);
    fragments += g.fragments;
    depth_tested += g.prof.depth_tested;
    plane_bytes += g.prof.plane_bytes_read + g.prof.plane_bytes_written;
  }
  EXPECT_GT(fragments, 0u);
  EXPECT_GT(depth_tested, 0u);
  EXPECT_GT(plane_bytes, 0u);
  EXPECT_NE(profiled.profile.find("depth_test"), std::string::npos);
  EXPECT_NE(profiled.profile.find("plane_rd_B"), std::string::npos);
  // The query-scoped enable restored the global off state.
  EXPECT_FALSE(Profiler::Global().enabled());
  // ToString appends the table under the tree.
  EXPECT_NE(profiled.ToString().find("pass profile:"), std::string::npos);

  // Plain EXPLAIN ANALYZE does not profile.
  ASSERT_OK_AND_ASSIGN(
      QueryResult analyzed,
      session_.Execute(
          "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 >= 100"));
  EXPECT_FALSE(analyzed.profiled);
  EXPECT_TRUE(analyzed.profile.empty());
}

TEST_F(ExplainAnalyzeTest, ProfileTableByteIdenticalAcrossThreadCounts) {
  // The EXPLAIN PROFILE acceptance check: the rendered counter table for the
  // same query must be byte-identical at 1 and 8 worker threads.
  const char* query =
      "EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 100 AND u1 < 5";
  std::string first;
  for (int threads : {1, 8}) {
    gpu::Device device(100, 100);
    ASSERT_OK(device.SetWorkerThreads(threads));
    Session session(&device, &catalog_);
    ASSERT_OK_AND_ASSIGN(QueryResult r, session.Execute(query));
    ASSERT_TRUE(r.profiled);
    ASSERT_FALSE(r.profile.empty());
    if (first.empty()) {
      first = r.profile;
    } else {
      EXPECT_EQ(r.profile, first) << "threads=" << threads;
    }
  }
}

TEST_F(ExplainAnalyzeTest, ToStringAppendsTree) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      session_.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t"));
  const std::string text = r.ToString();
  EXPECT_EQ(text.rfind("count = ", 0), 0u);
  EXPECT_NE(text.find("query"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, LeavesNoSpansInTheGlobalTracer) {
  // The statement's spans live and die with the statement: with process
  // tracing off, nothing accumulates in Tracer::Global().
  ASSERT_FALSE(Tracer::Global().enabled());
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(
        session_.Execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t").status());
  }
  EXPECT_TRUE(Tracer::Global().Finished().empty());
  EXPECT_TRUE(Tracer::Global().CounterSamples().empty());
}

TEST_F(ExplainAnalyzeTest, GlobalTraceStillReceivesExplainSpans) {
  // sql_shell --trace=FILE: with the process tracer on, an EXPLAIN
  // statement's spans reach the global trace as well as its own result.
  Tracer& global = Tracer::Global();
  global.Clear();
  global.set_enabled(true);
  Result<QueryResult> r =
      session_.Execute("EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 9");
  global.set_enabled(false);
  const std::vector<FinishedSpan> traced = global.Finished();
  global.Clear();
  ASSERT_OK(r.status());
  ASSERT_FALSE(r.ValueOrDie().spans.empty());
  std::map<uint64_t, std::string> traced_names;
  for (const FinishedSpan& span : traced) traced_names[span.id] = span.name;
  for (const FinishedSpan& span : r.ValueOrDie().spans) {
    auto it = traced_names.find(span.id);
    ASSERT_NE(it, traced_names.end()) << span.name << " missing from trace";
    EXPECT_EQ(it->second, span.name);
  }
}

TEST(ExplainProfileTest, CacheHitAndFusedColumnsMatchThePasses) {
  // EXPLAIN PROFILE groups passes with Profiler::RecordPass's fold, so a
  // plane-cache restore counts in c_hit and a fused pass in fused.
  ASSERT_OK_AND_ASSIGN(db::Table table,
                       db::MakeUniformTable(5000, 10, 3, /*seed=*/7));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("t", &table));
  gpu::Device device(100, 100);
  Session session(&device, &catalog);
  core::PlanOptions plan;
  plan.plane_cache = true;
  session.set_plan_options(plan);
  const char* query = "EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 >= 100";
  ASSERT_OK(session.Execute(query).status());
  ASSERT_OK_AND_ASSIGN(QueryResult again, session.Execute(query));
  Profiler::Global().ResetForTesting();
  const PassProfileGroup* restore = nullptr;
  for (const PassProfileGroup& g : again.profile_groups) {
    if (g.label == "plane-restore") restore = &g;
  }
  ASSERT_NE(restore, nullptr) << again.profile;
  EXPECT_GT(restore->passes, 0u);
  EXPECT_EQ(restore->cache_hits, restore->passes) << again.profile;
  // The rendered row ends in the c_hit column.
  const size_t row = again.profile.find("plane-restore");
  ASSERT_NE(row, std::string::npos);
  const std::string line =
      again.profile.substr(row, again.profile.find('\n', row) - row);
  EXPECT_EQ(line.substr(line.find_last_of(' ') + 1),
            std::to_string(restore->passes))
      << line;
}

/// A session on a device and table of its own.
struct SessionRig {
  explicit SessionRig(uint64_t seed) : device(64, 64) {
    table = db::MakeUniformTable(4000, 10, 2, seed).ValueOrDie();
    EXPECT_TRUE(device.SetWorkerThreads(1).ok());
    EXPECT_TRUE(catalog.Register("t", &table).ok());
    session = std::make_unique<Session>(&device, &catalog);
  }

  db::Table table;
  gpu::Device device;
  db::Catalog catalog;
  std::unique_ptr<Session> session;
};

/// Runs `sql` on each rig in a thread of its own until Join(); every thread
/// has finished one statement when the constructor returns.
class Load {
 public:
  Load(const std::vector<std::unique_ptr<SessionRig>>& rigs,
       const std::string& sql) {
    std::atomic<int> started{0};
    for (const auto& rig : rigs) {
      threads_.emplace_back([this, session = rig->session.get(), sql,
                             &started] {
        bool first = true;
        do {
          if (!session->Execute(sql).ok()) ++failures_;
          if (std::exchange(first, false)) ++started;
        } while (!stop_.load());
      });
    }
    while (started.load() < static_cast<int>(rigs.size())) {
      std::this_thread::yield();
    }
  }
  ~Load() { Join(); }

  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  /// Stops and joins the threads; returns how many statements failed.
  int Join() {
    stop_ = true;
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    return failures_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> failures_{0};
  std::vector<std::thread> threads_;
};

TEST(ExplainIsolationTest, SixteenSessionsSeeOnlyTheirOwnSpans) {
  // One EXPLAIN ANALYZE session next to 15 sessions running plain COUNTs,
  // each on its own device and table: every span an EXPLAIN returns
  // descends from that statement's own "query" root, and its tree has one
  // root.
  SessionRig explain(1);
  std::vector<std::unique_ptr<SessionRig>> others;
  for (uint64_t i = 0; i < 15; ++i) {
    others.push_back(std::make_unique<SessionRig>(100 + i));
  }
  Load load(others, "SELECT COUNT(*) FROM t WHERE u1 < 500");
  int foreign = 0;
  int multi_root = 0;
  for (int i = 0; i < 200; ++i) {
    Result<QueryResult> r = explain.session->Execute(
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE u0 > 300");
    ASSERT_OK(r.status());
    const std::vector<FinishedSpan>& spans = r.ValueOrDie().spans;
    std::map<uint64_t, const FinishedSpan*> by_id;
    uint64_t root = 0;
    for (const FinishedSpan& span : spans) {
      by_id[span.id] = &span;
      if (span.name == "query") root = span.id;
    }
    ASSERT_NE(root, 0u);
    for (const FinishedSpan& span : spans) {
      const FinishedSpan* at = &span;
      while (at->id != root && by_id.count(at->parent_id) > 0) {
        at = by_id[at->parent_id];
      }
      if (at->id != root) ++foreign;
    }
    int roots = 0;
    std::istringstream lines(r.ValueOrDie().explain);
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty() && line[0] != ' ') ++roots;
    }
    if (roots != 1) ++multi_root;
  }
  EXPECT_EQ(load.Join(), 0);
  EXPECT_EQ(foreign, 0) << "spans from other statements";
  EXPECT_EQ(multi_root, 0) << "EXPLAIN trees with a second root";
}

TEST(ExplainIsolationTest, OverlappingExplainProfilesMatchSoloRuns) {
  // Two sessions run EXPLAIN PROFILE at the same time, next to 14 plain
  // ones. Each asks its own device for deep counters, so neither can turn
  // profiling off under the other: every table equals a solo run's.
  const std::string sql =
      "EXPLAIN PROFILE SELECT COUNT(*) FROM t WHERE u0 > 300 AND u1 < 700";
  std::vector<std::unique_ptr<SessionRig>> profiled;
  std::vector<std::string> solo;
  for (uint64_t i = 0; i < 2; ++i) {
    profiled.push_back(std::make_unique<SessionRig>(7 + i));
    ASSERT_OK_AND_ASSIGN(QueryResult r, profiled.back()->session->Execute(sql));
    ASSERT_FALSE(r.profile.empty());
    solo.push_back(r.profile);
  }
  std::vector<std::unique_ptr<SessionRig>> others;
  for (uint64_t i = 0; i < 14; ++i) {
    others.push_back(std::make_unique<SessionRig>(200 + i));
  }
  Load load(others, "SELECT COUNT(*) FROM t WHERE u1 < 500");
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> explains;
  for (size_t i = 0; i < profiled.size(); ++i) {
    explains.emplace_back([&, i] {
      ++ready;
      while (ready.load() < static_cast<int>(profiled.size())) {
        std::this_thread::yield();
      }
      for (int n = 0; n < 200; ++n) {
        Result<QueryResult> r = profiled[i]->session->Execute(sql);
        if (!r.ok()) {
          ++failures;
        } else if (r.ValueOrDie().profile != solo[i]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : explains) t.join();
  EXPECT_EQ(load.Join(), 0);
  Profiler::Global().ResetForTesting();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_FALSE(Profiler::Global().enabled());
}

}  // namespace
}  // namespace sql
}  // namespace gpudb
