#include <algorithm>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/executor.h"
#include "src/core/planner.h"
#include "src/cpu/aggregate.h"
#include "src/cpu/quickselect.h"
#include "src/cpu/scan.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/gpu/perf_model.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace gpudb {
namespace {

using core::AggregateKind;
using core::Executor;
using gpu::CompareOp;
using predicate::Expr;
using predicate::ExprPtr;

/// End-to-end sessions mixing selections and aggregations on one device,
/// cross-checked against the CPU reference throughout.
class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : device_(120, 120) {}
  gpu::Device device_;
};

TEST_F(IntegrationTest, CensusWorkloadSession) {
  ASSERT_OK_AND_ASSIGN(db::Table census, db::MakeCensusTable(10000));
  ASSERT_OK_AND_ASSIGN(auto exec, Executor::Make(&device_, &census));

  // "How many working-age respondents with income above the median?"
  ASSERT_OK_AND_ASSIGN(
      double median_d, exec->Aggregate(AggregateKind::kMedian,
                                       "monthly_income"));
  const float median = static_cast<float>(median_d);
  ExprPtr working_age = Expr::Between(1, 25.0f, 65.0f);  // age column
  ExprPtr q = Expr::And(working_age,
                        Expr::Pred(0, CompareOp::kGreater, median));
  ASSERT_OK_AND_ASSIGN(uint64_t n, exec->Count(q));
  uint64_t expected = 0;
  for (size_t row = 0; row < census.num_rows(); ++row) {
    expected += q->EvaluateRow(census, row) ? 1 : 0;
  }
  EXPECT_EQ(n, expected);

  // Average income over that selection.
  ASSERT_OK_AND_ASSIGN(double avg, exec->Aggregate(AggregateKind::kAvg,
                                                   "monthly_income", q));
  std::vector<uint8_t> mask(census.num_rows());
  for (size_t row = 0; row < census.num_rows(); ++row) {
    mask[row] = q->EvaluateRow(census, row) ? 1 : 0;
  }
  ASSERT_OK_AND_ASSIGN(
      double cpu_avg,
      cpu::MaskedAvgInt(census.column(0).values(), mask));
  EXPECT_DOUBLE_EQ(avg, cpu_avg);
}

TEST_F(IntegrationTest, RepeatedQueriesShareResidentTextures) {
  ASSERT_OK_AND_ASSIGN(db::Table t, db::MakeTcpIpTable(8000));
  ASSERT_OK_AND_ASSIGN(auto exec, Executor::Make(&device_, &t));
  ASSERT_OK(exec->Count(Expr::Pred(0, CompareOp::kGreater, 100.0f)).status());
  ASSERT_OK(exec->Count(Expr::Pred(1, CompareOp::kGreater, 1.0f)).status());
  const uint64_t uploaded = device_.counters().bytes_uploaded;
  // Ten more queries over the same two columns: no further uploads.
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(exec->Count(Expr::And(
                              Expr::Pred(0, CompareOp::kGreater, float(i)),
                              Expr::Pred(1, CompareOp::kLessEqual, 100.0f)))
                  .status());
  }
  EXPECT_EQ(device_.counters().bytes_uploaded, uploaded);
}

TEST_F(IntegrationTest, RandomQueryFuzzAgainstCpu) {
  ASSERT_OK_AND_ASSIGN(db::Table t, db::MakeUniformTable(5000, 10, 4, 333));
  ASSERT_OK_AND_ASSIGN(auto exec, Executor::Make(&device_, &t));
  Random rng(999);
  for (int trial = 0; trial < 25; ++trial) {
    // Random conjunction/disjunction of 2-4 predicates.
    ExprPtr e;
    const int preds = 2 + static_cast<int>(rng.NextUint64(3));
    for (int i = 0; i < preds; ++i) {
      const auto attr = static_cast<size_t>(rng.NextUint64(4));
      const auto op = static_cast<CompareOp>(1 + rng.NextUint64(6));
      ExprPtr p =
          Expr::Pred(attr, op, static_cast<float>(rng.NextUint64(1024)));
      if (rng.NextUint64(3) == 0) p = Expr::Not(p);
      e = (e == nullptr) ? p
          : (rng.NextUint64(2) == 0 ? Expr::And(e, p) : Expr::Or(e, p));
    }
    ASSERT_OK_AND_ASSIGN(uint64_t n, exec->Count(e));
    uint64_t expected = 0;
    for (size_t row = 0; row < t.num_rows(); ++row) {
      expected += e->EvaluateRow(t, row) ? 1 : 0;
    }
    ASSERT_EQ(n, expected) << "trial " << trial << ": " << e->ToString(&t);
  }
}

TEST_F(IntegrationTest, SelectionThenOrderStatisticsPipeline) {
  ASSERT_OK_AND_ASSIGN(db::Table t, db::MakeTcpIpTable(6000));
  ASSERT_OK_AND_ASSIGN(auto exec, Executor::Make(&device_, &t));
  // Top-5 data_count among flows with retransmissions.
  ExprPtr retx = Expr::Pred(3, CompareOp::kGreater, 0.0f);
  std::vector<uint8_t> mask(t.num_rows());
  for (size_t row = 0; row < t.num_rows(); ++row) {
    mask[row] = retx->EvaluateRow(t, row) ? 1 : 0;
  }
  for (uint64_t k = 1; k <= 5; ++k) {
    ASSERT_OK_AND_ASSIGN(uint32_t gpu_v,
                         exec->KthLargest("data_count", k, retx));
    ASSERT_OK_AND_ASSIGN(
        float cpu_v,
        cpu::MaskedQuickSelectLargest(t.column(0).values(), mask, k));
    EXPECT_EQ(gpu_v, static_cast<uint32_t>(cpu_v)) << "k=" << k;
  }
}

TEST_F(IntegrationTest, ModeledTimesConsistentWithPlannerFormulas) {
  // The planner's closed-form GPU estimate should match what PerfModel
  // reports for the actually executed operation (same pass structure).
  ASSERT_OK_AND_ASSIGN(db::Table t, db::MakeTcpIpTable(10000));
  ASSERT_OK_AND_ASSIGN(auto exec, Executor::Make(&device_, &t));
  ASSERT_OK_AND_ASSIGN(core::AttributeBinding attr, exec->BindingFor(0));
  device_.ResetCounters();
  ASSERT_OK(
      core::CompareSelect(&device_, attr, CompareOp::kGreater, 100.0).status());
  gpu::PerfModel model;
  const double measured_model_ms = model.EstimateMs(device_.counters());
  core::Planner planner;
  const double planner_ms =
      planner.GpuMs(core::OperationKind::kPredicateSelect, t.num_rows());
  EXPECT_NEAR(measured_model_ms, planner_ms, planner_ms * 0.05);
}

TEST_F(IntegrationTest, FullAnalyticsSessionAcrossSubsystems) {
  // SQL -> selection materialization -> re-query -> ORDER BY ... LIMIT:
  // the adoption path a downstream user would actually walk.
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(4000));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("flows", &table));
  sql::Session session(&device_, &catalog);

  // SQL count, cross-checked.
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult counted,
      session.Execute("SELECT COUNT(*) FROM flows WHERE data_loss > 0 AND "
                      "data_count >= 1000"));
  uint64_t expected = 0;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    expected += (table.column(1).value(row) > 0.0f &&
                 table.column(0).value(row) >= 1000.0f)
                    ? 1
                    : 0;
  }
  EXPECT_EQ(counted.count, expected);

  // Materialize the lossy flows with the session's GPU operators and re-run
  // analytics on the result table.
  ASSERT_OK_AND_ASSIGN(Executor * exec, session.ExecutorFor("flows"));
  ExprPtr lossy = Expr::Pred(1, CompareOp::kGreater, 0.0f);
  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> lossy_rows,
                       exec->SelectRowIds(lossy));
  ASSERT_OK_AND_ASSIGN(db::Table lossy_table, table.GatherRows(lossy_rows));
  gpu::Device device2(100, 100);
  ASSERT_OK_AND_ASSIGN(auto exec2, Executor::Make(&device2, &lossy_table));
  ASSERT_OK_AND_ASSIGN(
      double lossy_median,
      exec2->Aggregate(AggregateKind::kMedian, "data_count"));
  std::vector<float> lossy_counts = lossy_table.column(0).values();
  ASSERT_OK_AND_ASSIGN(float cpu_median, cpu::Median(lossy_counts));
  EXPECT_DOUBLE_EQ(lossy_median, static_cast<double>(cpu_median));

  // Top-5 by data_count on the derived table, through its own session.
  db::Catalog derived;
  ASSERT_OK(derived.Register("flows", &lossy_table));
  sql::Session derived_session(&device2, &derived);
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult top,
      derived_session.Execute(
          "SELECT * FROM flows ORDER BY data_count DESC LIMIT 5"));
  ASSERT_EQ(top.row_ids.size(), 5u);
  std::vector<float> cpu_sorted = lossy_counts;
  std::sort(cpu_sorted.begin(), cpu_sorted.end(), std::greater<float>());
  for (size_t i = 0; i < top.row_ids.size(); ++i) {
    EXPECT_EQ(lossy_counts[top.row_ids[i]], cpu_sorted[i]) << i;
  }
  ASSERT_OK_AND_ASSIGN(float true_max, cpu::MaxValue(lossy_counts));
  EXPECT_EQ(lossy_counts[top.row_ids[0]], true_max);
}

TEST_F(IntegrationTest, PaperHeadlineWorkloadSmoke) {
  // A miniature of the paper's Section 5 suite on one table: predicate,
  // range, multi-attribute, semi-linear, kth, sum -- all cross-checked.
  ASSERT_OK_AND_ASSIGN(db::Table t, db::MakeTcpIpTable(10000));
  ASSERT_OK_AND_ASSIGN(auto exec, Executor::Make(&device_, &t));
  const auto& dc = t.column(0).values();

  const float p40 = t.column(0).Percentile(0.4);
  ExprPtr predicate = Expr::Pred(0, CompareOp::kGreater, p40);
  ASSERT_OK_AND_ASSIGN(uint64_t n_pred, exec->Count(predicate));
  std::vector<uint8_t> mask;
  EXPECT_EQ(n_pred, cpu::PredicateScan(dc, CompareOp::kGreater, p40, &mask));

  const float p20 = t.column(0).Percentile(0.2);
  const float p80 = t.column(0).Percentile(0.8);
  ASSERT_OK_AND_ASSIGN(uint64_t n_range,
                       exec->RangeCount("data_count", p20, p80));
  EXPECT_EQ(n_range, cpu::RangeScan(dc, p20, p80, &mask));

  ExprPtr multi = Expr::And(
      Expr::And(Expr::Pred(0, CompareOp::kGreater, p40),
                Expr::Pred(1, CompareOp::kLessEqual, 100.0f)),
      Expr::Pred(2, CompareOp::kGreater, 10.0f));
  ASSERT_OK_AND_ASSIGN(uint64_t n_multi, exec->Count(multi));
  uint64_t expected_multi = 0;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    expected_multi += multi->EvaluateRow(t, row) ? 1 : 0;
  }
  EXPECT_EQ(n_multi, expected_multi);

  ASSERT_OK_AND_ASSIGN(double gpu_sum,
                       exec->Aggregate(AggregateKind::kSum, "data_count"));
  EXPECT_DOUBLE_EQ(gpu_sum, static_cast<double>(cpu::SumInt(dc)));

  ASSERT_OK_AND_ASSIGN(uint32_t kth, exec->KthLargest("data_count", 100));
  ASSERT_OK_AND_ASSIGN(float cpu_kth, cpu::QuickSelectLargest(dc, 100));
  EXPECT_EQ(kth, static_cast<uint32_t>(cpu_kth));
}

}  // namespace
}  // namespace gpudb
