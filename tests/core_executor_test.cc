#include <vector>

#include <gtest/gtest.h>

#include "src/core/executor.h"
#include "src/core/selection.h"
#include "src/cpu/aggregate.h"
#include "src/cpu/quickselect.h"
#include "src/cpu/scan.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;
using predicate::Expr;
using predicate::ExprPtr;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : device_(100, 100) {
    auto t = db::MakeTcpIpTable(5000, /*seed=*/101);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();
    auto exec = Executor::Make(&device_, &table_);
    EXPECT_TRUE(exec.ok());
    executor_ = std::move(exec).ValueOrDie();
  }

  /// CPU reference count for an expression.
  uint64_t CpuCount(const ExprPtr& e) {
    uint64_t n = 0;
    for (size_t row = 0; row < table_.num_rows(); ++row) {
      n += e->EvaluateRow(table_, row) ? 1 : 0;
    }
    return n;
  }

  gpu::Device device_;
  db::Table table_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, MakeValidatesInputs) {
  EXPECT_FALSE(Executor::Make(nullptr, &table_).ok());
  EXPECT_FALSE(Executor::Make(&device_, nullptr).ok());
  db::Table empty;
  EXPECT_FALSE(Executor::Make(&device_, &empty).ok());
  gpu::Device tiny(10, 10);
  auto r = Executor::Make(&tiny, &table_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ExecutorTest, CountWithNullWhereIsAllRows) {
  ASSERT_OK_AND_ASSIGN(uint64_t n, executor_->Count(nullptr));
  EXPECT_EQ(n, table_.num_rows());
}

TEST_F(ExecutorTest, SinglePredicateCount) {
  const float p40 = table_.column(0).Percentile(0.4);
  ExprPtr e = Expr::Pred(0, CompareOp::kGreater, p40);
  ASSERT_OK_AND_ASSIGN(uint64_t n, executor_->Count(e));
  EXPECT_EQ(n, CpuCount(e));
}

TEST_F(ExecutorTest, ComplexBooleanCount) {
  ExprPtr e = Expr::And(
      Expr::Or(Expr::Pred(0, CompareOp::kGreaterEqual, 10000.0f),
               Expr::Not(Expr::Pred(1, CompareOp::kEqual, 0.0f))),
      Expr::Pred(2, CompareOp::kLess, 50000.0f));
  ASSERT_OK_AND_ASSIGN(uint64_t n, executor_->Count(e));
  EXPECT_EQ(n, CpuCount(e));
}

TEST_F(ExecutorTest, AttrAttrPredicateCount) {
  // data_loss < retransmissions -- a cross-attribute comparison lowered to
  // a semi-linear query.
  ExprPtr e = Expr::PredAttr(1, CompareOp::kLess, 3);
  ASSERT_OK_AND_ASSIGN(uint64_t n, executor_->Count(e));
  EXPECT_EQ(n, CpuCount(e));
}

TEST_F(ExecutorTest, SelectRowIdsMatchRowEvaluation) {
  ExprPtr e = Expr::Between(0, 5000.0f, 200000.0f);
  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> rows, executor_->SelectRowIds(e));
  std::vector<bool> selected(table_.num_rows(), false);
  for (uint32_t row : rows) selected[row] = true;
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    EXPECT_EQ(selected[row], e->EvaluateRow(table_, row)) << row;
  }
}

TEST_F(ExecutorTest, SelectRowIdsSortedAndCorrect) {
  ExprPtr e = Expr::Pred(3, CompareOp::kGreater, 5.0f);
  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> rows, executor_->SelectRowIds(e));
  uint32_t prev = 0;
  bool first = true;
  for (uint32_t row : rows) {
    EXPECT_TRUE(e->EvaluateRow(table_, row));
    if (!first) {
      EXPECT_GT(row, prev);
    }
    prev = row;
    first = false;
  }
  EXPECT_EQ(rows.size(), CpuCount(e));
}

TEST_F(ExecutorTest, SelectionToBitmapStopsAtTheViewport) {
  // The executor sized the viewport to the table; stencil pixels past it
  // are never cleared, so reading them back is refused.
  ASSERT_OK_AND_ASSIGN(StencilSelection sel, executor_->Where(nullptr));
  ASSERT_OK_AND_ASSIGN(
      std::vector<uint8_t> bitmap,
      SelectionToBitmap(&device_, sel, device_.viewport_pixels()));
  EXPECT_EQ(bitmap.size(), table_.num_rows());
  const uint64_t past = device_.viewport_pixels() + 1;
  ASSERT_LT(past, device_.framebuffer().pixel_count());
  auto r = SelectionToBitmap(&device_, sel, past);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(SelectionToRowIds(&device_, sel, past).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(ExecutorTest, AggregatesWithoutWhere) {
  const auto& values = table_.column(0).values();
  ASSERT_OK_AND_ASSIGN(double sum,
                       executor_->Aggregate(AggregateKind::kSum, "data_count"));
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(cpu::SumInt(values)));
  ASSERT_OK_AND_ASSIGN(double max_v,
                       executor_->Aggregate(AggregateKind::kMax, "data_count"));
  EXPECT_DOUBLE_EQ(max_v, table_.column(0).max());
  ASSERT_OK_AND_ASSIGN(double min_v,
                       executor_->Aggregate(AggregateKind::kMin, "data_count"));
  EXPECT_DOUBLE_EQ(min_v, table_.column(0).min());
  ASSERT_OK_AND_ASSIGN(
      double count, executor_->Aggregate(AggregateKind::kCount, "data_count"));
  EXPECT_DOUBLE_EQ(count, static_cast<double>(table_.num_rows()));
  ASSERT_OK_AND_ASSIGN(double med,
                       executor_->Aggregate(AggregateKind::kMedian,
                                            "data_count"));
  ASSERT_OK_AND_ASSIGN(float cpu_med, cpu::Median(values));
  EXPECT_DOUBLE_EQ(med, static_cast<double>(cpu_med));
}

TEST_F(ExecutorTest, AggregateWithWhere) {
  ExprPtr e = Expr::Pred(1, CompareOp::kGreater, 0.0f);  // lossy flows
  std::vector<uint8_t> mask(table_.num_rows());
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    mask[row] = e->EvaluateRow(table_, row) ? 1 : 0;
  }
  ASSERT_OK_AND_ASSIGN(
      double sum, executor_->Aggregate(AggregateKind::kSum, "data_count", e));
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(cpu::MaskedSumInt(
                            table_.column(0).values(), mask)));
  ASSERT_OK_AND_ASSIGN(
      double avg, executor_->Aggregate(AggregateKind::kAvg, "data_count", e));
  ASSERT_OK_AND_ASSIGN(double cpu_avg, cpu::MaskedAvgInt(
                           table_.column(0).values(), mask));
  EXPECT_DOUBLE_EQ(avg, cpu_avg);
}

TEST_F(ExecutorTest, KthLargestWithAndWithoutWhere) {
  const auto& values = table_.column(0).values();
  ASSERT_OK_AND_ASSIGN(uint32_t top10, executor_->KthLargest("data_count", 10));
  ASSERT_OK_AND_ASSIGN(float cpu_top10, cpu::QuickSelectLargest(values, 10));
  EXPECT_EQ(top10, static_cast<uint32_t>(cpu_top10));

  ExprPtr e = Expr::Pred(2, CompareOp::kGreaterEqual, 1000.0f);
  std::vector<uint8_t> mask(table_.num_rows());
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    mask[row] = e->EvaluateRow(table_, row) ? 1 : 0;
  }
  ASSERT_OK_AND_ASSIGN(uint32_t masked,
                       executor_->KthLargest("data_count", 25, e));
  ASSERT_OK_AND_ASSIGN(float cpu_masked,
                       cpu::MaskedQuickSelectLargest(values, mask, 25));
  EXPECT_EQ(masked, static_cast<uint32_t>(cpu_masked));
}

TEST_F(ExecutorTest, RangeCountMatchesBetween) {
  ASSERT_OK_AND_ASSIGN(uint64_t fast,
                       executor_->RangeCount("data_count", 1000.0, 100000.0));
  ExprPtr e = Expr::Between(0, 1000.0f, 100000.0f);
  EXPECT_EQ(fast, CpuCount(e));
}

TEST_F(ExecutorTest, SemilinearCountMatchesCpu) {
  std::vector<std::pair<std::string, float>> weighted = {
      {"data_count", 0.001f},
      {"data_loss", -1.0f},
      {"flow_rate", 0.0005f},
      {"retransmissions", 2.0f}};
  ASSERT_OK_AND_ASSIGN(
      uint64_t n,
      executor_->SemilinearCount(weighted, CompareOp::kGreater, 50.0f));
  std::vector<uint8_t> mask;
  const uint64_t expected = cpu::SemilinearScan(
      {&table_.column(0).values(), &table_.column(1).values(),
       &table_.column(2).values(), &table_.column(3).values()},
      {0.001f, -1.0f, 0.0005f, 2.0f}, CompareOp::kGreater, 50.0f, &mask);
  EXPECT_EQ(n, expected);
}

TEST_F(ExecutorTest, WideSemilinearCountAcrossTwoTextures) {
  // Six weighted terms (columns repeat with different weights): split
  // across texture units 0 and 1 (paper Section 4.1.2's long vectors).
  const std::vector<std::pair<std::string, float>> weighted = {
      {"data_count", 0.001f},  {"data_loss", -2.0f},
      {"flow_rate", 0.0005f},  {"retransmissions", 3.0f},
      {"data_loss", 1.5f},     {"retransmissions", -1.0f}};
  ASSERT_OK_AND_ASSIGN(
      uint64_t n,
      executor_->SemilinearCount(weighted, CompareOp::kGreater, 40.0f));
  uint64_t expected = 0;
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    const float dot = 0.001f * table_.column(0).value(row) -
                      2.0f * table_.column(1).value(row) +
                      0.0005f * table_.column(2).value(row) +
                      3.0f * table_.column(3).value(row) +
                      1.5f * table_.column(1).value(row) -
                      1.0f * table_.column(3).value(row);
    expected += dot > 40.0f ? 1 : 0;
  }
  EXPECT_EQ(n, expected);
}

// SemilinearCount packs its columns into one texture per column list and
// keeps it, as the two-column WHERE path does: repeating a call, narrow or
// wide, uploads nothing and makes no new texture resident.
TEST_F(ExecutorTest, RepeatedSemilinearCountsReuseTheirTextures) {
  const std::vector<std::pair<std::string, float>> narrow = {
      {"data_count", 0.001f}, {"data_loss", -1.0f}};
  const std::vector<std::pair<std::string, float>> wide = {
      {"data_count", 0.001f},  {"data_loss", -2.0f},
      {"flow_rate", 0.0005f},  {"retransmissions", 3.0f},
      {"data_loss", 1.5f},     {"retransmissions", -1.0f}};
  for (const auto* weighted : {&narrow, &wide}) {
    SCOPED_TRACE(weighted == &narrow ? "narrow" : "wide");
    ASSERT_OK_AND_ASSIGN(
        const uint64_t first,
        executor_->SemilinearCount(*weighted, CompareOp::kGreater, 40.0f));
    const uint64_t uploaded = device_.counters().bytes_uploaded;
    const uint64_t resident = device_.video_memory_used();
    for (int i = 0; i < 2; ++i) {
      ASSERT_OK_AND_ASSIGN(
          const uint64_t again,
          executor_->SemilinearCount(*weighted, CompareOp::kGreater, 40.0f));
      EXPECT_EQ(again, first);
      EXPECT_EQ(device_.counters().bytes_uploaded, uploaded);
      EXPECT_EQ(device_.video_memory_used(), resident);
    }
  }
  // The attribute-pair path shares the cache: data_count - data_loss packs
  // the narrow call's two columns, so its WHERE uploads nothing either.
  const uint64_t uploaded = device_.counters().bytes_uploaded;
  ASSERT_OK(executor_->Count(Expr::PredAttr(0, CompareOp::kGreater, 1))
                .status());
  EXPECT_EQ(device_.counters().bytes_uploaded, uploaded);
}

TEST_F(ExecutorTest, ErrorPaths) {
  EXPECT_FALSE(executor_->Aggregate(AggregateKind::kSum, "no_such").ok());
  EXPECT_FALSE(executor_->KthLargest("no_such", 1).ok());
  EXPECT_FALSE(executor_->RangeCount("no_such", 0, 1).ok());
  EXPECT_FALSE(executor_->SemilinearCount({}, CompareOp::kLess, 0).ok());
  // Nine weighted columns exceed the two-texture-unit limit.
  EXPECT_FALSE(
      executor_
          ->SemilinearCount({{"data_count", 1.0f},
                             {"data_loss", 1.0f},
                             {"flow_rate", 1.0f},
                             {"retransmissions", 1.0f},
                             {"data_count", 1.0f},
                             {"data_loss", 1.0f},
                             {"flow_rate", 1.0f},
                             {"retransmissions", 1.0f},
                             {"data_count", 1.0f}},
                            CompareOp::kLess, 0)
          .ok());
  // Invalid column index in the expression.
  EXPECT_FALSE(
      executor_->Count(Expr::Pred(9, CompareOp::kEqual, 0.0f)).ok());
}

TEST_F(ExecutorTest, OrderByRowIdsMatchesStableSort) {
  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> asc,
                       executor_->OrderByRowIds("data_count"));
  ASSERT_EQ(asc.size(), table_.num_rows());
  // Reference: sort row ids by (value, row) ascending -- the executor's
  // documented tie-break.
  std::vector<uint32_t> expected(table_.num_rows());
  for (uint32_t i = 0; i < expected.size(); ++i) expected[i] = i;
  const auto& vals = table_.column(0).values();
  std::sort(expected.begin(), expected.end(),
            [&](uint32_t a, uint32_t b) {
              return vals[a] != vals[b] ? vals[a] < vals[b] : a < b;
            });
  EXPECT_EQ(asc, expected);

  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> desc,
                       executor_->OrderByRowIds("data_count", false));
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(desc, expected);
  EXPECT_FALSE(executor_->OrderByRowIds("no_such").ok());
}

TEST_F(ExecutorTest, GroupByRollup) {
  // retransmissions has a small domain; roll up average data_count per
  // retransmission count.
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> expected;
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    const auto key = static_cast<uint32_t>(table_.column(3).value(row));
    expected[key].first += 1;
    expected[key].second += static_cast<uint64_t>(table_.column(0).value(row));
  }
  ASSERT_OK_AND_ASSIGN(
      std::vector<GroupByRow> rows,
      executor_->GroupBy("retransmissions", "data_count",
                         AggregateKind::kAvg));
  ASSERT_EQ(rows.size(), expected.size());
  for (const GroupByRow& row : rows) {
    ASSERT_TRUE(expected.count(row.key));
    EXPECT_EQ(row.count, expected[row.key].first);
    EXPECT_DOUBLE_EQ(row.aggregate,
                     static_cast<double>(expected[row.key].second) /
                         static_cast<double>(expected[row.key].first));
  }
  EXPECT_FALSE(executor_->GroupBy("no_such", "data_count",
                                  AggregateKind::kSum).ok());
}

TEST_F(ExecutorTest, QuantilesMatchSortedColumn) {
  std::vector<float> sorted = table_.column(0).values();
  std::sort(sorted.begin(), sorted.end());
  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> quartiles,
                       executor_->Quantiles("data_count", 4));
  ASSERT_EQ(quartiles.size(), 4u);
  const size_t n = sorted.size();
  for (int i = 0; i < 4; ++i) {
    const size_t rank = ((i + 1) * n + 3) / 4;
    EXPECT_EQ(quartiles[i], static_cast<uint32_t>(sorted[rank - 1]))
        << "quartile " << i;
  }
  EXPECT_FALSE(executor_->Quantiles("no_such", 4).ok());
}

TEST_F(ExecutorTest, DisjunctiveQuerySurvivesCnfBlowupViaDnf) {
  // An OR of 14 two-predicate conjunctions: CNF distribution would need
  // 2^14 = 16384 clauses (beyond the 4096-clause guard), so the executor's
  // normal-form planner must route it through EvalDnf -- and still match
  // brute-force evaluation.
  ExprPtr e;
  for (int i = 0; i < 14; ++i) {
    const auto a = static_cast<size_t>(i % 4);
    const auto b = static_cast<size_t>((i + 1) % 4);
    ExprPtr pattern =
        Expr::And(Expr::Pred(a, CompareOp::kGreater, float(100 * i)),
                  Expr::Pred(b, CompareOp::kLessEqual, float(50 * i + 25)));
    e = e == nullptr ? pattern : Expr::Or(e, pattern);
  }
  ASSERT_FALSE(predicate::ToCnf(e).ok());  // CNF path is impossible
  ASSERT_OK_AND_ASSIGN(uint64_t n, executor_->Count(e));
  EXPECT_EQ(n, CpuCount(e));
}

TEST_F(ExecutorTest, ConjunctiveQuerySurvivesDnfBlowupViaCnf) {
  // The dual: an AND of 14 two-predicate disjunctions only converts to CNF.
  ExprPtr e;
  for (int i = 0; i < 14; ++i) {
    const auto a = static_cast<size_t>(i % 4);
    const auto b = static_cast<size_t>((i + 1) % 4);
    ExprPtr pattern =
        Expr::Or(Expr::Pred(a, CompareOp::kGreater, float(100 * i)),
                 Expr::Pred(b, CompareOp::kLessEqual, float(50 * i + 25)));
    e = e == nullptr ? pattern : Expr::And(e, pattern);
  }
  ASSERT_FALSE(predicate::ToDnf(e).ok());
  ASSERT_OK_AND_ASSIGN(uint64_t n, executor_->Count(e));
  EXPECT_EQ(n, CpuCount(e));
}

TEST_F(ExecutorTest, ColumnTexturesUploadedOnce) {
  ExprPtr e = Expr::Pred(0, CompareOp::kGreater, 100.0f);
  ASSERT_OK(executor_->Count(e).status());
  const uint64_t after_first = device_.counters().bytes_uploaded;
  ASSERT_OK(executor_->Count(e).status());
  EXPECT_EQ(device_.counters().bytes_uploaded, after_first);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
