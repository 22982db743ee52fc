#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace gpudb {
namespace sql {
namespace {

using core::AggregateKind;

TEST(LexerTest, TokenizesAllKinds) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<Token> tokens,
      Tokenize("SELECT COUNT(*) FROM t WHERE a >= 1.5 AND b <> c;"));
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  const std::vector<TokenKind> expected = {
      TokenKind::kSelect, TokenKind::kCount,  TokenKind::kLParen,
      TokenKind::kStar,   TokenKind::kRParen, TokenKind::kFrom,
      TokenKind::kIdentifier, TokenKind::kWhere, TokenKind::kIdentifier,
      TokenKind::kGe,     TokenKind::kNumber, TokenKind::kAnd,
      TokenKind::kIdentifier, TokenKind::kNe, TokenKind::kIdentifier,
      TokenKind::kSemicolon, TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens,
                       Tokenize("select Sum(x) from T where NOT a < 2"));
  EXPECT_EQ(tokens[0].kind, TokenKind::kSelect);
  EXPECT_EQ(tokens[1].kind, TokenKind::kSum);
  // select(0) Sum(1) "("(2) x(3) ")"(4) from(5) T(6) where(7) NOT(8)
  EXPECT_EQ(tokens[7].kind, TokenKind::kWhere);
  EXPECT_EQ(tokens[8].kind, TokenKind::kNot);
}

TEST(LexerTest, NumbersParse) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens, Tokenize("3.25 100 .5"));
  EXPECT_DOUBLE_EQ(tokens[0].number, 3.25);
  EXPECT_DOUBLE_EQ(tokens[1].number, 100.0);
  EXPECT_DOUBLE_EQ(tokens[2].number, 0.5);
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("SELECT @ FROM t").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() {
    auto t = db::MakeUniformTable(500, 8, 3, /*seed=*/51);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();
    // Columns are named u0, u1, u2.
  }
  db::Table table_;
};

TEST_F(ParserTest, CountStar) {
  ASSERT_OK_AND_ASSIGN(Query q,
                       ParseQuery("SELECT COUNT(*) FROM flows", table_));
  EXPECT_EQ(q.kind, Query::Kind::kCount);
  EXPECT_EQ(q.table_name, "flows");
  EXPECT_EQ(q.where, nullptr);
}

TEST_F(ParserTest, AggregateWithWhere) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT AVG(u0) FROM t WHERE u1 >= 10 AND u2 < 200",
                 table_));
  EXPECT_EQ(q.kind, Query::Kind::kAggregate);
  EXPECT_EQ(q.aggregate, AggregateKind::kAvg);
  EXPECT_EQ(q.column, "u0");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind(), predicate::Expr::Kind::kAnd);
}

TEST_F(ParserTest, KthLargest) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT KTH_LARGEST(u0, 42) FROM t", table_));
  EXPECT_EQ(q.kind, Query::Kind::kKthLargest);
  EXPECT_EQ(q.k, 42u);
  EXPECT_FALSE(
      ParseQuery("SELECT KTH_LARGEST(u0, 1.5) FROM t", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT KTH_LARGEST(u0, 0) FROM t", table_).ok());
}

TEST_F(ParserTest, PrecedenceAndOverOr) {
  // a OR b AND c parses as a OR (b AND c).
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT COUNT(*) FROM t WHERE u0 < 1 OR u1 < 2 AND u2 < 3",
                 table_));
  ASSERT_EQ(q.where->kind(), predicate::Expr::Kind::kOr);
  EXPECT_EQ(q.where->children()[1]->kind(), predicate::Expr::Kind::kAnd);
}

TEST_F(ParserTest, ParenthesesOverridePrecedence) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery(
          "SELECT COUNT(*) FROM t WHERE (u0 < 1 OR u1 < 2) AND u2 < 3",
          table_));
  ASSERT_EQ(q.where->kind(), predicate::Expr::Kind::kAnd);
  EXPECT_EQ(q.where->children()[0]->kind(), predicate::Expr::Kind::kOr);
}

TEST_F(ParserTest, BetweenAndReversedComparison) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT COUNT(*) FROM t WHERE u0 BETWEEN 10 AND 20",
                 table_));
  // BETWEEN expands to the two-sided AND.
  EXPECT_EQ(q.where->kind(), predicate::Expr::Kind::kAnd);
  // number op column mirrors correctly: 5 < u0  ==  u0 > 5.
  ASSERT_OK_AND_ASSIGN(
      Query q2,
      ParseQuery("SELECT COUNT(*) FROM t WHERE 5 < u0", table_));
  EXPECT_EQ(q2.where->pred().op, gpu::CompareOp::kGreater);
  EXPECT_EQ(q2.where->pred().constant, 5.0f);
}

TEST_F(ParserTest, AttrAttrComparison) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT COUNT(*) FROM t WHERE u0 >= u1", table_));
  EXPECT_TRUE(q.where->pred().rhs_is_attr);
  EXPECT_EQ(q.where->pred().rhs_attr, 1u);
}

TEST_F(ParserTest, ErrorsCarryPosition) {
  auto r = ParseQuery("SELECT COUNT(*) FROM t WHERE nope > 1", table_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown column 'nope'"),
            std::string::npos);
  EXPECT_FALSE(ParseQuery("SELECT FROM t", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) t", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) FROM t WHERE", table_).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT COUNT(*) FROM t WHERE u0 >", table_).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT COUNT(*) FROM t trailing", table_).ok());
}

class SqlEndToEndTest : public ::testing::Test {
 protected:
  SqlEndToEndTest() : device_(64, 64), session_(&device_, &catalog_) {
    auto t = db::MakeUniformTable(2000, 8, 3, /*seed=*/52);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();
    EXPECT_TRUE(catalog_.Register("t", &table_).ok());
  }

  gpu::Device device_;
  db::Table table_;
  db::Catalog catalog_;
  Session session_;
};

TEST_F(SqlEndToEndTest, CountMatchesDirectEvaluation) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      session_.Execute(
          "SELECT COUNT(*) FROM t WHERE u0 >= 100 AND NOT u1 = 7"));
  uint64_t expected = 0;
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    expected += (table_.column(0).value(row) >= 100.0f &&
                 table_.column(1).value(row) != 7.0f)
                    ? 1
                    : 0;
  }
  EXPECT_EQ(r.count, expected);
  EXPECT_NE(r.ToString().find("count"), std::string::npos);
}

TEST_F(SqlEndToEndTest, AggregatesRun) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult sum,
      session_.Execute("SELECT SUM(u0) FROM t WHERE u1 < 128"));
  uint64_t expected = 0;
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    if (table_.column(1).value(row) < 128.0f) {
      expected += static_cast<uint64_t>(table_.column(0).value(row));
    }
  }
  EXPECT_DOUBLE_EQ(sum.scalar, static_cast<double>(expected));

  ASSERT_OK_AND_ASSIGN(QueryResult max_r,
                       session_.Execute("SELECT MAX(u2) FROM t"));
  EXPECT_DOUBLE_EQ(max_r.scalar,
                   static_cast<double>(table_.column(2).max()));
}

TEST_F(SqlEndToEndTest, SelectRowsAndKth) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult rows,
      session_.Execute("SELECT * FROM t WHERE u0 BETWEEN 0 AND 9"));
  for (uint32_t row : rows.row_ids) {
    EXPECT_LE(table_.column(0).value(row), 9.0f);
  }
  ASSERT_OK_AND_ASSIGN(
      QueryResult kth,
      session_.Execute("SELECT KTH_LARGEST(u0, 1) FROM t"));
  EXPECT_DOUBLE_EQ(kth.scalar, static_cast<double>(table_.column(0).max()));
}

TEST_F(ParserTest, GroupByParses) {
  ASSERT_OK_AND_ASSIGN(
      Query q, ParseQuery("SELECT SUM(u0) FROM t GROUP BY u1", table_));
  EXPECT_EQ(q.kind, Query::Kind::kGroupBy);
  EXPECT_EQ(q.column, "u0");
  EXPECT_EQ(q.group_by_column, "u1");
  EXPECT_EQ(q.aggregate, core::AggregateKind::kSum);
  // GROUP BY without an aggregate, with WHERE, or with bad syntax fails.
  EXPECT_FALSE(ParseQuery("SELECT * FROM t GROUP BY u1", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) FROM t GROUP BY u1", table_).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT SUM(u0) FROM t WHERE u0 > 1 GROUP BY u1", table_)
          .ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(u0) FROM t GROUP u1", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(u0) FROM t GROUP BY 5", table_).ok());
}

TEST_F(ParserTest, OrderByAndLimitParse) {
  ASSERT_OK_AND_ASSIGN(
      Query q,
      ParseQuery("SELECT * FROM t ORDER BY u0 DESC LIMIT 10", table_));
  EXPECT_EQ(q.kind, Query::Kind::kSelectRows);
  EXPECT_EQ(q.order_by_column, "u0");
  EXPECT_TRUE(q.order_descending);
  EXPECT_EQ(q.limit, 10u);
  ASSERT_OK_AND_ASSIGN(Query asc,
                       ParseQuery("SELECT * FROM t ORDER BY u1 ASC", table_));
  EXPECT_FALSE(asc.order_descending);
  EXPECT_EQ(asc.limit, 0u);
  // Restrictions and syntax errors.
  EXPECT_FALSE(ParseQuery("SELECT COUNT(*) FROM t ORDER BY u0", table_).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT * FROM t WHERE u0 > 1 ORDER BY u0", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t ORDER u0", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t LIMIT 0", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t LIMIT 2.5", table_).ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM(u0) FROM t LIMIT 3", table_).ok());
}

TEST_F(SqlEndToEndTest, OrderByLimitExecutes) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      session_.Execute("SELECT * FROM t ORDER BY u0 DESC LIMIT 5"));
  ASSERT_EQ(r.row_ids.size(), 5u);
  const auto& vals = table_.column(0).values();
  for (size_t i = 1; i < r.row_ids.size(); ++i) {
    EXPECT_GE(vals[r.row_ids[i - 1]], vals[r.row_ids[i]]);
  }
  EXPECT_EQ(vals[r.row_ids[0]], table_.column(0).max());
  // WHERE + LIMIT without ORDER BY trims the selection.
  ASSERT_OK_AND_ASSIGN(
      QueryResult limited,
      session_.Execute("SELECT * FROM t WHERE u0 >= 0 LIMIT 7"));
  EXPECT_EQ(limited.row_ids.size(), 7u);
}

TEST_F(SqlEndToEndTest, GroupByExecutes) {
  // Group u0 sums by the low-cardinality derived key... use a small table
  // with a 2-bit key column instead.
  auto small = db::MakeUniformTable(500, 2, 2, /*seed=*/53);
  ASSERT_TRUE(small.ok());
  gpu::Device device(32, 32);
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("t", &small.ValueOrDie()));
  Session session(&device, &catalog);
  ASSERT_OK_AND_ASSIGN(QueryResult r,
                       session.Execute("SELECT SUM(u1) FROM t GROUP BY u0"));
  EXPECT_EQ(r.kind, Query::Kind::kGroupBy);
  std::map<uint32_t, uint64_t> expected;
  const db::Table& t = small.ValueOrDie();
  for (size_t row = 0; row < t.num_rows(); ++row) {
    expected[t.column(0).int_value(row)] += t.column(1).int_value(row);
  }
  ASSERT_EQ(r.groups.size(), expected.size());
  for (const core::GroupByRow& g : r.groups) {
    EXPECT_DOUBLE_EQ(g.aggregate, static_cast<double>(expected[g.key]));
  }
  EXPECT_NE(r.ToString().find("group(s)"), std::string::npos);
}

TEST(SqlSizeInvarianceTest, FramebufferSizeChangesNoAnswerAndNoCounter) {
  // A device sized to the table and one with 4x the pixels run the nine
  // session-benchmark statement shapes. Work is sized to the viewport, so
  // answers and counter deltas must be identical -- except the row-id
  // SELECT's stencil readback, which still ships the whole framebuffer.
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(4096, /*seed=*/5));
  const auto quantile = [&](const char* column, double q) {
    std::vector<float> v = table.column(table.ColumnIndex(column).ValueOrDie())
                               .values();
    std::sort(v.begin(), v.end());
    return std::to_string(static_cast<uint32_t>(
        v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))]));
  };
  const std::vector<std::string> shapes = {
      "SELECT COUNT(*) FROM flows WHERE data_count > " +
          quantile("data_count", 0.5),
      "SELECT COUNT(*) FROM flows WHERE data_count >= " +
          quantile("data_count", 0.25) + " AND flow_rate < " +
          quantile("flow_rate", 0.75),
      "SELECT COUNT(*) FROM flows WHERE flow_rate BETWEEN " +
          quantile("flow_rate", 0.2) + " AND " + quantile("flow_rate", 0.6),
      "SELECT COUNT(*) FROM flows WHERE data_count < flow_rate",
      "SELECT COUNT(*) FROM flows WHERE NOT (data_count < " +
          quantile("data_count", 0.3) + " OR flow_rate > " +
          quantile("flow_rate", 0.8) + ")",
      "SELECT * FROM flows WHERE data_count > " + quantile("data_count", 0.9),
      "SELECT MEDIAN(data_count) FROM flows",
      "SELECT MAX(data_count) FROM flows WHERE flow_rate BETWEEN " +
          quantile("flow_rate", 0.4) + " AND " + quantile("flow_rate", 0.5),
      "SELECT SUM(data_count) FROM flows WHERE flow_rate >= " +
          quantile("flow_rate", 0.2) + " AND flow_rate < " +
          quantile("flow_rate", 0.8) + " AND data_count BETWEEN " +
          quantile("data_count", 0.1) + " AND " +
          quantile("data_count", 0.9) + " AND retransmissions < " +
          quantile("retransmissions", 0.8),
  };
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("flows", &table));
  gpu::Device fitted(64, 64);
  gpu::Device large(128, 128);
  Session fitted_session(&fitted, &catalog);
  Session large_session(&large, &catalog);
  for (const std::string& sql : shapes) {
    SCOPED_TRACE(sql);
    const gpu::DeviceCounters fitted_before = fitted.counters();
    const gpu::DeviceCounters large_before = large.counters();
    ASSERT_OK_AND_ASSIGN(QueryResult a, fitted_session.Execute(sql));
    ASSERT_OK_AND_ASSIGN(QueryResult b, large_session.Execute(sql));
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.scalar, b.scalar);
    EXPECT_EQ(a.row_ids, b.row_ids);
    const gpu::DeviceCounters da =
        gpu::DeltaSince(fitted_before, fitted.counters());
    gpu::DeviceCounters db = gpu::DeltaSince(large_before, large.counters());
    EXPECT_GT(da.passes, 0u);
    const uint64_t readback_gap =
        a.kind == Query::Kind::kSelectRows
            ? large.framebuffer().pixel_count() -
                  fitted.framebuffer().pixel_count()
            : 0;
    EXPECT_EQ(db.bytes_read_back, da.bytes_read_back + readback_gap);
    db.bytes_read_back = da.bytes_read_back;
    int differing = 0;
    db.ZipWith(da, [&](uint64_t& mine, uint64_t theirs) {
      differing += mine != theirs ? 1 : 0;
    });
    EXPECT_EQ(differing, 0);
  }
}

TEST_F(SqlEndToEndTest, NullDeviceRejected) {
  EXPECT_FALSE(Session(nullptr, &catalog_).Execute("SELECT COUNT(*) FROM t")
                   .ok());
}

}  // namespace
}  // namespace sql
}  // namespace gpudb
