#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "src/db/column.h"
#include "src/db/datagen.h"
#include "src/db/table.h"
#include "tests/test_util.h"

namespace gpudb {
namespace db {
namespace {

TEST(ColumnTest, MakeInt24Validates) {
  EXPECT_FALSE(Column::MakeInt24("c", {}).ok());
  EXPECT_FALSE(Column::MakeInt24("c", {1u << 24}).ok());
  ASSERT_OK_AND_ASSIGN(Column c, Column::MakeInt24("c", {(1u << 24) - 1}));
  EXPECT_EQ(c.int_value(0), (1u << 24) - 1);
}

TEST(ColumnTest, MakeFloatRejectsNonFinite) {
  EXPECT_FALSE(Column::MakeFloat("f", {1.0f, NAN}).ok());
  EXPECT_FALSE(Column::MakeFloat("f", {INFINITY}).ok());
  EXPECT_TRUE(Column::MakeFloat("f", {1.0f, -2.5f}).ok());
}

TEST(ColumnTest, MinMaxAndBitWidth) {
  ASSERT_OK_AND_ASSIGN(Column c, Column::MakeInt24("c", {5, 1, 300, 2}));
  EXPECT_EQ(c.min(), 1.0f);
  EXPECT_EQ(c.max(), 300.0f);
  EXPECT_EQ(c.bit_width(), 9);  // 300 needs 9 bits
}

TEST(ColumnTest, BitWidthOfZeroColumnIsOne) {
  ASSERT_OK_AND_ASSIGN(Column c, Column::MakeInt24("c", {0, 0}));
  EXPECT_EQ(c.bit_width(), 1);
}

TEST(ColumnTest, FloatColumnsHaveNoBitWidth) {
  ASSERT_OK_AND_ASSIGN(Column c, Column::MakeFloat("f", {1.5f}));
  EXPECT_EQ(c.bit_width(), 0);
}

TEST(ColumnTest, PercentileMatchesSortedRank) {
  ASSERT_OK_AND_ASSIGN(Column c,
                       Column::MakeInt24("c", {10, 20, 30, 40, 50, 60, 70,
                                               80, 90, 100}));
  EXPECT_EQ(c.Percentile(0.0), 10.0f);
  EXPECT_EQ(c.Percentile(0.1), 10.0f);
  EXPECT_EQ(c.Percentile(0.5), 50.0f);
  EXPECT_EQ(c.Percentile(1.0), 100.0f);
  // 60% selectivity for x >= Percentile(0.4): 6 of 10 values are >= 50...
  // Percentile(0.4) = 40, and #{x >= 41..} -- check the intended use:
  const float p40 = c.Percentile(0.4);
  int selected = 0;
  for (float v : c.values()) selected += v > p40 ? 1 : 0;
  EXPECT_EQ(selected, 6);  // strictly-greater leaves 60%
}

TEST(TableTest, AddColumnValidatesLengthAndNames) {
  Table t;
  ASSERT_OK_AND_ASSIGN(Column a, Column::MakeInt24("a", {1, 2, 3}));
  ASSERT_OK_AND_ASSIGN(Column b, Column::MakeInt24("b", {4, 5, 6}));
  ASSERT_OK_AND_ASSIGN(Column bad, Column::MakeInt24("c", {7}));
  ASSERT_OK_AND_ASSIGN(Column dup, Column::MakeInt24("a", {7, 8, 9}));
  ASSERT_OK(t.AddColumn(std::move(a)));
  ASSERT_OK(t.AddColumn(std::move(b)));
  EXPECT_FALSE(t.AddColumn(std::move(bad)).ok());
  EXPECT_FALSE(t.AddColumn(std::move(dup)).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
}

TEST(TableTest, ColumnLookup) {
  Table t;
  ASSERT_OK_AND_ASSIGN(Column a, Column::MakeInt24("alpha", {1}));
  ASSERT_OK(t.AddColumn(std::move(a)));
  ASSERT_OK_AND_ASSIGN(const Column* c, t.ColumnByName("alpha"));
  EXPECT_EQ(c->name(), "alpha");
  EXPECT_FALSE(t.ColumnByName("beta").ok());
  ASSERT_OK_AND_ASSIGN(size_t idx, t.ColumnIndex("alpha"));
  EXPECT_EQ(idx, 0u);
  EXPECT_FALSE(t.ColumnIndex("beta").ok());
}

TEST(TableTest, ToTexturePacksChannels) {
  Table t;
  ASSERT_OK_AND_ASSIGN(Column a, Column::MakeInt24("a", {1, 2, 3, 4, 5}));
  ASSERT_OK_AND_ASSIGN(Column b, Column::MakeInt24("b", {9, 8, 7, 6, 5}));
  ASSERT_OK(t.AddColumn(std::move(a)));
  ASSERT_OK(t.AddColumn(std::move(b)));
  ASSERT_OK_AND_ASSIGN(gpu::Texture tex, t.ToTexture({1, 0}, 3));
  EXPECT_EQ(tex.channels(), 2);
  EXPECT_EQ(tex.At(0, 0), 9.0f);  // channel 0 = column 1
  EXPECT_EQ(tex.At(0, 1), 1.0f);
  EXPECT_FALSE(t.ToTexture({5}, 3).ok());
  EXPECT_FALSE(t.ToTexture({}, 3).ok());
}

TEST(TableTest, GatherRowsPreservesSchemaAndValues) {
  Table t;
  ASSERT_OK_AND_ASSIGN(Column a, Column::MakeInt24("a", {10, 20, 30, 40}));
  ASSERT_OK_AND_ASSIGN(Column b,
                       Column::MakeFloat("b", {1.5f, 2.5f, 3.5f, 4.5f}));
  ASSERT_OK(t.AddColumn(std::move(a)));
  ASSERT_OK(t.AddColumn(std::move(b)));
  ASSERT_OK_AND_ASSIGN(Table gathered, t.GatherRows({3, 1, 1}));
  ASSERT_EQ(gathered.num_rows(), 3u);
  EXPECT_EQ(gathered.column(0).int_value(0), 40u);
  EXPECT_EQ(gathered.column(0).int_value(1), 20u);
  EXPECT_EQ(gathered.column(0).int_value(2), 20u);  // duplicates allowed
  EXPECT_FLOAT_EQ(gathered.column(1).value(0), 4.5f);
  EXPECT_EQ(gathered.column(1).type(), ColumnType::kFloat32);
  EXPECT_FALSE(t.GatherRows({}).ok());
  EXPECT_FALSE(t.GatherRows({9}).ok());
}

TEST(DatagenTest, TcpIpShapeMatchesPaper) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeTcpIpTable(10000));
  EXPECT_EQ(t.num_rows(), 10000u);
  EXPECT_EQ(t.num_columns(), 4u);
  ASSERT_OK_AND_ASSIGN(const Column* dc, t.ColumnByName("data_count"));
  // Paper Section 5.9: data_count needs 19 bits and has high variance.
  EXPECT_EQ(dc->bit_width(), 19);
  double mean = 0, m2 = 0;
  for (float v : dc->values()) mean += v;
  mean /= dc->size();
  for (float v : dc->values()) m2 += (v - mean) * (v - mean);
  const double stddev = std::sqrt(m2 / dc->size());
  EXPECT_GT(stddev, mean * 0.5);  // high variance
  EXPECT_TRUE(t.ColumnByName("data_loss").ok());
  EXPECT_TRUE(t.ColumnByName("flow_rate").ok());
  EXPECT_TRUE(t.ColumnByName("retransmissions").ok());
}

TEST(DatagenTest, TcpIpDeterministic) {
  ASSERT_OK_AND_ASSIGN(Table a, MakeTcpIpTable(100, /*seed=*/7));
  ASSERT_OK_AND_ASSIGN(Table b, MakeTcpIpTable(100, /*seed=*/7));
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.column(0).value(i), b.column(0).value(i));
  }
}

TEST(DatagenTest, CensusShape) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeCensusTable(5000));
  EXPECT_EQ(t.num_rows(), 5000u);
  ASSERT_OK_AND_ASSIGN(const Column* age, t.ColumnByName("age"));
  EXPECT_GE(age->min(), 16.0f);
  EXPECT_LE(age->max(), 91.0f);
  ASSERT_OK_AND_ASSIGN(const Column* inc, t.ColumnByName("monthly_income"));
  EXPECT_LE(inc->bit_width(), 18);
}

TEST(DatagenTest, ZipfIsSkewedAndBounded) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeZipfTable(5000, 1000, 1.1));
  EXPECT_EQ(t.num_rows(), 5000u);
  const Column& c = t.column(0);
  EXPECT_LT(c.max(), 1000.0f);
  // Zipf: value 0 is the most frequent by a wide margin.
  size_t zeros = 0;
  for (float v : c.values()) zeros += v == 0.0f ? 1 : 0;
  EXPECT_GT(zeros, t.num_rows() / 20);
  EXPECT_FALSE(MakeZipfTable(0, 10).ok());
  EXPECT_FALSE(MakeZipfTable(10, 0).ok());
  EXPECT_FALSE(MakeZipfTable(10, 10, -1.0).ok());
  EXPECT_FALSE(MakeZipfTable(10, 1u << 24).ok());
}

TEST(DatagenTest, UniformRespectsBits) {
  ASSERT_OK_AND_ASSIGN(Table t, MakeUniformTable(1000, 8, 2));
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_LT(t.column(0).max(), 256.0f);
  EXPECT_FALSE(MakeUniformTable(10, 25).ok());
  EXPECT_FALSE(MakeUniformTable(0, 8).ok());
  EXPECT_FALSE(MakeUniformTable(10, 8, 5).ok());
}

TEST(TableFormatTest, FormatRowsAlignsAndTruncates) {
  Table t;
  ASSERT_OK_AND_ASSIGN(Column a, Column::MakeInt24("id", {7, 42, 100000}));
  ASSERT_OK_AND_ASSIGN(Column b,
                       Column::MakeFloat("score", {1.5f, -2.0f, 0.25f}));
  ASSERT_OK(t.AddColumn(std::move(a)));
  ASSERT_OK(t.AddColumn(std::move(b)));
  const std::string text = t.FormatRows({2, 0}, /*max_rows=*/10);
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_NE(text.find("100000"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_EQ(text.find("42"), std::string::npos);  // row 1 not requested
  const std::string truncated = t.FormatRows({0, 1, 2}, /*max_rows=*/2);
  EXPECT_NE(truncated.find("(1 more)"), std::string::npos);
}

}  // namespace
}  // namespace db
}  // namespace gpudb
