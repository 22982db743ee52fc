#include "perfbench/shapes.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "src/cpu/aggregate.h"
#include "src/cpu/quickselect.h"
#include "src/cpu/scan.h"
#include "src/predicate/cnf.h"
#include "src/predicate/expr.h"

namespace perfbench {

using gpudb::Result;
using gpudb::Status;
using gpudb::gpu::CompareOp;
using gpudb::predicate::Expr;
using gpudb::predicate::ExprPtr;
using Kind = gpudb::sql::Query::Kind;

namespace {

/// Value at the p-quantile of a column: a predicate `col > Quantile(col, p)`
/// selects about 1 - p of the rows whatever the seed.
uint32_t Quantile(const std::vector<float>& values, double p) {
  std::vector<float> copy = values;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(copy.size() - 1));
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(idx),
                   copy.end());
  return static_cast<uint32_t>(copy[idx]);
}

std::string Sql(const char* format, uint32_t a = 0, uint32_t b = 0,
                uint32_t c = 0, uint32_t d = 0, uint32_t e = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d, e);
  return buf;
}

Expected Count(uint64_t n) {
  Expected e;
  e.kind = Kind::kCount;
  e.count = n;
  return e;
}

Expected Scalar(double v) {
  Expected e;
  e.kind = Kind::kAggregate;
  e.scalar = v;
  return e;
}

/// Selection mask of an arbitrary boolean expression, by cpu::CnfScan.
Result<std::vector<uint8_t>> CnfMask(const gpudb::db::Table& table,
                                     const ExprPtr& expr) {
  GPUDB_ASSIGN_OR_RETURN(gpudb::predicate::Cnf cnf,
                         gpudb::predicate::ToCnf(expr));
  std::vector<uint8_t> mask;
  GPUDB_ASSIGN_OR_RETURN(uint64_t n, gpudb::cpu::CnfScan(table, cnf, &mask));
  (void)n;
  return mask;
}

}  // namespace

Result<std::vector<Statement>> MakeStatements(const gpudb::db::Table& table) {
  GPUDB_ASSIGN_OR_RETURN(size_t dc_i, table.ColumnIndex("data_count"));
  GPUDB_ASSIGN_OR_RETURN(size_t fr_i, table.ColumnIndex("flow_rate"));
  GPUDB_ASSIGN_OR_RETURN(size_t rt_i, table.ColumnIndex("retransmissions"));
  const std::vector<float>& dc = table.column(dc_i).values();
  const std::vector<float>& fr = table.column(fr_i).values();
  const std::vector<float>& rt = table.column(rt_i).values();
  const auto f = [](uint32_t v) { return static_cast<float>(v); };

  std::vector<Statement> out;
  std::vector<uint8_t> mask;

  {  // 1-predicate COUNT, about 50% selected.
    const uint32_t t = Quantile(dc, 0.5);
    const uint64_t n = gpudb::cpu::PredicateScan(dc, CompareOp::kGreater, f(t), &mask);
    out.push_back({"count_1pred",
                   Sql("SELECT COUNT(*) FROM flows WHERE data_count > %u", t),
                   Count(n)});
  }
  {  // 2-predicate CNF COUNT.
    const uint32_t a = Quantile(dc, 0.25);
    const uint32_t b = Quantile(fr, 0.75);
    GPUDB_ASSIGN_OR_RETURN(
        mask, CnfMask(table, Expr::And(Expr::Pred(dc_i, CompareOp::kGreaterEqual, f(a)),
                                       Expr::Pred(fr_i, CompareOp::kLess, f(b)))));
    out.push_back({"count_cnf2",
                   Sql("SELECT COUNT(*) FROM flows WHERE data_count >= %u AND "
                       "flow_rate < %u",
                       a, b),
                   Count(gpudb::cpu::CountMask(mask))});
  }
  {  // BETWEEN: the depth-bounds range test.
    const uint32_t lo = Quantile(fr, 0.2);
    const uint32_t hi = Quantile(fr, 0.6);
    const uint64_t n = gpudb::cpu::RangeScan(fr, f(lo), f(hi), &mask);
    out.push_back({"between",
                   Sql("SELECT COUNT(*) FROM flows WHERE flow_rate BETWEEN %u "
                       "AND %u",
                       lo, hi),
                   Count(n)});
  }
  {  // Attribute-attribute compare (the semi-linear rewrite).
    const uint64_t n =
        gpudb::cpu::AttrCompareScan(dc, fr, CompareOp::kLess, &mask);
    out.push_back({"attr_compare",
                   "SELECT COUNT(*) FROM flows WHERE data_count < flow_rate",
                   Count(n)});
  }
  {  // NOT (... OR ...): De Morgan into a 2-clause CNF.
    const uint32_t a = Quantile(dc, 0.3);
    const uint32_t b = Quantile(fr, 0.8);
    GPUDB_ASSIGN_OR_RETURN(
        mask, CnfMask(table, Expr::Not(Expr::Or(
                                 Expr::Pred(dc_i, CompareOp::kLess, f(a)),
                                 Expr::Pred(fr_i, CompareOp::kGreater, f(b))))));
    out.push_back({"not_or",
                   Sql("SELECT COUNT(*) FROM flows WHERE NOT (data_count < %u "
                       "OR flow_rate > %u)",
                       a, b),
                   Count(gpudb::cpu::CountMask(mask))});
  }
  {  // SELECT * row ids, about 10% of the rows.
    const uint32_t t = Quantile(dc, 0.9);
    gpudb::cpu::PredicateScan(dc, CompareOp::kGreater, f(t), &mask);
    Expected e;
    e.kind = Kind::kSelectRows;
    for (uint32_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) e.row_ids.push_back(i);
    }
    out.push_back({"select_ids",
                   Sql("SELECT * FROM flows WHERE data_count > %u", t),
                   std::move(e)});
  }
  {  // MEDIAN over the whole column.
    GPUDB_ASSIGN_OR_RETURN(float m, gpudb::cpu::Median(dc));
    out.push_back(
        {"median", "SELECT MEDIAN(data_count) FROM flows", Scalar(m)});
  }
  {  // MAX with a BETWEEN filter.
    const uint32_t lo = Quantile(fr, 0.4);
    const uint32_t hi = Quantile(fr, 0.5);
    gpudb::cpu::RangeScan(fr, f(lo), f(hi), &mask);
    std::vector<float> selected;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) selected.push_back(dc[i]);
    }
    GPUDB_ASSIGN_OR_RETURN(float m, gpudb::cpu::MaxValue(selected));
    out.push_back({"max_between",
                   Sql("SELECT MAX(data_count) FROM flows WHERE flow_rate "
                       "BETWEEN %u AND %u",
                       lo, hi),
                   Scalar(m)});
  }
  {  // Q6 shape: three range predicates, then SUM.
    const uint32_t a = Quantile(fr, 0.2);
    const uint32_t b = Quantile(fr, 0.8);
    const uint32_t c = Quantile(dc, 0.1);
    const uint32_t d = Quantile(dc, 0.9);
    const uint32_t r = std::max<uint32_t>(1, Quantile(rt, 0.8));
    const ExprPtr where = Expr::And(
        Expr::And(Expr::Pred(fr_i, CompareOp::kGreaterEqual, f(a)),
                  Expr::Pred(fr_i, CompareOp::kLess, f(b))),
        Expr::And(Expr::Between(dc_i, f(c), f(d)),
                  Expr::Pred(rt_i, CompareOp::kLess, f(r))));
    GPUDB_ASSIGN_OR_RETURN(mask, CnfMask(table, where));
    out.push_back(
        {"q6_sum",
         Sql("SELECT SUM(data_count) FROM flows WHERE flow_rate >= %u AND "
             "flow_rate < %u AND data_count BETWEEN %u AND %u AND "
             "retransmissions < %u",
             a, b, c, d, r),
         Scalar(static_cast<double>(gpudb::cpu::MaskedSumInt(dc, mask)))});
  }
  // The query log's wall_ms is a float column whose depth encoding maps the
  // column minimum to depth 0, so `wall_ms > 0` drops that row on the GPU
  // but not in a float scan. The integer `ok` column compares exactly.
  out.push_back({kSystemTable,
                 "SELECT COUNT(*) FROM gpudb_queries WHERE ok = 1",
                 Count(0), /*live=*/true});
  {
    Expected e;
    e.kind = Kind::kAnalyzeTable;
    e.count = table.num_columns();
    out.push_back({kAnalyze, "ANALYZE flows", std::move(e)});
  }
  return out;
}

Result<Expected> SystemTableAnswer(const gpudb::db::Catalog& catalog) {
  GPUDB_ASSIGN_OR_RETURN(gpudb::db::Table snapshot,
                         catalog.MaterializeSystemTable("gpudb_queries"));
  GPUDB_ASSIGN_OR_RETURN(size_t ok_i, snapshot.ColumnIndex("ok"));
  std::vector<uint8_t> mask;
  return Count(gpudb::cpu::PredicateScan(snapshot.column(ok_i).values(),
                                         CompareOp::kEqual, 1.0f, &mask));
}

bool Matches(const Expected& expected, const gpudb::sql::QueryResult& result) {
  if (result.kind != expected.kind) return false;
  switch (expected.kind) {
    case Kind::kSelectRows:
      return result.row_ids == expected.row_ids;
    case Kind::kAggregate:
      return result.scalar == expected.scalar;
    default:
      return result.count == expected.count;
  }
}

}  // namespace perfbench
