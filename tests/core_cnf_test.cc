#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/eval_cnf.h"
#include "src/cpu/scan.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;

/// Fixture holding a small table uploaded column-by-column.
class EvalCnfTest : public ::testing::Test {
 protected:
  EvalCnfTest() : device_(64, 64) {
    auto t = db::MakeUniformTable(1500, 8, 3, /*seed=*/71);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();
    for (size_t c = 0; c < table_.num_columns(); ++c) {
      auto tex = table_.ColumnTexture(c, 64);
      EXPECT_TRUE(tex.ok());
      auto id = device_.UploadTexture(std::move(tex).ValueOrDie());
      EXPECT_TRUE(id.ok());
      AttributeBinding b;
      b.texture = id.ValueOrDie();
      b.channel = 0;
      b.encoding = DepthEncoding::ExactInt24();
      bindings_.push_back(b);
    }
    EXPECT_TRUE(device_.SetViewport(table_.num_rows()).ok());
  }

  GpuPredicate Depth(size_t col, CompareOp op, double c) {
    return GpuPredicate::DepthCompare(bindings_[col], op, c);
  }

  /// Cross-checks an EvalCnf result (count + stencil mask) against the CPU
  /// reference for the equivalent predicate::Cnf. A null `opts` runs
  /// Routine 4.3 as the paper writes it.
  void CheckAgainstCpu(const std::vector<GpuClause>& gpu_clauses,
                       const predicate::Cnf& cnf,
                       SelectionExecOptions* opts = nullptr) {
    std::vector<uint8_t> cpu_mask;
    auto cpu_count = cpu::CnfScan(table_, cnf, &cpu_mask);
    ASSERT_TRUE(cpu_count.ok());
    auto sel = EvalCnf(&device_, gpu_clauses, opts);
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    EXPECT_EQ(sel.ValueOrDie().count, cpu_count.ValueOrDie());
    const std::vector<uint8_t> stencil = device_.ReadStencil().ValueOrDie();
    for (size_t i = 0; i < table_.num_rows(); ++i) {
      EXPECT_EQ(stencil[i] == sel.ValueOrDie().valid_value, cpu_mask[i] == 1)
          << "record " << i;
    }
  }

  predicate::SimplePredicate Simple(size_t col, CompareOp op, float c) {
    predicate::SimplePredicate p;
    p.attr = col;
    p.op = op;
    p.constant = c;
    return p;
  }

  gpu::Device device_;
  db::Table table_;
  std::vector<AttributeBinding> bindings_;
};

TEST_F(EvalCnfTest, SingleClauseSinglePredicate) {
  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kGreaterEqual, 100)}};
  CheckAgainstCpu({{Depth(0, CompareOp::kGreaterEqual, 100)}}, cnf);
}

TEST_F(EvalCnfTest, PureConjunctionOddClauses) {
  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kGreaterEqual, 64)},
                 {Simple(1, CompareOp::kLess, 192)},
                 {Simple(2, CompareOp::kNotEqual, 7)}};
  std::vector<GpuClause> clauses = {
      {Depth(0, CompareOp::kGreaterEqual, 64)},
      {Depth(1, CompareOp::kLess, 192)},
      {Depth(2, CompareOp::kNotEqual, 7)}};
  CheckAgainstCpu(clauses, cnf);
  // Odd clause count -> valid stencil value 2 (Routine 4.3).
  auto sel = EvalCnf(&device_, clauses);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.ValueOrDie().valid_value, 2);
}

TEST_F(EvalCnfTest, PureConjunctionEvenClauses) {
  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kGreaterEqual, 64)},
                 {Simple(1, CompareOp::kLess, 192)}};
  std::vector<GpuClause> clauses = {{Depth(0, CompareOp::kGreaterEqual, 64)},
                                    {Depth(1, CompareOp::kLess, 192)}};
  CheckAgainstCpu(clauses, cnf);
  auto sel = EvalCnf(&device_, clauses);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.ValueOrDie().valid_value, 1);
}

TEST_F(EvalCnfTest, DisjunctionWithinClause) {
  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kLess, 50),
                  Simple(0, CompareOp::kGreaterEqual, 200),
                  Simple(1, CompareOp::kEqual, 128)}};
  CheckAgainstCpu({{Depth(0, CompareOp::kLess, 50),
                    Depth(0, CompareOp::kGreaterEqual, 200),
                    Depth(1, CompareOp::kEqual, 128)}},
                  cnf);
}

TEST_F(EvalCnfTest, OverlappingDisjunctsNotDoubleCounted) {
  // Both disjuncts true for most records; the stencil alternation must not
  // bump a record twice within one clause.
  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kGreaterEqual, 0),
                  Simple(0, CompareOp::kLess, 255)}};
  CheckAgainstCpu({{Depth(0, CompareOp::kGreaterEqual, 0),
                    Depth(0, CompareOp::kLess, 255)}},
                  cnf);
}

TEST_F(EvalCnfTest, MixedCnfFourClauses) {
  predicate::Cnf cnf;
  cnf.clauses = {
      {Simple(0, CompareOp::kGreaterEqual, 32),
       Simple(1, CompareOp::kLess, 32)},
      {Simple(1, CompareOp::kLessEqual, 224)},
      {Simple(2, CompareOp::kGreater, 16),
       Simple(0, CompareOp::kEqual, 77)},
      {Simple(2, CompareOp::kLess, 240)}};
  std::vector<GpuClause> clauses = {
      {Depth(0, CompareOp::kGreaterEqual, 32), Depth(1, CompareOp::kLess, 32)},
      {Depth(1, CompareOp::kLessEqual, 224)},
      {Depth(2, CompareOp::kGreater, 16), Depth(0, CompareOp::kEqual, 77)},
      {Depth(2, CompareOp::kLess, 240)}};
  CheckAgainstCpu(clauses, cnf);
}

TEST_F(EvalCnfTest, SemilinearPredicateInsideClause) {
  // Clause mixing a depth comparison with an attribute-attribute predicate
  // (a0 < a1 rewritten as semi-linear).
  auto pair_tex = table_.ToTexture({0, 1}, 64);
  ASSERT_TRUE(pair_tex.ok());
  auto pair_id = device_.UploadTexture(std::move(pair_tex).ValueOrDie());
  ASSERT_TRUE(pair_id.ok());

  predicate::SimplePredicate attr_pred;
  attr_pred.attr = 0;
  attr_pred.op = CompareOp::kLess;
  attr_pred.rhs_is_attr = true;
  attr_pred.rhs_attr = 1;

  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kGreaterEqual, 10)},
                 {attr_pred, Simple(2, CompareOp::kLess, 8)}};

  std::vector<GpuClause> clauses = {
      {Depth(0, CompareOp::kGreaterEqual, 10)},
      {GpuPredicate::Semilinear(
           pair_id.ValueOrDie(),
           SemilinearQuery::AttrCompare(0, CompareOp::kLess, 1)),
       Depth(2, CompareOp::kLess, 8)}};
  CheckAgainstCpu(clauses, cnf);
}

TEST_F(EvalCnfTest, DnfSingleTermConjunction) {
  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kGreaterEqual, 64)},
                 {Simple(1, CompareOp::kLess, 192)}};
  std::vector<uint8_t> cpu_mask;
  auto cpu_count = cpu::CnfScan(table_, cnf, &cpu_mask);
  ASSERT_TRUE(cpu_count.ok());
  // Same query as one DNF term: (a AND b).
  std::vector<GpuTerm> terms = {{Depth(0, CompareOp::kGreaterEqual, 64),
                                 Depth(1, CompareOp::kLess, 192)}};
  auto sel = EvalDnf(&device_, terms);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  EXPECT_EQ(sel.ValueOrDie().valid_value, 0);
  EXPECT_EQ(sel.ValueOrDie().count, cpu_count.ValueOrDie());
  const std::vector<uint8_t> stencil = device_.ReadStencil().ValueOrDie();
  for (size_t i = 0; i < table_.num_rows(); ++i) {
    EXPECT_EQ(stencil[i] == 0, cpu_mask[i] == 1) << "record " << i;
  }
}

TEST_F(EvalCnfTest, DnfDisjunctionOfConjunctions) {
  // (a >= 200 AND b < 64) OR (c > 128 AND a < 32) OR b = 7
  predicate::Dnf dnf;
  dnf.terms = {{Simple(0, CompareOp::kGreaterEqual, 200),
                Simple(1, CompareOp::kLess, 64)},
               {Simple(2, CompareOp::kGreater, 128),
                Simple(0, CompareOp::kLess, 32)},
               {Simple(1, CompareOp::kEqual, 7)}};
  std::vector<GpuTerm> terms = {
      {Depth(0, CompareOp::kGreaterEqual, 200), Depth(1, CompareOp::kLess, 64)},
      {Depth(2, CompareOp::kGreater, 128), Depth(0, CompareOp::kLess, 32)},
      {Depth(1, CompareOp::kEqual, 7)}};
  auto sel = EvalDnf(&device_, terms);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  uint64_t expected = 0;
  const std::vector<uint8_t> stencil = device_.ReadStencil().ValueOrDie();
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    const bool want = dnf.EvaluateRow(table_, row);
    expected += want ? 1 : 0;
    EXPECT_EQ(stencil[row] == 0, want) << "record " << row;
  }
  EXPECT_EQ(sel.ValueOrDie().count, expected);
}

TEST_F(EvalCnfTest, DnfOverlappingTermsNotDoubleCounted) {
  // Terms overlap heavily; already-selected records must stay at 0.
  std::vector<GpuTerm> terms = {
      {Depth(0, CompareOp::kGreaterEqual, 0)},   // everything
      {Depth(0, CompareOp::kGreaterEqual, 128)}  // subset
  };
  auto sel = EvalDnf(&device_, terms);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.ValueOrDie().count, table_.num_rows());
}

TEST_F(EvalCnfTest, DnfAgreesWithCnfOnConvertedExpression) {
  // Same boolean function through both normal forms.
  using predicate::Expr;
  auto e = Expr::Or(
      Expr::And(Expr::Pred(0, CompareOp::kGreaterEqual, 100.0f),
                Expr::Pred(1, CompareOp::kLess, 200.0f)),
      Expr::And(Expr::Pred(2, CompareOp::kGreater, 50.0f),
                Expr::Not(Expr::Pred(0, CompareOp::kEqual, 77.0f))));
  ASSERT_OK_AND_ASSIGN(predicate::Cnf cnf, predicate::ToCnf(e));
  ASSERT_OK_AND_ASSIGN(predicate::Dnf dnf, predicate::ToDnf(e));

  auto lower = [&](const predicate::SimplePredicate& p) {
    return Depth(p.attr, p.op, p.constant);
  };
  std::vector<GpuClause> clauses;
  for (const auto& clause : cnf.clauses) {
    GpuClause c;
    for (const auto& p : clause) c.push_back(lower(p));
    clauses.push_back(c);
  }
  std::vector<GpuTerm> terms;
  for (const auto& term : dnf.terms) {
    GpuTerm t;
    for (const auto& p : term) t.push_back(lower(p));
    terms.push_back(t);
  }
  auto cnf_sel = EvalCnf(&device_, clauses);
  ASSERT_TRUE(cnf_sel.ok());
  auto dnf_sel = EvalDnf(&device_, terms);
  ASSERT_TRUE(dnf_sel.ok());
  EXPECT_EQ(cnf_sel.ValueOrDie().count, dnf_sel.ValueOrDie().count);
}

TEST_F(EvalCnfTest, DnfRejectsBadInput) {
  EXPECT_FALSE(EvalDnf(&device_, {}).ok());
  EXPECT_FALSE(EvalDnf(&device_, {GpuTerm{}}).ok());
  std::vector<GpuPredicate> huge(255, Depth(0, CompareOp::kAlways, 0));
  EXPECT_FALSE(EvalDnf(&device_, {huge}).ok());
}

TEST_F(EvalCnfTest, RejectsEmptyInput) {
  EXPECT_FALSE(EvalCnf(&device_, {}).ok());
  EXPECT_FALSE(EvalCnf(&device_, {GpuClause{}}).ok());
}

/// Section 5.7's conjunction chain: EvalCnf with only the chain rewrite.
SelectionExecOptions ChainOnly() {
  SelectionExecOptions opts;
  opts.plan.chain = true;
  return opts;
}

TEST_F(EvalCnfTest, ConjunctionFastPathMatchesGeneralPath) {
  predicate::Cnf cnf;
  cnf.clauses = {{Simple(0, CompareOp::kGreaterEqual, 64)},
                 {Simple(1, CompareOp::kLess, 192)},
                 {Simple(2, CompareOp::kNotEqual, 7)}};
  std::vector<GpuClause> clauses = {{Depth(0, CompareOp::kGreaterEqual, 64)},
                                    {Depth(1, CompareOp::kLess, 192)},
                                    {Depth(2, CompareOp::kNotEqual, 7)}};

  auto general = EvalCnf(&device_, clauses);
  ASSERT_TRUE(general.ok());
  SelectionExecOptions chain = ChainOnly();
  auto fast = EvalCnf(&device_, clauses, &chain);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast.ValueOrDie().count, general.ValueOrDie().count);
  // The chain climbs to k+1 instead of flipping between 1 and 2.
  EXPECT_EQ(fast.ValueOrDie().valid_value, 4);
  CheckAgainstCpu(clauses, cnf, &chain);
}

TEST_F(EvalCnfTest, ConjunctionFastPathUsesFewerPasses) {
  std::vector<GpuClause> clauses = {{Depth(0, CompareOp::kGreaterEqual, 64)},
                                    {Depth(1, CompareOp::kLess, 192)}};

  device_.ResetCounters();
  ASSERT_TRUE(EvalCnf(&device_, clauses).ok());
  const uint64_t general_passes = device_.counters().passes;
  device_.ResetCounters();
  SelectionExecOptions chain = ChainOnly();
  ASSERT_TRUE(EvalCnf(&device_, clauses, &chain).ok());
  const uint64_t fast_passes = device_.counters().passes;
  EXPECT_LT(fast_passes, general_passes);
}

TEST_F(EvalCnfTest, ChainRejectsMultiPredicateClause) {
  // The chain runs one predicate per clause; silently dropping the second
  // disjunct would select fewer rows than Routine 4.3.
  const std::vector<GpuClause> clauses = {
      {Depth(0, CompareOp::kLess, 10), Depth(1, CompareOp::kLess, 10)}};
  SelectionExecOptions chain = ChainOnly();
  auto sel = EvalCnf(&device_, clauses, &chain);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument)
      << sel.status().ToString();
}

TEST_F(EvalCnfTest, ChainRejectsMoreThan254Clauses) {
  // Clause 255 would push the 8-bit stencil past 255 and wrap the count.
  const std::vector<GpuClause> many(
      255, GpuClause{Depth(0, CompareOp::kGreaterEqual, 0)});
  SelectionExecOptions chain = ChainOnly();
  auto sel = EvalCnf(&device_, many, &chain);
  ASSERT_FALSE(sel.ok());
  EXPECT_TRUE(sel.status().IsResourceExhausted()) << sel.status().ToString();
  // 254 is the chain's limit, not an error.
  const std::vector<GpuClause> most(
      254, GpuClause{Depth(0, CompareOp::kGreaterEqual, 0)});
  auto at_limit = EvalCnf(&device_, most, &chain);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit.ValueOrDie().count, table_.num_rows());
  EXPECT_EQ(at_limit.ValueOrDie().valid_value, 255);
}

TEST_F(EvalCnfTest, FusedCountWithoutChainIsRejected) {
  // The count rides on the chain's last comparison; without the chain
  // there is no such pass to carry it.
  SelectionExecOptions count_only;
  count_only.plan.fused_count = true;
  auto sel = EvalCnf(&device_, {{Depth(0, CompareOp::kGreaterEqual, 64)}},
                     &count_only);
  EXPECT_EQ(sel.status().code(), StatusCode::kInvalidArgument)
      << sel.status().ToString();
}

/// A pass record reduced to (label, fragments, fragments_passed,
/// stencil_updates): the part of the pass log the paper's routines fix.
using PassTuple = std::tuple<std::string, uint64_t, uint64_t, uint64_t>;

std::vector<PassTuple> Tuples(const std::vector<gpu::PassRecord>& log) {
  std::vector<PassTuple> out;
  for (const gpu::PassRecord& r : log) {
    out.emplace_back(r.label, r.fragments, r.fragments_passed,
                     r.stencil_updates);
  }
  return out;
}

TEST_F(EvalCnfTest, ReferencePassSequencesArePinned) {
  // Routine 4.3, the Section 4.2 DNF and Section 5.7's chain with no
  // planner rewrite: the exact pass logs the figure and ablation benches
  // price, record for record.
  const std::vector<GpuClause> cnf = {
      {Depth(0, CompareOp::kGreaterEqual, 32), Depth(1, CompareOp::kLess, 32)},
      {Depth(1, CompareOp::kLessEqual, 224)}};
  {
    gpu::PassLogScope log(&device_);
    ASSERT_OK_AND_ASSIGN(StencilSelection sel, EvalCnf(&device_, cnf));
    EXPECT_EQ(sel.count, 1190u);
    EXPECT_EQ(sel.valid_value, 1);
    const std::vector<PassTuple> want = {
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 1324, 1324},
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 16, 16},
        {"fixed-function", 1500, 160, 160},  // clause 1 cleanup
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 1190, 1190},
        {"fixed-function", 1500, 150, 150},  // clause 2 cleanup
        {"fixed-function", 1500, 1190, 0}};  // CountSelected
    EXPECT_EQ(Tuples(log.records()), want);
  }

  const std::vector<GpuTerm> dnf = {
      {Depth(0, CompareOp::kGreaterEqual, 200), Depth(1, CompareOp::kLess, 64)},
      {Depth(1, CompareOp::kEqual, 7)}};
  {
    gpu::PassLogScope log(&device_);
    ASSERT_OK_AND_ASSIGN(StencilSelection sel, EvalDnf(&device_, dnf));
    EXPECT_EQ(sel.count, 83u);
    EXPECT_EQ(sel.valid_value, 0);
    const std::vector<PassTuple> want = {
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 341, 341},
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 80, 80},
        {"fixed-function", 1500, 80, 80},    // term 1 stamp
        {"fixed-function", 1500, 261, 261},  // term 1 walk-down
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 3, 3},
        {"fixed-function", 1500, 3, 3},      // term 2 stamp
        {"fixed-function", 1500, 83, 0}};    // CountSelected
    EXPECT_EQ(Tuples(log.records()), want);
  }

  const std::vector<GpuClause> conjunction = {
      {Depth(0, CompareOp::kGreaterEqual, 64)},
      {Depth(1, CompareOp::kLess, 192)},
      {Depth(2, CompareOp::kNotEqual, 7)}};
  {
    SelectionExecOptions chain = ChainOnly();
    gpu::PassLogScope log(&device_);
    ASSERT_OK_AND_ASSIGN(StencilSelection sel,
                         EvalCnf(&device_, conjunction, &chain));
    EXPECT_EQ(sel.count, 849u);
    EXPECT_EQ(sel.valid_value, 4);
    const std::vector<PassTuple> want = {
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 1130, 1130},
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 853, 853},
        {"CopyToDepthFP", 1500, 1500, 0},
        {"fixed-function", 1500, 849, 849},
        {"fixed-function", 1500, 849, 0}};  // CountSelected
    EXPECT_EQ(Tuples(log.records()), want);
  }
}

}  // namespace
}  // namespace core
}  // namespace gpudb
