#include "src/cpu/scan.h"

namespace gpudb {
namespace cpu {

namespace {

/// Branch-free comparison kernel: specialized per operator so the inner loop
/// contains a single data-independent compare (auto-vectorizable).
template <typename Cmp>
uint64_t ScanWith(const std::vector<float>& values, Cmp cmp,
                  std::vector<uint8_t>* out) {
  out->resize(values.size());
  uint64_t count = 0;
  uint8_t* dst = out->data();
  const float* src = values.data();
  const size_t n = values.size();
  for (size_t i = 0; i < n; ++i) {
    const uint8_t m = cmp(src[i]) ? 1 : 0;
    dst[i] = m;
    count += m;
  }
  return count;
}

}  // namespace

uint64_t PredicateScan(const std::vector<float>& values, gpu::CompareOp op,
                       float constant, std::vector<uint8_t>* out) {
  using gpu::CompareOp;
  switch (op) {
    case CompareOp::kLess:
      return ScanWith(values, [=](float v) { return v < constant; }, out);
    case CompareOp::kLessEqual:
      return ScanWith(values, [=](float v) { return v <= constant; }, out);
    case CompareOp::kEqual:
      return ScanWith(values, [=](float v) { return v == constant; }, out);
    case CompareOp::kGreaterEqual:
      return ScanWith(values, [=](float v) { return v >= constant; }, out);
    case CompareOp::kGreater:
      return ScanWith(values, [=](float v) { return v > constant; }, out);
    case CompareOp::kNotEqual:
      return ScanWith(values, [=](float v) { return v != constant; }, out);
    case CompareOp::kAlways:
      return ScanWith(values, [](float) { return true; }, out);
    case CompareOp::kNever:
      return ScanWith(values, [](float) { return false; }, out);
  }
  return 0;
}

uint64_t RangeScan(const std::vector<float>& values, float low, float high,
                   std::vector<uint8_t>* out) {
  return ScanWith(
      values, [=](float v) { return v >= low && v <= high; }, out);
}

uint64_t AttrCompareScan(const std::vector<float>& a,
                         const std::vector<float>& b, gpu::CompareOp op,
                         std::vector<uint8_t>* out) {
  out->resize(a.size());
  uint64_t count = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const uint8_t m = gpu::EvalCompare(op, a[i], b[i]) ? 1 : 0;
    (*out)[i] = m;
    count += m;
  }
  return count;
}

uint64_t SemilinearScan(const std::vector<const std::vector<float>*>& columns,
                        const std::array<float, 4>& weights, gpu::CompareOp op,
                        float b, std::vector<uint8_t>* out) {
  const size_t n = columns.empty() ? 0 : columns[0]->size();
  out->assign(n, 0);
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    float dot = 0.0f;
    for (size_t c = 0; c < columns.size(); ++c) {
      dot += weights[c] * (*columns[c])[i];
    }
    const uint8_t m = gpu::EvalCompare(op, dot, b) ? 1 : 0;
    (*out)[i] = m;
    count += m;
  }
  return count;
}

Result<uint64_t> CnfScan(const db::Table& table, const predicate::Cnf& cnf,
                         std::vector<uint8_t>* out) {
  const size_t n = table.num_rows();
  for (const auto& clause : cnf.clauses) {
    if (clause.empty()) {
      return Status::InvalidArgument("CNF contains an empty clause");
    }
    for (const auto& p : clause) {
      if (p.attr >= table.num_columns() ||
          (p.rhs_is_attr && p.rhs_attr >= table.num_columns())) {
        return Status::OutOfRange("CNF references a nonexistent column");
      }
    }
  }
  // mask := AND over clauses of (OR over clause predicates), evaluated
  // branch-free one predicate at a time over per-clause scratch masks.
  std::vector<uint8_t> mask(n, 1);
  std::vector<uint8_t> clause_mask;
  std::vector<uint8_t> pred_mask;
  for (const auto& clause : cnf.clauses) {
    clause_mask.assign(n, 0);
    for (const predicate::SimplePredicate& p : clause) {
      if (p.rhs_is_attr) {
        AttrCompareScan(table.column(p.attr).values(),
                        table.column(p.rhs_attr).values(), p.op, &pred_mask);
      } else {
        PredicateScan(table.column(p.attr).values(), p.op, p.constant,
                      &pred_mask);
      }
      for (size_t i = 0; i < n; ++i) {
        clause_mask[i] |= pred_mask[i];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      mask[i] &= clause_mask[i];
    }
  }
  uint64_t count = 0;
  for (uint8_t m : mask) count += m;
  *out = std::move(mask);
  return count;
}

}  // namespace cpu
}  // namespace gpudb
