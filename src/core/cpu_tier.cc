#include "src/core/cpu_tier.h"

#include <algorithm>
#include <string>

#include "src/cpu/aggregate.h"
#include "src/cpu/quickselect.h"
#include "src/cpu/scan.h"
#include "src/predicate/cnf.h"

namespace gpudb {
namespace core {
namespace cpu_tier {

Result<std::vector<uint8_t>> SelectionMask(const db::Table& table,
                                           const predicate::ExprPtr& where) {
  const uint64_t n = table.num_rows();
  if (where == nullptr) return std::vector<uint8_t>(n, 1);
  GPUDB_RETURN_NOT_OK(where->Validate(table));
  auto cnf = predicate::ToCnf(where);
  std::vector<uint8_t> mask;
  if (cnf.ok()) {
    GPUDB_ASSIGN_OR_RETURN(uint64_t selected,
                           cpu::CnfScan(table, cnf.ValueOrDie(), &mask));
    (void)selected;
    return mask;
  }
  // CNF distribution blew up; evaluate the DNF row by row instead (the CPU
  // tier has no stencil budget, so either normal form works).
  auto dnf = predicate::ToDnf(where);
  if (!dnf.ok()) return cnf.status();  // mirror Where(): both forms failed
  mask.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    mask[i] = dnf.ValueOrDie().EvaluateRow(table, i) ? 1 : 0;
  }
  return mask;
}

Result<uint64_t> Count(const db::Table& table,
                       const predicate::ExprPtr& where) {
  GPUDB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                         SelectionMask(table, where));
  return cpu::CountMask(mask);
}

Result<std::vector<uint32_t>> RowIds(const db::Table& table,
                                     const predicate::ExprPtr& where) {
  GPUDB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                         SelectionMask(table, where));
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) rows.push_back(i);
  }
  return rows;
}

Result<PartialAggregate> AggregatePartial(const db::Table& table,
                                          AggregateKind kind,
                                          std::string_view column,
                                          const predicate::ExprPtr& where) {
  GPUDB_ASSIGN_OR_RETURN(size_t col, table.ColumnIndex(column));
  const db::Column& c = table.column(col);
  if (kind != AggregateKind::kCount && c.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented(
        "GPU aggregation of '" + std::string(column) +
        "' requires an integer column (Accumulator and KthLargest operate on "
        "binary representations; paper Sections 4.3.2-4.3.3)");
  }
  GPUDB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                         SelectionMask(table, where));
  PartialAggregate partial;
  partial.count = cpu::CountMask(mask);
  switch (kind) {
    case AggregateKind::kCount:
      partial.value = static_cast<double>(partial.count);
      return partial;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      partial.value = static_cast<double>(cpu::MaskedSumInt(c.values(), mask));
      return partial;
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      bool first = true;
      for (size_t i = 0; i < mask.size(); ++i) {
        if (!mask[i]) continue;
        const auto v = static_cast<double>(c.int_value(i));
        if (first || (kind == AggregateKind::kMin ? v < partial.value
                                                  : v > partial.value)) {
          partial.value = v;
          first = false;
        }
      }
      return partial;
    }
    case AggregateKind::kMedian: {
      if (partial.count == 0) {
        return Status::InvalidArgument("median over empty selection");
      }
      std::vector<uint32_t> vals;
      vals.reserve(partial.count);
      for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i]) vals.push_back(c.int_value(i));
      }
      // GPU MedianValue = KthSmallest((count + 1) / 2).
      const size_t idx = (partial.count + 1) / 2 - 1;
      std::nth_element(vals.begin(), vals.begin() + idx, vals.end());
      partial.value = static_cast<double>(vals[idx]);
      return partial;
    }
  }
  return Status::Internal("unknown aggregate kind");
}

Result<uint32_t> KthLargest(const db::Table& table, std::string_view column,
                            uint64_t k, const predicate::ExprPtr& where) {
  GPUDB_ASSIGN_OR_RETURN(size_t col, table.ColumnIndex(column));
  const db::Column& c = table.column(col);
  if (c.type() != db::ColumnType::kInt24) {
    return Status::NotImplemented(
        "KthLargest requires an integer column (Routine 4.5 builds the "
        "result bit by bit)");
  }
  GPUDB_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                         SelectionMask(table, where));
  const uint64_t n = cpu::CountMask(mask);
  if (k == 0 || k > n) {
    return Status::OutOfRange("k=" + std::to_string(k) + " out of range for " +
                              std::to_string(n) + " records");
  }
  // The paper's Section 5.9 CPU baseline: QuickSelect over the selection.
  GPUDB_ASSIGN_OR_RETURN(float v,
                         cpu::MaskedQuickSelectLargest(c.values(), mask, k));
  return static_cast<uint32_t>(v);
}

}  // namespace cpu_tier
}  // namespace core
}  // namespace gpudb
