#ifndef GPUDB_CPU_SCAN_H_
#define GPUDB_CPU_SCAN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/db/table.h"
#include "src/gpu/types.h"
#include "src/predicate/cnf.h"

namespace gpudb {
namespace cpu {

/// \brief Optimized CPU baselines for the paper's comparisons (Section 5.2).
///
/// The paper's baseline was compiled with the Intel 7.1 compiler with
/// vectorization, multi-threading, and IPO; the key property carried over
/// here is that the scans are *branch-free* (selection results are computed
/// with comparison masks, not conditional jumps), which is what makes them
/// SIMD-friendly and is the behaviour the paper's CPU timings reflect.
///
/// All functions write a 0/1 byte per record into `out` (resized by the
/// callee) and return the number of selected records.

/// Single predicate `value op constant` over one column.
uint64_t PredicateScan(const std::vector<float>& values, gpu::CompareOp op,
                       float constant, std::vector<uint8_t>* out);

/// Range query `low <= value <= high`.
uint64_t RangeScan(const std::vector<float>& values, float low, float high,
                   std::vector<uint8_t>* out);

/// Attribute-attribute comparison `a op b`.
uint64_t AttrCompareScan(const std::vector<float>& a,
                         const std::vector<float>& b, gpu::CompareOp op,
                         std::vector<uint8_t>* out);

/// Semi-linear query `dot(weights, record) op b` over up to four columns.
uint64_t SemilinearScan(const std::vector<const std::vector<float>*>& columns,
                        const std::array<float, 4>& weights, gpu::CompareOp op,
                        float b, std::vector<uint8_t>* out);

/// Full CNF evaluation over a table; the reference the GPU path is
/// cross-checked against in every test.
Result<uint64_t> CnfScan(const db::Table& table, const predicate::Cnf& cnf,
                         std::vector<uint8_t>* out);

}  // namespace cpu
}  // namespace gpudb

#endif  // GPUDB_CPU_SCAN_H_
