#ifndef GPUDB_CORE_AGGREGATES_H_
#define GPUDB_CORE_AGGREGATES_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/common/result.h"
#include "src/core/compare.h"
#include "src/core/eval_cnf.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief The aggregation operators of the paper's SQL fragment (Section 4:
/// "SUM, COUNT, AVG, MIN, MAX defined on individual attributes"), plus
/// MEDIAN since KthLargest provides it for free.
enum class AggregateKind {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kMedian,
};

std::string_view ToString(AggregateKind kind);

/// \brief Dispatches an aggregation over a GPU-resident attribute,
/// optionally restricted to a stencil selection.
///
/// COUNT comes from the selection (occlusion counting); SUM/AVG run the
/// Accumulator (Routine 4.6); MIN/MAX/MEDIAN run KthLargest (Routine 4.5).
/// `bit_width` is the attribute's b_max; it is required for every kind but
/// COUNT.
[[nodiscard]] Result<double> AggregateAttribute(
    gpu::Device* device, AggregateKind kind, const AttributeBinding& attr,
    int bit_width,
    const std::optional<StencilSelection>& selection = std::nullopt);

/// \brief An aggregate over one selection, short of its final step: the
/// selection's row count beside the aggregate's value. AVG carries the SUM,
/// and MIN/MAX over an empty selection carry no value. Partials over
/// disjoint row ranges merge exactly (MergeAggregate), which is how the
/// shard pool recombines them; FinishAggregate turns one into the answer.
struct PartialAggregate {
  uint64_t count = 0;  ///< Selected rows.
  double value = 0.0;  ///< COUNT, SUM (also for AVG), MIN, MAX or MEDIAN.
};

/// Folds `part` into `total`: counts and values add, and MIN/MAX keep the
/// better value of the non-empty partials. MEDIAN does not merge.
void MergeAggregate(AggregateKind kind, const PartialAggregate& part,
                    PartialAggregate* total);

/// The aggregate's answer: AVG divides once over the exact totals, and
/// MIN/MAX/AVG over an empty selection fail with the statuses of the
/// single-device operators (OutOfRange from KthSmallest/KthLargest(k=1),
/// InvalidArgument from Average).
[[nodiscard]] Result<double> FinishAggregate(AggregateKind kind,
                                             const PartialAggregate& partial);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_AGGREGATES_H_
