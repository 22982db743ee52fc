#include "src/core/aggregates.h"

#include <algorithm>

#include "src/core/accumulator.h"
#include "src/core/count.h"
#include "src/core/kth_largest.h"

namespace gpudb {
namespace core {

std::string_view ToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kMedian:
      return "MEDIAN";
  }
  return "UNKNOWN";
}

Result<double> AggregateAttribute(
    gpu::Device* device, AggregateKind kind, const AttributeBinding& attr,
    int bit_width, const std::optional<StencilSelection>& selection) {
  KthOptions kth_options;
  kth_options.selection = selection;
  AccumulatorOptions acc_options;
  acc_options.selection = selection;

  switch (kind) {
    case AggregateKind::kCount: {
      if (selection.has_value()) {
        return static_cast<double>(selection->count);
      }
      GPUDB_ASSIGN_OR_RETURN(uint64_t n, CountAll(device));
      return static_cast<double>(n);
    }
    case AggregateKind::kSum: {
      GPUDB_ASSIGN_OR_RETURN(
          uint64_t sum, Accumulate(device, attr.texture, attr.channel,
                                   bit_width, acc_options));
      return static_cast<double>(sum);
    }
    case AggregateKind::kAvg:
      return Average(device, attr.texture, attr.channel, bit_width,
                     acc_options);
    case AggregateKind::kMin: {
      GPUDB_ASSIGN_OR_RETURN(uint32_t v,
                             MinValue(device, attr, bit_width, kth_options));
      return static_cast<double>(v);
    }
    case AggregateKind::kMax: {
      GPUDB_ASSIGN_OR_RETURN(uint32_t v,
                             MaxValue(device, attr, bit_width, kth_options));
      return static_cast<double>(v);
    }
    case AggregateKind::kMedian: {
      GPUDB_ASSIGN_OR_RETURN(
          uint32_t v, MedianValue(device, attr, bit_width, kth_options));
      return static_cast<double>(v);
    }
  }
  return Status::InvalidArgument("unknown aggregate kind");
}

void MergeAggregate(AggregateKind kind, const PartialAggregate& part,
                    PartialAggregate* total) {
  if (part.count == 0) return;
  const bool first = total->count == 0;
  total->count += part.count;
  if (kind == AggregateKind::kMin) {
    total->value = first ? part.value : std::min(total->value, part.value);
  } else if (kind == AggregateKind::kMax) {
    total->value = first ? part.value : std::max(total->value, part.value);
  } else {
    total->value += part.value;
  }
}

Result<double> FinishAggregate(AggregateKind kind,
                               const PartialAggregate& partial) {
  switch (kind) {
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      if (partial.count == 0) {
        return Status::OutOfRange("k=1 out of range for 0 records");
      }
      return partial.value;
    case AggregateKind::kAvg:
      if (partial.count == 0) {
        return Status::InvalidArgument("AVG over empty selection");
      }
      return partial.value / static_cast<double>(partial.count);
    case AggregateKind::kCount:
    case AggregateKind::kSum:
    case AggregateKind::kMedian:
      return partial.value;
  }
  return Status::InvalidArgument("unknown aggregate kind");
}

}  // namespace core
}  // namespace gpudb
