#include "src/core/planner.h"

#include <algorithm>
#include <string>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/eval_cnf.h"

namespace gpudb {
namespace core {

PassPlan PlanSelectionPasses(const std::vector<GpuClause>& groups,
                             NormalForm form, bool cache_enabled) {
  PassPlan plan;
  int depth_compares = 0;
  bool all_singletons = true;
  for (const GpuClause& group : groups) {
    if (group.size() != 1) all_singletons = false;
    for (const GpuPredicate& pred : group) {
      if (pred.kind == GpuPredicate::Kind::kDepthCompare) ++depth_compares;
    }
  }

  // Chain rewrite: all-singleton CNFs collapse to the conjunction stencil
  // chain (no cleanup passes), capped by the 8-bit stencil, and the final
  // predicate pass carries the count itself.
  plan.chain = form == NormalForm::kCnf && all_singletons &&
               !groups.empty() && groups.size() <= 254;
  plan.fused_count = plan.chain;

  // Copy+compare fusion applies per depth-compare predicate -- unless the
  // plane cache is on, which needs the attribute copy kept separate so its
  // depth plane can be snapshotted and restored (see PassPlan docs).
  plan.fused_compares = cache_enabled ? 0 : depth_compares;
  return plan;
}

std::string_view ToString(OperationKind kind) {
  switch (kind) {
    case OperationKind::kPredicateSelect:
      return "predicate-select";
    case OperationKind::kRangeSelect:
      return "range-select";
    case OperationKind::kMultiAttributeSelect:
      return "multi-attribute-select";
    case OperationKind::kSemilinearSelect:
      return "semilinear-select";
    case OperationKind::kKthLargest:
      return "kth-largest";
    case OperationKind::kSum:
      return "sum";
    case OperationKind::kCount:
      return "count";
  }
  return "unknown";
}

std::string_view ToString(Backend backend) {
  return backend == Backend::kGpu ? "GPU" : "CPU";
}

namespace {

std::string_view Rationale(OperationKind op, Backend chosen) {
  switch (op) {
    case OperationKind::kPredicateSelect:
    case OperationKind::kRangeSelect:
    case OperationKind::kMultiAttributeSelect:
    case OperationKind::kSemilinearSelect:
      return "Section 6.2.1 high-gain class: selection and semi-linear "
             "queries map to parallel pixel engines with early depth culling "
             "and no branch mispredictions";
    case OperationKind::kKthLargest:
      return "Section 6.2.2 medium-gain class: order statistics gain 2-4x "
             "from pixel-engine parallelism and need no data rearrangement";
    case OperationKind::kSum:
      return chosen == Backend::kCpu
                 ? "Section 6.2.3 low-gain class: without integer arithmetic "
                   "the Accumulator needs one multi-instruction pass per bit "
                   "and loses to the CPU's SIMD sum by ~20x"
                 : "modeled GPU time beat the CPU sum (unusual configuration)";
    case OperationKind::kCount:
      return "Section 5.11: occlusion-query counts piggyback on the "
             "selection pass with no additional overhead";
  }
  return "";
}

}  // namespace

double Planner::FillMs(uint64_t fragments, int instructions) const {
  const double throughput =
      gpu_params_.clock_hz * static_cast<double>(gpu_params_.pixel_pipes);
  return static_cast<double>(fragments) * std::max(1, instructions) /
         throughput * 1e3;
}

double Planner::CopyToDepthMs(uint64_t records) const {
  const double throughput =
      gpu_params_.clock_hz * static_cast<double>(gpu_params_.pixel_pipes);
  // 3-instruction copy program + depth-write penalty per fragment.
  return FillMs(records, 3) +
         static_cast<double>(records) * gpu_params_.depth_write_cycles /
             throughput * 1e3 +
         gpu_params_.pass_setup_ms;
}

double Planner::SimplePassMs(uint64_t records) const {
  return FillMs(records, 1) + gpu_params_.pass_setup_ms;
}

double Planner::GpuMs(OperationKind op, uint64_t records, int detail,
                      double selectivity) const {
  const double occl = gpu_params_.occlusion_readback_ms;
  // Known selectivity adds the result-materialization cost: the estimated
  // matching row ids (4 bytes each) come back over the slow readback path.
  double readback_ms = 0;
  if (selectivity >= 0.0) {
    switch (op) {
      case OperationKind::kPredicateSelect:
      case OperationKind::kRangeSelect:
      case OperationKind::kMultiAttributeSelect:
      case OperationKind::kSemilinearSelect:
        readback_ms = static_cast<double>(records) *
                      std::min(1.0, selectivity) * 4.0 /
                      gpu_params_.readback_bytes_per_ms;
        break;
      default:
        break;  // aggregates return scalars; no bulk readback
    }
  }
  switch (op) {
    case OperationKind::kPredicateSelect:
      // CopyToDepth + one comparison quad + occlusion count.
      return CopyToDepthMs(records) + SimplePassMs(records) + occl +
             readback_ms;
    case OperationKind::kRangeSelect:
      // Identical pass structure thanks to the depth bounds test.
      return CopyToDepthMs(records) + SimplePassMs(records) + occl +
             readback_ms;
    case OperationKind::kMultiAttributeSelect: {
      // EvalCnf: per conjunct one copy + one comparison + one cleanup pass,
      // then a final counting pass.
      const int a = std::max(1, detail);
      return a * (CopyToDepthMs(records) + 2 * SimplePassMs(records)) +
             SimplePassMs(records) + occl + readback_ms;
    }
    case OperationKind::kSemilinearSelect:
      // One 4-instruction fragment-program pass, no copy.
      return FillMs(records, 4) + gpu_params_.pass_setup_ms + occl +
             readback_ms;
    case OperationKind::kKthLargest: {
      // One copy + b_max (comparison pass + occlusion readback).
      const int bits = std::max(1, detail);
      return CopyToDepthMs(records) +
             bits * (SimplePassMs(records) + occl);
    }
    case OperationKind::kSum: {
      // b_max passes of the 5-instruction TestBit program + readbacks.
      const int bits = std::max(1, detail);
      return bits * (FillMs(records, 5) + gpu_params_.pass_setup_ms + occl);
    }
    case OperationKind::kCount:
      return SimplePassMs(records) + occl;
  }
  return 0;
}

double Planner::CpuMs(OperationKind op, uint64_t records, int detail,
                      double selectivity) const {
  (void)selectivity;  // CPU results are already in host memory.
  switch (op) {
    case OperationKind::kPredicateSelect:
      return cpu_model_.PredicateScanMs(records);
    case OperationKind::kRangeSelect:
      return cpu_model_.RangeScanMs(records);
    case OperationKind::kMultiAttributeSelect:
      return cpu_model_.MultiAttributeScanMs(records, std::max(1, detail));
    case OperationKind::kSemilinearSelect:
      return cpu_model_.SemilinearScanMs(records);
    case OperationKind::kKthLargest:
      return cpu_model_.QuickSelectMs(records);
    case OperationKind::kSum:
      return cpu_model_.SumMs(records);
    case OperationKind::kCount:
      return cpu_model_.PredicateScanMs(records);
  }
  return 0;
}

PlanDecision Planner::Choose(OperationKind op, uint64_t records, int detail,
                             double selectivity) const {
  TraceSpan span("planner.choose");
  PlanDecision d;
  d.gpu_ms = GpuMs(op, records, detail, selectivity);
  d.cpu_ms = CpuMs(op, records, detail, selectivity);
  d.backend = d.gpu_ms <= d.cpu_ms ? Backend::kGpu : Backend::kCpu;
  d.rationale = Rationale(op, d.backend);
  span.AddTag("op", ToString(op));
  span.AddTag("records", records);
  if (selectivity >= 0.0) span.AddTag("est_selectivity", selectivity);
  span.AddTag("gpu_ms", d.gpu_ms);
  span.AddTag("cpu_ms", d.cpu_ms);
  span.AddTag("backend", ToString(d.backend));
  MetricsRegistry::Global()
      .counter(d.backend == Backend::kGpu ? "planner.choose.gpu"
                                          : "planner.choose.cpu")
      .Increment();
  return d;
}

}  // namespace core
}  // namespace gpudb
