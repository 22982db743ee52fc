#ifndef GPUDB_CORE_PLANNER_H_
#define GPUDB_CORE_PLANNER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/cpu/xeon_model.h"
#include "src/gpu/perf_model.h"

namespace gpudb {
namespace core {

struct GpuPredicate;  // eval_cnf.h
using GpuClause = std::vector<GpuPredicate>;

/// \brief The operation classes the paper's Section 6.2 analysis covers.
enum class OperationKind {
  kPredicateSelect,      ///< attribute op constant (Section 5.5)
  kRangeSelect,          ///< low <= attribute <= high (Section 5.6)
  kMultiAttributeSelect, ///< conjunction over several attributes (5.7)
  kSemilinearSelect,     ///< dot(s,a) op b (Section 5.8)
  kKthLargest,           ///< order statistics / MIN / MAX / MEDIAN (5.9)
  kSum,                  ///< Accumulator (Section 5.10)
  kCount,                ///< occlusion-count selectivity (Section 5.11)
};

std::string_view ToString(OperationKind kind);

/// Which processor should run an operation.
enum class Backend { kGpu, kCpu };

std::string_view ToString(Backend backend);

/// \brief The planner's rewrite of a selection's pass sequence (DESIGN.md
/// §14): which fusion rules apply. The rewrite never changes results --
/// every rule is proven fragment-set-equivalent to the reference sequence
/// -- only how many passes the device renders to get them. A
/// default-constructed plan is the reference sequence itself.
struct PassPlan {
  /// All clauses are single-predicate, so the CNF INCR/DECR bookkeeping
  /// (per-clause parity flips + cleanup passes) collapses into Section
  /// 5.7's conjunction chain: predicate i runs with stencil EQUAL i+1 /
  /// INCR, no cleanup passes at all. Requires <= 254 predicates (8-bit
  /// stencil, values 1..255). CNF only.
  bool chain = false;
  /// The chain's final predicate pass carries the occlusion query itself:
  /// its survivors are exactly the selected records, so the separate
  /// CountSelected pass is dropped. Requires `chain`.
  bool fused_count = false;
  /// Depth-compare predicates that run as single fused copy+compare passes
  /// (core::FusedComparePass) instead of CopyToDepth + CompareQuad pairs.
  /// Zero when the plane cache is on: a cacheable predicate keeps the
  /// attribute copy separate so its depth plane can be snapshotted and
  /// restored across queries.
  int fused_compares = 0;

  bool Rewritten() const { return chain || fused_count || fused_compares > 0; }
};

/// Which normal form a selection's predicate groups are in: CNF clauses
/// (core::EvalCnf) or DNF terms (core::EvalDnf).
enum class NormalForm { kCnf, kDnf };

/// Plans the pass sequence for a CNF or DNF selection. `cache_enabled`
/// disables per-predicate copy+compare fusion (see PassPlan::fused_compares)
/// but keeps the chain rules. The chain rules apply to CNF only: DNF's term
/// stamps and walk-downs need the full skeleton. The unrewritten reference
/// sequence is EvalCnf/EvalDnf with null options (or a default PassPlan).
PassPlan PlanSelectionPasses(const std::vector<GpuClause>& groups,
                             NormalForm form, bool cache_enabled);

/// \brief A co-processor routing decision with its rationale.
///
/// The paper's conclusion is that "the GPU is an excellent candidate for
/// some database operations, but not all ... it would be useful for database
/// designers to utilize GPU capabilities alongside traditional CPU-based
/// code". The planner encodes that advice.
struct PlanDecision {
  Backend backend = Backend::kCpu;
  double gpu_ms = 0;        ///< Modeled GPU time for the operation.
  double cpu_ms = 0;        ///< Modeled CPU time.
  std::string_view rationale;  ///< Paper-derived justification.
};

/// \brief Cost-based co-processor planner using the two analytic models.
///
/// `detail` is operation specific: the conjunct count for
/// kMultiAttributeSelect, the attribute bit width (b_max) for kKthLargest
/// and kSum, and ignored otherwise.
///
/// `selectivity`, when in [0, 1], is the estimated fraction of matching
/// records (from ANALYZE statistics, db/stats.h). Selection operations that
/// materialize their result then charge the GPU plan the row-id readback of
/// the estimated matches over the slow PCI path -- the Section 6.1 readback
/// caveat -- so a high-selectivity SELECT can flip to the CPU even though
/// the scan itself favors the GPU. Negative (the default) means "unknown":
/// no readback term, the pre-statistics behavior.
class Planner {
 public:
  Planner() = default;
  Planner(const gpu::PerfModelParams& gpu_params,
          const cpu::XeonModelParams& cpu_params)
      : gpu_params_(gpu_params), cpu_model_(cpu_params) {}

  PlanDecision Choose(OperationKind op, uint64_t records, int detail = 0,
                      double selectivity = -1.0) const;

  /// Modeled GPU time for an operation (closed-form over the pass structure
  /// each routine executes; matches what PerfModel reports when the
  /// operation actually runs).
  double GpuMs(OperationKind op, uint64_t records, int detail = 0,
               double selectivity = -1.0) const;

  /// Modeled CPU time for the paper's optimized baseline.
  double CpuMs(OperationKind op, uint64_t records, int detail = 0,
               double selectivity = -1.0) const;

 private:
  double FillMs(uint64_t fragments, int instructions) const;
  double CopyToDepthMs(uint64_t records) const;
  double SimplePassMs(uint64_t records) const;

  gpu::PerfModelParams gpu_params_;
  cpu::XeonModel cpu_model_;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_PLANNER_H_
