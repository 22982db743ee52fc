#ifndef GPUDB_CORE_EVAL_CNF_H_
#define GPUDB_CORE_EVAL_CNF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/compare.h"
#include "src/core/planner.h"
#include "src/core/semilinear.h"
#include "src/gpu/device.h"

namespace gpudb {
namespace core {

/// \brief A simple predicate lowered to its GPU execution strategy:
/// attribute-vs-constant comparisons run through the depth test (Routine
/// 4.1); attribute-vs-attribute comparisons are rewritten as semi-linear
/// queries `a_i - a_j op 0` and run through a fragment program (Routine 4.2).
struct GpuPredicate {
  enum class Kind { kDepthCompare, kSemilinear };

  Kind kind = Kind::kDepthCompare;

  // kDepthCompare: attribute op constant.
  AttributeBinding attr;
  gpu::CompareOp op = gpu::CompareOp::kAlways;
  double constant = 0.0;

  // kSemilinear: dot(weights, texture channels) op b.
  gpu::TextureId texture = -1;
  SemilinearQuery query;

  static GpuPredicate DepthCompare(const AttributeBinding& attr,
                                   gpu::CompareOp op, double constant);
  static GpuPredicate Semilinear(gpu::TextureId texture,
                                 const SemilinearQuery& query);
};

/// One CNF clause: disjunction of simple predicates.
using GpuClause = std::vector<GpuPredicate>;

/// \brief Outcome of a GPU selection: which stencil value marks selected
/// records, and how many there are.
struct StencilSelection {
  uint8_t valid_value = 1;  ///< stencil == valid_value <=> record selected.
  uint64_t count = 0;
};

/// \brief How a selection should execute, plus what actually happened
/// (DESIGN.md §14). The caller fills the plan and cache identity; EvalCnf
/// and EvalDnf fill the outcome counters, which the executor surfaces as
/// EXPLAIN annotations and query-log columns. A default-constructed value
/// (every rewrite off, no cache) runs the paper's reference pass sequence,
/// which is also what a null `opts` means.
struct SelectionExecOptions {
  PassPlan plan;
  /// Depth-plane caching for kDepthCompare predicates. Requires `table`
  /// and per-predicate column indices; predicates without a column identity
  /// fall back to fusion (if planned) or the classic pair.
  bool use_cache = false;
  std::string table;

  // Exec-time outcomes.
  int fused_passes = 0;
  int cache_hits = 0;
  int cache_misses = 0;
};

/// \brief Routine 4.3 (EvalCNF): evaluates A_1 AND ... AND A_k where each
/// A_i is a disjunction of simple predicates, using the three stencil values
/// {0, 1, 2} exactly as the paper describes: the stencil is cleared to 1;
/// clause i alternates the valid value between 1 and 2 via INCR/DECR, with a
/// cleanup pass zeroing records that failed the clause.
///
/// On return the stencil buffer holds the selection mask and the result
/// reports the valid stencil value (2 if the clause count is odd, 1 if
/// even) plus the selected-record count (one extra counting pass).
///
/// `opts` applies the planner's rewrites (DESIGN.md §14); null, or a plan
/// with every rewrite off, runs exactly the sequence above.
///   - `plan.chain` is Section 5.7's conjunction chain: every clause must be
///     a single predicate, and predicate i passes records from stencil value
///     i to i+1, so no cleanup passes are needed and k+1 is the valid value.
///     The 8-bit stencil bounds it at 254 clauses (ResourceExhausted
///     beyond); a multi-predicate clause is InvalidArgument.
///   - `plan.fused_count` lets the chain's last comparison carry the
///     occlusion query, dropping the counting pass. Without `plan.chain`
///     it is InvalidArgument.
///   - `plan.fused_compares` and `opts->use_cache` route depth-compare
///     predicates through the fused copy+compare pass or the depth-plane
///     cache.
/// Every rewrite is bit-exact with the reference on the selected set and
/// count, at any thread count; only the pass sequence, the chain's valid
/// value and the depth plane's final contents differ.
[[nodiscard]] Result<StencilSelection> EvalCnf(
    gpu::Device* device, const std::vector<GpuClause>& clauses,
    SelectionExecOptions* opts = nullptr);

/// One DNF term: conjunction of simple predicates.
using GpuTerm = std::vector<GpuPredicate>;

/// \brief DNF evaluation -- the paper's claimed easy modification of
/// Routine 4.3 ("We can easily modify our algorithm for handling a boolean
/// expression represented as a DNF", Section 4.2). Evaluates
/// T_1 OR T_2 OR ... OR T_k where each T_i is a conjunction.
///
/// Stencil scheme: candidates hold 1, records selected by some term hold 0
/// (ZERO is the only reference-free "stamp" operation, which makes 0 the
/// natural selected marker). Each term runs a conjunction chain 1 -> m+1
/// over the candidates, stamps the survivors to 0, and decrements partial
/// chains back to 1 for the next term.
///
/// On return the stencil marks selected records with value 0 (the returned
/// StencilSelection's valid_value).
///
/// `opts` applies per-predicate fusion and plane caching as in EvalCnf. The
/// DNF skeleton (term chains, stamps, walk-downs) admits no chain rewrite:
/// `plan.chain` and `plan.fused_count` do not apply, and
/// PlanSelectionPasses never sets them for DNF terms.
[[nodiscard]] Result<StencilSelection> EvalDnf(
    gpu::Device* device, const std::vector<GpuTerm>& terms,
    SelectionExecOptions* opts = nullptr);

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_EVAL_CNF_H_
