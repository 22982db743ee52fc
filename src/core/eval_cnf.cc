#include "src/core/eval_cnf.h"

#include <string>

#include "src/core/count.h"
#include "src/core/op_span.h"
#include "src/core/state_guard.h"

namespace gpudb {
namespace core {

GpuPredicate GpuPredicate::DepthCompare(const AttributeBinding& attr,
                                        gpu::CompareOp op, double constant) {
  GpuPredicate p;
  p.kind = Kind::kDepthCompare;
  p.attr = attr;
  p.op = op;
  p.constant = constant;
  return p;
}

GpuPredicate GpuPredicate::Semilinear(gpu::TextureId texture,
                                      const SemilinearQuery& query) {
  GpuPredicate p;
  p.kind = Kind::kSemilinear;
  p.texture = texture;
  p.query = query;
  return p;
}

namespace {

/// Evaluates one simple predicate with the caller's stencil configuration
/// active, leaving the stencil config untouched. A depth compare runs
/// through the plan's fast paths -- the depth-plane cache or the fused
/// copy+compare pass -- or, with both off, Routine 4.1's CopyToDepth +
/// comparison quad; a semilinear predicate is one fragment-program pass
/// whose killed fragments never reach the caller's stencil ops.
/// When `begin_occlusion` is set, the occlusion query is begun immediately
/// before the comparison pass itself -- after any copy/restore/snapshot
/// passes, whose fragments must not be counted -- so the caller can read
/// the survivor count of exactly the predicate's comparison.
Status ExecPredicate(gpu::Device* device, const GpuPredicate& pred,
                     SelectionExecOptions* opts, bool begin_occlusion) {
  switch (pred.kind) {
    case GpuPredicate::Kind::kDepthCompare: {
      const bool cacheable = opts->use_cache && !opts->table.empty() &&
                             pred.attr.column >= 0;
      if (cacheable) {
        gpu::PlaneKey key;
        key.table = opts->table;
        key.column = pred.attr.column;
        key.scale = pred.attr.encoding.scale;
        key.offset = pred.attr.encoding.offset;
        key.viewport_pixels = device->viewport_pixels();
        GPUDB_ASSIGN_OR_RETURN(const bool hit,
                               device->RestoreCachedDepthPlane(key));
        if (hit) {
          ++opts->cache_hits;
        } else {
          ++opts->cache_misses;
          GPUDB_RETURN_NOT_OK(CopyToDepth(device, pred.attr));
          GPUDB_RETURN_NOT_OK(device->CacheDepthPlane(key));
        }
        if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
        return CompareQuad(device, pred.op, pred.constant, pred.attr.encoding);
      }
      if (opts->plan.fused_compares > 0) {
        ++opts->fused_passes;
        if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
        return FusedComparePass(device, pred.attr, pred.op, pred.constant);
      }
      GPUDB_RETURN_NOT_OK(CopyToDepth(device, pred.attr));
      if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
      return CompareQuad(device, pred.op, pred.constant, pred.attr.encoding);
    }
    case GpuPredicate::Kind::kSemilinear:
      device->SetDepthTest(false, gpu::CompareOp::kAlways);
      device->SetDepthBoundsTest(false);
      if (begin_occlusion) GPUDB_RETURN_NOT_OK(device->BeginOcclusionQuery());
      return SemilinearQuad(device, pred.texture, pred.query);
  }
  return Status::Internal("corrupt GpuPredicate");
}

/// EvalCnf's input checks: at least one clause, no empty clause, and a
/// plan it can run -- the chain takes one predicate per clause and at most
/// 254 clauses (8-bit stencil), and only the chain can carry the count.
Status ValidateCnf(const std::vector<GpuClause>& clauses,
                   const PassPlan& plan) {
  if (clauses.empty()) {
    return Status::InvalidArgument("EvalCnf requires at least one clause");
  }
  if (plan.chain && clauses.size() > 254) {
    return Status::ResourceExhausted(
        "EvalCnf: the conjunction chain supports at most 254 clauses "
        "(8-bit stencil); got " +
        std::to_string(clauses.size()));
  }
  if (plan.fused_count && !plan.chain) {
    return Status::InvalidArgument(
        "EvalCnf: fused_count needs the conjunction chain");
  }
  for (const GpuClause& clause : clauses) {
    if (clause.empty()) {
      return Status::InvalidArgument("EvalCnf: empty clause");
    }
    if (plan.chain && clause.size() != 1) {
      return Status::InvalidArgument(
          "EvalCnf: the conjunction chain needs single-predicate clauses");
    }
  }
  return Status::OK();
}

}  // namespace

Result<StencilSelection> EvalCnf(gpu::Device* device,
                                 const std::vector<GpuClause>& clauses,
                                 SelectionExecOptions* opts) {
  SelectionExecOptions reference;  // every rewrite off: Routine 4.3 as is
  if (opts == nullptr) opts = &reference;
  const PassPlan& plan = opts->plan;
  GPUDB_RETURN_NOT_OK(ValidateCnf(clauses, plan));
  const size_t k = clauses.size();
  GpuOpSpan op("EvalCnf", device);
  if (op.active()) {
    size_t predicates = 0;
    for (const GpuClause& clause : clauses) predicates += clause.size();
    op.AddTag("clauses", k);
    op.AddTag("predicates", predicates);
  }
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetColorWriteMask(false);

  // Line 1: Clear Stencil to 1 (TRUE AND A_1).
  device->ClearStencil(1);

  StencilSelection sel;
  if (plan.chain) {
    // Section 5.7's conjunction chain: predicate i passes records from
    // stencil value i to i+1, so a record holds k+1 at the end iff it
    // satisfied every predicate. Identical survivor sets per pass ->
    // identical final mask and count as Routine 4.3, without the parity
    // flips and cleanup passes.
    uint8_t valid = 1;
    for (size_t i = 0; i < k; ++i) {
      // Deadline check between predicate passes (lint rule R2).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      device->SetStencilTest(true, gpu::CompareOp::kEqual, valid);
      device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                           gpu::StencilOp::kIncr);
      // The chain's last comparison already renders exactly the selected
      // records; with fused_count its survivor count *is* the answer, and
      // the separate CountSelected pass is dropped.
      const bool count_here = plan.fused_count && i + 1 == k;
      GPUDB_RETURN_NOT_OK(
          ExecPredicate(device, clauses[i].front(), opts, count_here));
      ++valid;
    }
    sel.valid_value = valid;
  } else {
    for (size_t i = 1; i <= k; ++i) {
      // Deadline check between clauses (large CNFs run thousands
      // of passes; the per-pass device check bounds the latency either way).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      const bool odd = (i % 2) == 1;
      // Lines 4-10: valid records hold 1 on odd iterations (passing ones
      // are INCRemented to 2), 2 on even iterations (passing ones
      // DECRemented back to 1). Records that already passed an earlier
      // predicate of this clause no longer match the valid value, so they
      // cannot be bumped twice -- this is what makes the disjunction work.
      device->SetStencilTest(true, gpu::CompareOp::kEqual, odd ? 1 : 2);
      device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                           odd ? gpu::StencilOp::kIncr : gpu::StencilOp::kDecr);
      // Lines 11-14: evaluate each B_ij of the clause.
      for (const GpuPredicate& pred : clauses[i - 1]) {
        // Deadline check between predicate passes (lint rule R2).
        GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
        GPUDB_RETURN_NOT_OK(
            ExecPredicate(device, pred, opts, /*begin_occlusion=*/false));
      }
      // Lines 15-19: records still holding the old valid value failed
      // every B_ij of this clause -> invalidate them (stencil 0).
      GPUDB_RETURN_NOT_OK(ZeroStencilValue(device, odd ? 1 : 2));
    }
    sel.valid_value = (k % 2 == 1) ? 2 : 1;
  }
  if (plan.fused_count) {
    GPUDB_ASSIGN_OR_RETURN(sel.count, device->EndOcclusionQuery());
  } else {
    GPUDB_ASSIGN_OR_RETURN(sel.count, CountSelected(device, sel.valid_value));
  }
  return sel;
}

Result<StencilSelection> EvalDnf(gpu::Device* device,
                                 const std::vector<GpuTerm>& terms,
                                 SelectionExecOptions* opts) {
  if (terms.empty()) {
    return Status::InvalidArgument("EvalDnf requires at least one term");
  }
  for (const GpuTerm& term : terms) {
    if (term.empty()) {
      return Status::InvalidArgument("EvalDnf: empty term");
    }
    if (term.size() > 254) {
      return Status::ResourceExhausted(
          "EvalDnf terms support at most 254 conjuncts (8-bit stencil)");
    }
  }
  SelectionExecOptions reference;  // every rewrite off
  if (opts == nullptr) opts = &reference;
  GpuOpSpan op("EvalDnf", device);
  if (op.active()) {
    size_t predicates = 0;
    for (const GpuTerm& term : terms) predicates += term.size();
    op.AddTag("terms", terms.size());
    op.AddTag("predicates", predicates);
  }
  StateGuard guard(device);
  device->SetAlphaTest(false, gpu::CompareOp::kAlways, 0.0f);
  device->SetColorWriteMask(false);
  // 1 = candidate (not yet selected), 0 = selected by an earlier term.
  device->ClearStencil(1);

  for (const GpuTerm& term : terms) {
    GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
    const auto m = static_cast<uint8_t>(term.size());
    // Conjunction chain over candidates: predicate j bumps j -> j+1.
    uint8_t value = 1;
    for (const GpuPredicate& pred : term) {
      // Deadline check between predicate passes (lint rule R2).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      device->SetStencilTest(true, gpu::CompareOp::kEqual, value);
      device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                           gpu::StencilOp::kIncr);
      GPUDB_RETURN_NOT_OK(
          ExecPredicate(device, pred, opts, /*begin_occlusion=*/false));
      ++value;
    }
    // Records at m+1 satisfied the whole term: stamp them selected (0).
    device->SetStencilTest(true, gpu::CompareOp::kEqual,
                           static_cast<uint8_t>(m + 1));
    device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                         gpu::StencilOp::kZero);
    device->SetDepthTest(false, gpu::CompareOp::kAlways);
    device->SetDepthBoundsTest(false);
    GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));
    // Walk partial chains (values 2..m) back down to 1 so the next term
    // starts clean: each pass decrements every value above 1.
    for (int step = 0; step < m - 1; ++step) {
      // Deadline check between walk-down passes (lint rule R2).
      GPUDB_RETURN_NOT_OK(device->CheckInterrupt());
      device->SetStencilTest(true, gpu::CompareOp::kLess, /*ref=*/1);
      device->SetStencilOp(gpu::StencilOp::kKeep, gpu::StencilOp::kKeep,
                           gpu::StencilOp::kDecr);
      GPUDB_RETURN_NOT_OK(device->RenderQuad(0.0f));
    }
  }

  StencilSelection sel;
  sel.valid_value = 0;
  GPUDB_ASSIGN_OR_RETURN(sel.count, CountSelected(device, 0));
  return sel;
}

}  // namespace core
}  // namespace gpudb
