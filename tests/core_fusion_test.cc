// Planner pass fusion + depth-plane caching (DESIGN.md §14): the rewritten
// plans must be bit-exact with the reference pass sequences -- same counts,
// same stencil masks -- while issuing fewer passes (fusion) or skipping
// attribute copies (cache). Also unit-tests PlanSelectionPasses and the
// gpu::PlaneCache container itself (LRU, invalidation, budget priority).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compare.h"
#include "src/core/eval_cnf.h"
#include "src/core/planner.h"
#include "src/gpu/device.h"
#include "src/gpu/plane_cache.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;
using testing_util::RandomInts;
using testing_util::UploadIntAttribute;

constexpr int kBitWidth = 16;
constexpr size_t kRecords = 2500;

GpuPredicate Depth(const AttributeBinding& attr, CompareOp op, double c) {
  return GpuPredicate::DepthCompare(attr, op, c);
}

/// Boolean selection mask from the current stencil contents.
std::vector<bool> SelectionMask(gpu::Device* device, uint8_t valid,
                                size_t n) {
  auto stencil = device->ReadStencil();
  EXPECT_TRUE(stencil.ok());
  std::vector<bool> mask(n);
  for (size_t i = 0; i < n; ++i) {
    mask[i] = stencil.ValueOrDie()[i] == valid;
  }
  return mask;
}

// ---------------------------------------------------------------------------
// PlanSelectionPasses units: the rewrites each shape is planned, and the
// device passes EvalCnf/EvalDnf issue with that plan and without one.

class PlanSelectionPassesTest : public ::testing::Test {
 protected:
  PlanSelectionPassesTest() : device_(64, 64) {
    attr_ = UploadIntAttribute(&device_, RandomInts(kRecords, kBitWidth, 5),
                               64);
  }

  /// Device passes one EvalCnf issues under `opts` (null: rewrites off).
  uint64_t CnfPasses(const std::vector<GpuClause>& clauses,
                     SelectionExecOptions* opts) {
    const uint64_t before = device_.counters().passes;
    EXPECT_OK(EvalCnf(&device_, clauses, opts).status());
    return device_.counters().passes - before;
  }

  /// Device passes one EvalDnf issues under `opts` (null: rewrites off).
  uint64_t DnfPasses(const std::vector<GpuTerm>& terms,
                     SelectionExecOptions* opts) {
    const uint64_t before = device_.counters().passes;
    EXPECT_OK(EvalDnf(&device_, terms, opts).status());
    return device_.counters().passes - before;
  }

  gpu::Device device_;
  AttributeBinding attr_;
};

TEST_F(PlanSelectionPassesTest, SingletonCnfCollapsesToCountedChain) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 10)},
      {Depth(attr_, CompareOp::kLess, 90)},
      {Depth(attr_, CompareOp::kNotEqual, 50)}};
  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(clauses, NormalForm::kCnf,
                                  /*cache_enabled=*/false);
  EXPECT_TRUE(opts.plan.chain);
  EXPECT_TRUE(opts.plan.fused_count);
  EXPECT_EQ(opts.plan.fused_compares, 3);
  EXPECT_TRUE(opts.plan.Rewritten());
  // Reference: 3 copies + 3 compares + 3 cleanups + 1 count = 10.
  EXPECT_EQ(CnfPasses(clauses, nullptr), 10u);
  // Rewritten: 3 fused compare passes, count carried by the last one.
  EXPECT_EQ(CnfPasses(clauses, &opts), 3u);
}

TEST_F(PlanSelectionPassesTest, MultiPredicateClauseKeepsTheCnfSkeleton) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLess, 10),
       Depth(attr_, CompareOp::kGreater, 90)},
      {Depth(attr_, CompareOp::kNotEqual, 0)}};
  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(clauses, NormalForm::kCnf, false);
  EXPECT_FALSE(opts.plan.chain);
  EXPECT_FALSE(opts.plan.fused_count);
  EXPECT_EQ(opts.plan.fused_compares, 3);
  // Reference: 3 copies + 3 compares + 2 cleanups + 1 count = 9.
  EXPECT_EQ(CnfPasses(clauses, nullptr), 9u);
  // Rewritten: 3 fused + 2 cleanups + 1 count = 6.
  EXPECT_EQ(CnfPasses(clauses, &opts), 6u);
}

TEST_F(PlanSelectionPassesTest, DefaultPlanIsTheReferenceSequence) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLess, 5)}};
  SelectionExecOptions opts;
  opts.plan = PassPlan{};
  EXPECT_FALSE(opts.plan.Rewritten());
  // 1 copy + 1 compare + 1 cleanup + 1 count, with the plan or without.
  EXPECT_EQ(CnfPasses(clauses, &opts), 4u);
  EXPECT_EQ(CnfPasses(clauses, nullptr), 4u);
}

TEST_F(PlanSelectionPassesTest, CacheDisablesCompareFusionButKeepsTheChain) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 10)},
      {Depth(attr_, CompareOp::kLess, 90)}};
  const PassPlan plan =
      PlanSelectionPasses(clauses, NormalForm::kCnf, true);
  EXPECT_TRUE(plan.chain);
  EXPECT_TRUE(plan.fused_count);
  // Cacheable predicates keep the copy separate so the depth plane can be
  // snapshotted and restored across queries.
  EXPECT_EQ(plan.fused_compares, 0);
}

TEST_F(PlanSelectionPassesTest, DnfPlanFusesComparesButNeverChains) {
  const std::vector<GpuTerm> terms = {
      {Depth(attr_, CompareOp::kLess, 10000),
       Depth(attr_, CompareOp::kGreater, 2000)},
      {Depth(attr_, CompareOp::kGreaterEqual, 60000),
       Depth(attr_, CompareOp::kNotEqual, 61000)}};
  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(terms, NormalForm::kDnf, false);
  EXPECT_FALSE(opts.plan.chain);
  EXPECT_FALSE(opts.plan.fused_count);
  EXPECT_EQ(opts.plan.fused_compares, 4);
  // Reference, per term: 2 copies + 2 compares + 1 stamp + 1 walk-down;
  // then 1 count = 13.
  EXPECT_EQ(DnfPasses(terms, nullptr), 13u);
  // Rewritten: per term 2 fused + 1 stamp + 1 walk-down; 1 count = 9.
  EXPECT_EQ(DnfPasses(terms, &opts), 9u);
  // Singleton terms are exactly what the CNF chain takes; as DNF terms they
  // still plan no chain.
  const std::vector<GpuTerm> singletons = {{terms[0][0]}, {terms[1][0]}};
  EXPECT_FALSE(
      PlanSelectionPasses(singletons, NormalForm::kDnf, false).chain);
}

// ---------------------------------------------------------------------------
// Fused copy+compare: bit-exact with the reference pair for every operator.

TEST(FusedCompareTest, MatchesUnfusedForEveryOperatorAndConstant) {
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 42);
  const double present = static_cast<double>(ints[7]);  // boundary stress
  for (const CompareOp op :
       {CompareOp::kLess, CompareOp::kLessEqual, CompareOp::kEqual,
        CompareOp::kGreaterEqual, CompareOp::kGreater, CompareOp::kNotEqual}) {
    for (const double constant : {present, 0.0, 40000.0}) {
      gpu::Device device(64, 64);
      AttributeBinding attr = UploadIntAttribute(&device, ints, 64);
      const std::vector<GpuClause> clauses = {{Depth(attr, op, constant)}};

      auto ref = EvalCnf(&device, clauses);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      const std::vector<bool> ref_mask =
          SelectionMask(&device, ref.ValueOrDie().valid_value, kRecords);

      SelectionExecOptions opts;
      opts.plan = PlanSelectionPasses(clauses, NormalForm::kCnf, false);
      const uint64_t passes_before = device.counters().passes;
      auto fused = EvalCnf(&device, clauses, &opts);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      const std::string what = std::string(gpu::ToString(op)) + " " +
                               std::to_string(constant);
      EXPECT_EQ(fused.ValueOrDie().count, ref.ValueOrDie().count) << what;
      EXPECT_EQ(SelectionMask(&device, fused.ValueOrDie().valid_value,
                              kRecords),
                ref_mask)
          << what;
      EXPECT_EQ(opts.fused_passes, 1) << what;
      // The whole selection ran in one pass (count via the same pass).
      EXPECT_EQ(device.counters().passes - passes_before, 1u) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Planned rewrites vs. the same evaluators with every rewrite off.

class PlannedEvalTest : public ::testing::Test {
 protected:
  PlannedEvalTest() : device_(64, 64) {
    ints_ = RandomInts(kRecords, kBitWidth, 20260806);
    attr_ = UploadIntAttribute(&device_, ints_, 64);
  }

  gpu::Device device_;
  std::vector<uint32_t> ints_;
  AttributeBinding attr_;
};

TEST_F(PlannedEvalTest, GeneralCnfMatchesRewritesOffWithFewerPasses) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLess, 16000),
       Depth(attr_, CompareOp::kGreaterEqual, 48000)},
      {Depth(attr_, CompareOp::kNotEqual, 0)}};

  const uint64_t before_ref = device_.counters().passes;
  auto ref = EvalCnf(&device_, clauses);
  ASSERT_TRUE(ref.ok());
  const uint64_t ref_passes = device_.counters().passes - before_ref;
  const std::vector<bool> ref_mask =
      SelectionMask(&device_, ref.ValueOrDie().valid_value, kRecords);

  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(clauses, NormalForm::kCnf, false);
  const uint64_t before = device_.counters().passes;
  auto planned = EvalCnf(&device_, clauses, &opts);
  ASSERT_TRUE(planned.ok());
  const uint64_t planned_passes = device_.counters().passes - before;

  EXPECT_EQ(planned.ValueOrDie().count, ref.ValueOrDie().count);
  EXPECT_EQ(planned.ValueOrDie().valid_value, ref.ValueOrDie().valid_value);
  EXPECT_EQ(
      SelectionMask(&device_, planned.ValueOrDie().valid_value, kRecords),
      ref_mask);
  EXPECT_EQ(opts.fused_passes, 3);
  EXPECT_LT(planned_passes, ref_passes);
  EXPECT_EQ(device_.counters().fused_passes, 3u);
}

TEST_F(PlannedEvalTest, SingletonChainMatchesRewritesOffCount) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 8000)},
      {Depth(attr_, CompareOp::kLess, 56000)},
      {Depth(attr_, CompareOp::kNotEqual, 12345)}};

  auto ref = EvalCnf(&device_, clauses);
  ASSERT_TRUE(ref.ok());
  const std::vector<bool> ref_mask =
      SelectionMask(&device_, ref.ValueOrDie().valid_value, kRecords);

  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(clauses, NormalForm::kCnf, false);
  ASSERT_TRUE(opts.plan.chain);
  const uint64_t before = device_.counters().passes;
  auto planned = EvalCnf(&device_, clauses, &opts);
  ASSERT_TRUE(planned.ok());

  // Chain + fused count: one pass per predicate, nothing else.
  EXPECT_EQ(device_.counters().passes - before, clauses.size());
  EXPECT_EQ(planned.ValueOrDie().count, ref.ValueOrDie().count);
  // The chain walks the stencil up to k+1 instead of parity-flipping
  // between 1 and 2, so the valid *value* differs; the selected *set*
  // must not.
  EXPECT_EQ(planned.ValueOrDie().valid_value, clauses.size() + 1);
  EXPECT_EQ(
      SelectionMask(&device_, planned.ValueOrDie().valid_value, kRecords),
      ref_mask);
}

TEST_F(PlannedEvalTest, DnfMatchesRewritesOff) {
  const std::vector<GpuTerm> terms = {
      {Depth(attr_, CompareOp::kLess, 10000),
       Depth(attr_, CompareOp::kGreater, 2000)},
      {Depth(attr_, CompareOp::kGreaterEqual, 60000)}};

  auto ref = EvalDnf(&device_, terms);
  ASSERT_TRUE(ref.ok());
  const std::vector<bool> ref_mask =
      SelectionMask(&device_, ref.ValueOrDie().valid_value, kRecords);

  SelectionExecOptions opts;
  opts.plan = PlanSelectionPasses(terms, NormalForm::kDnf, false);
  auto planned = EvalDnf(&device_, terms, &opts);
  ASSERT_TRUE(planned.ok());

  EXPECT_EQ(planned.ValueOrDie().count, ref.ValueOrDie().count);
  EXPECT_EQ(planned.ValueOrDie().valid_value, ref.ValueOrDie().valid_value);
  EXPECT_EQ(
      SelectionMask(&device_, planned.ValueOrDie().valid_value, kRecords),
      ref_mask);
  EXPECT_EQ(opts.fused_passes, 3);
}

// ---------------------------------------------------------------------------
// Depth-plane cache: hit/miss behaviour, bit-exactness, LRU.

class PlaneCacheExecTest : public ::testing::Test {
 protected:
  PlaneCacheExecTest() : device_(64, 64) {
    ints_ = RandomInts(kRecords, kBitWidth, 7);
    attr_ = UploadIntAttribute(&device_, ints_, 64);
    attr_.column = 0;
  }

  SelectionExecOptions CachedOpts(const std::vector<GpuClause>& clauses) {
    SelectionExecOptions opts;
    opts.plan = PlanSelectionPasses(clauses, NormalForm::kCnf, true);
    opts.use_cache = true;
    opts.table = "t";
    return opts;
  }

  gpu::Device device_;
  std::vector<uint32_t> ints_;
  AttributeBinding attr_;
};

TEST_F(PlaneCacheExecTest, MissThenHitStaysBitExactAndSkipsTheCopy) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kGreater, 30000)}};

  auto ref = EvalCnf(&device_, clauses);
  ASSERT_TRUE(ref.ok());

  SelectionExecOptions cold = CachedOpts(clauses);
  auto first = EvalCnf(&device_, clauses, &cold);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cold.cache_misses, 1);
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.fused_passes, 0);  // cacheable predicates are not fused
  EXPECT_EQ(first.ValueOrDie().count, ref.ValueOrDie().count);

  SelectionExecOptions warm = CachedOpts(clauses);
  gpu::PassLogScope warm_log(&device_);
  auto second = EvalCnf(&device_, clauses, &warm);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(warm.cache_hits, 1);
  EXPECT_EQ(warm.cache_misses, 0);
  EXPECT_EQ(second.ValueOrDie().count, ref.ValueOrDie().count);

  EXPECT_EQ(device_.counters().plane_cache_hits, 1u);
  EXPECT_EQ(device_.counters().plane_cache_misses, 1u);
  // The warm query ran no CopyToDepth: its passes end restore + compare,
  // and the restore is flagged as a cache hit.
  const std::vector<gpu::PassRecord>& log = warm_log.records();
  ASSERT_GE(log.size(), 2u);
  for (const gpu::PassRecord& pass : log) {
    EXPECT_NE(pass.label, "CopyToDepthFP");
  }
  const auto& restore = log[log.size() - 2];
  EXPECT_EQ(restore.label, "plane-restore");
  EXPECT_TRUE(restore.cache_hit);
}

TEST_F(PlaneCacheExecTest, RestoredPlaneIsBitExact) {
  const std::vector<GpuClause> clauses = {
      {Depth(attr_, CompareOp::kLessEqual, 20000)}};
  SelectionExecOptions cold = CachedOpts(clauses);
  ASSERT_TRUE(EvalCnf(&device_, clauses, &cold).ok());
  auto after_copy = device_.ReadDepth();
  ASSERT_TRUE(after_copy.ok());

  device_.ClearDepth(0.0f);  // scribble over the plane
  SelectionExecOptions warm = CachedOpts(clauses);
  ASSERT_TRUE(EvalCnf(&device_, clauses, &warm).ok());
  ASSERT_EQ(warm.cache_hits, 1);
  auto after_restore = device_.ReadDepth();
  ASSERT_TRUE(after_restore.ok());
  // The cache covers the viewport's texels; the framebuffer tail beyond
  // them is scratch.
  const std::vector<uint32_t> copied(after_copy.ValueOrDie().begin(),
                                     after_copy.ValueOrDie().begin() + kRecords);
  const std::vector<uint32_t> restored(
      after_restore.ValueOrDie().begin(),
      after_restore.ValueOrDie().begin() + kRecords);
  EXPECT_EQ(copied, restored);
}

TEST_F(PlaneCacheExecTest, PredicateWithoutColumnIdentityIsNotCached) {
  AttributeBinding anon = attr_;
  anon.column = -1;
  const std::vector<GpuClause> clauses = {
      {Depth(anon, CompareOp::kGreater, 30000)}};
  SelectionExecOptions opts = CachedOpts(clauses);
  auto sel = EvalCnf(&device_, clauses, &opts);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(opts.cache_hits + opts.cache_misses, 0);
  EXPECT_EQ(device_.plane_cache().size(), 0u);
}

// ---------------------------------------------------------------------------
// gpu::PlaneCache container semantics.

TEST(PlaneCacheTest, LruEvictsTheLeastRecentlyUsedPlane) {
  gpu::PlaneCache cache;
  gpu::PlaneKey a{"t", 0, 1.0, 0.0, 4};
  gpu::PlaneKey b{"t", 1, 1.0, 0.0, 4};
  gpu::PlaneKey c{"u", 0, 1.0, 0.0, 4};
  cache.Insert(a, {1, 2, 3, 4});
  cache.Insert(b, {5, 6, 7, 8});
  cache.Insert(c, {9, 10, 11, 12});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.bytes(), 3u * 4u * sizeof(uint32_t));

  // Touch `a` so `b` is the least recently used.
  ASSERT_NE(cache.Lookup(a), nullptr);
  ASSERT_TRUE(cache.EvictLru());
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 2u * 4u * sizeof(uint32_t));

  // Draining the cache leaves nothing to evict.
  ASSERT_TRUE(cache.EvictLru());
  ASSERT_TRUE(cache.EvictLru());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.EvictLru());
}

TEST(PlaneCacheTest, KeyDiscriminatesEveryField) {
  gpu::PlaneCache cache;
  const gpu::PlaneKey base{"t", 0, 1.0, 0.0, 8};
  cache.Insert(base, std::vector<uint32_t>(8, 7));
  for (gpu::PlaneKey k :
       {gpu::PlaneKey{"u", 0, 1.0, 0.0, 8},   // table
        gpu::PlaneKey{"t", 1, 1.0, 0.0, 8},   // column
        gpu::PlaneKey{"t", 0, 2.0, 0.0, 8},   // scale
        gpu::PlaneKey{"t", 0, 1.0, 1.0, 8},   // offset
        gpu::PlaneKey{"t", 0, 1.0, 0.0, 4}}) {  // viewport
    EXPECT_EQ(cache.Lookup(k), nullptr);
  }
  EXPECT_NE(cache.Lookup(base), nullptr);
}

TEST(PlaneCacheBudgetTest, PlanesNeverDisplaceTexturesAndEvictLruFirst) {
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 99);
  gpu::Device device(64, 64);
  AttributeBinding attr = UploadIntAttribute(&device, ints, 64);
  attr.column = 0;
  const uint64_t texture_bytes = device.video_memory_used();
  ASSERT_GT(texture_bytes, 0u);
  const uint64_t plane_bytes = device.viewport_pixels() * sizeof(uint32_t);

  // Budget with room for the texture plus exactly one cached plane.
  ASSERT_TRUE(
      device.SetVideoMemoryBudget(texture_bytes + plane_bytes).ok());

  gpu::PlaneKey k0{"t", 0, attr.encoding.scale, attr.encoding.offset,
                   device.viewport_pixels()};
  gpu::PlaneKey k1 = k0;
  k1.column = 1;
  ASSERT_TRUE(CopyToDepth(&device, attr).ok());
  ASSERT_TRUE(device.CacheDepthPlane(k0).ok());
  EXPECT_EQ(device.plane_cache().size(), 1u);

  // A second plane exceeds the budget: the LRU plane is evicted and the
  // texture stays resident (planes are strictly lower priority).
  ASSERT_TRUE(device.CacheDepthPlane(k1).ok());
  EXPECT_EQ(device.plane_cache().size(), 1u);
  EXPECT_TRUE(device.plane_cache().Contains(k1));
  EXPECT_EQ(device.video_memory_used(), texture_bytes);
  EXPECT_LE(device.video_memory_used() + device.plane_cache().bytes(),
            texture_bytes + plane_bytes);

  // Shrinking the budget to texture-only drains the plane cache before
  // touching any texture.
  ASSERT_TRUE(device.SetVideoMemoryBudget(texture_bytes).ok());
  EXPECT_EQ(device.plane_cache().size(), 0u);
  EXPECT_EQ(device.video_memory_used(), texture_bytes);

  // With no headroom at all, caching silently skips (the query already has
  // its answer; the cache is an optimization, never an error).
  ASSERT_TRUE(device.CacheDepthPlane(k0).ok());
  EXPECT_EQ(device.plane_cache().size(), 0u);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
