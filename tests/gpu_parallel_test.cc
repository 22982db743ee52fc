// Determinism sweep for the parallel pixel engines: every GPU routine must
// produce bit-identical framebuffer contents, hardware counters, pass logs,
// occlusion counts, and results at any worker-thread count. This is the
// serial-equivalence guarantee of the tile decomposition (DESIGN.md §10):
// bands cover disjoint pixels and per-band counters reduce in fixed band
// order, so threading can never change what a query computes.
//
// Also the TSan target: scripts/check.sh rebuilds this test with
// GPUDB_SANITIZE=thread to prove the row-band dispatch is race-free.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/core/accumulator.h"
#include "src/core/compare.h"
#include "src/core/eval_cnf.h"
#include "src/core/executor.h"
#include "src/core/kth_largest.h"
#include "src/core/pool_executor.h"
#include "src/core/range.h"
#include "src/core/resilience.h"
#include "src/core/semilinear.h"
#include "src/db/datagen.h"
#include "src/db/table.h"
#include "src/gpu/device.h"
#include "src/gpu/device_pool.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;
using testing_util::RandomInts;
using testing_util::UploadIntAttribute;

/// Every observable output of a scenario: the three framebuffer planes,
/// the cumulative hardware counters, every pass record (read through a
/// PassLogScope open for the whole scenario), and the values each routine
/// returned (counts, order statistics, sums).
struct Snapshot {
  std::vector<uint32_t> depth;
  std::vector<uint8_t> stencil;
  std::vector<float> color;
  gpu::DeviceCounters counters;
  std::vector<gpu::PassRecord> passes;
  std::vector<uint64_t> results;
};

/// Runs the full scenario -- CompareSelect, EvalCnf, RangeSelect,
/// KthLargest, Accumulate (plain, and over a selection with the alpha test
/// and with KILL) -- on a fresh 100x100 device with `threads` pixel-engine
/// workers and captures everything it produced.
Snapshot RunScenario(int threads, const std::vector<uint32_t>& ints,
                     int bit_width) {
  Snapshot snap;
  gpu::Device device(100, 100);
  EXPECT_OK(device.SetWorkerThreads(threads));
  gpu::PassLogScope log(&device);
  AttributeBinding attr = UploadIntAttribute(&device, ints);
  const auto domain = static_cast<double>(uint64_t{1} << bit_width);

  // Routine 4.1: predicate selection with an occlusion-counted pass.
  auto select =
      CompareSelect(&device, attr, CompareOp::kGreater, domain * 0.4);
  EXPECT_OK(select.status());
  if (select.ok()) snap.results.push_back(select.ValueOrDie());

  // Routine 4.3: CNF with a two-predicate disjunction and a conjunct.
  const std::vector<GpuClause> clauses = {
      {GpuPredicate::DepthCompare(attr, CompareOp::kLess, domain * 0.25),
       GpuPredicate::DepthCompare(attr, CompareOp::kGreaterEqual,
                                  domain * 0.75)},
      {GpuPredicate::DepthCompare(attr, CompareOp::kNotEqual, 0.0)},
  };
  auto cnf = EvalCnf(&device, clauses);
  EXPECT_OK(cnf.status());
  if (cnf.ok()) {
    snap.results.push_back(cnf.ValueOrDie().count);
    snap.results.push_back(cnf.ValueOrDie().valid_value);
  }

  // Routine 4.4: range query via the depth-bounds test.
  auto range = RangeSelect(&device, attr, domain * 0.3, domain * 0.6);
  EXPECT_OK(range.status());
  if (range.ok()) snap.results.push_back(range.ValueOrDie());

  // Routine 4.5: order statistics, one bit per pass.
  for (const uint64_t k :
       {uint64_t{1}, std::max(uint64_t{1}, uint64_t{ints.size() / 2})}) {
    auto kth = KthLargest(&device, attr, bit_width, k);
    EXPECT_OK(kth.status());
    if (kth.ok()) snap.results.push_back(kth.ValueOrDie());
  }

  // Routine 4.6: exact integer sum, one TestBit pass per bit.
  auto sum = Accumulate(&device, attr.texture, attr.channel, bit_width);
  EXPECT_OK(sum.status());
  if (sum.ok()) snap.results.push_back(sum.ValueOrDie());

  // The same sum over a stencil selection (the records CompareSelect
  // marked 1), with the alpha test and with the in-program KILL.
  auto marked = CompareSelect(&device, attr, CompareOp::kLess, domain * 0.6);
  EXPECT_OK(marked.status());
  if (marked.ok()) {
    std::vector<uint64_t> selected_sums;
    for (const bool alpha_test : {true, false}) {
      AccumulatorOptions options;
      options.selection = StencilSelection{1, marked.ValueOrDie()};
      options.use_alpha_test = alpha_test;
      auto selected_sum = Accumulate(&device, attr.texture, attr.channel,
                                     bit_width, options);
      EXPECT_OK(selected_sum.status());
      if (selected_sum.ok()) selected_sums.push_back(selected_sum.ValueOrDie());
    }
    // Both variants count the same bits of the same records.
    if (selected_sums.size() == 2) {
      EXPECT_EQ(selected_sums[0], selected_sums[1]);
    }
    snap.results.insert(snap.results.end(), selected_sums.begin(),
                        selected_sums.end());
  }

  const gpu::FrameBuffer& fb = device.framebuffer();
  snap.depth = fb.depth_plane();
  snap.stencil = fb.stencil_plane();
  snap.color.reserve(fb.pixel_count() * 4);
  for (uint64_t i = 0; i < fb.pixel_count(); ++i) {
    const float* rgba = fb.color(i);
    snap.color.insert(snap.color.end(), rgba, rgba + 4);
  }
  snap.counters = device.counters();
  snap.passes = log.records();
  return snap;
}

void ExpectPassLogsEqual(const std::vector<gpu::PassRecord>& serial,
                         const std::vector<gpu::PassRecord>& parallel,
                         const std::string& what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (size_t i = 0; i < serial.size(); ++i) {
    const gpu::PassRecord& a = serial[i];
    const gpu::PassRecord& b = parallel[i];
    EXPECT_EQ(a.label, b.label) << what << " pass " << i;
    EXPECT_EQ(a.fragments, b.fragments) << what << " pass " << i;
    EXPECT_EQ(a.fp_instructions, b.fp_instructions) << what << " pass " << i;
    EXPECT_EQ(a.fragments_passed, b.fragments_passed) << what << " pass " << i;
    EXPECT_EQ(a.depth_writes, b.depth_writes) << what << " pass " << i;
    EXPECT_EQ(a.stencil_updates, b.stencil_updates) << what << " pass " << i;
    EXPECT_EQ(a.in_occlusion_query, b.in_occlusion_query)
        << what << " pass " << i;
    // Planner rewrites are thread-independent: the same passes are fused
    // and the same cache lookups hit no matter the worker count.
    EXPECT_EQ(a.fused, b.fused) << what << " pass " << i;
    EXPECT_EQ(a.cache_hit, b.cache_hit) << what << " pass " << i;
    // gpuprof deep counters ride the same band reduction, so they obey the
    // same bit-stability contract (all-zero on both sides when profiling
    // was off).
    EXPECT_EQ(a.profiled, b.profiled) << what << " pass " << i;
    EXPECT_EQ(a.prof.alpha_killed, b.prof.alpha_killed)
        << what << " pass " << i;
    EXPECT_EQ(a.prof.stencil_killed, b.prof.stencil_killed)
        << what << " pass " << i;
    EXPECT_EQ(a.prof.depth_tested, b.prof.depth_tested)
        << what << " pass " << i;
    EXPECT_EQ(a.prof.depth_killed, b.prof.depth_killed)
        << what << " pass " << i;
    EXPECT_EQ(a.prof.occlusion_samples, b.prof.occlusion_samples)
        << what << " pass " << i;
    EXPECT_EQ(a.prof.plane_bytes_read, b.prof.plane_bytes_read)
        << what << " pass " << i;
    EXPECT_EQ(a.prof.plane_bytes_written, b.prof.plane_bytes_written)
        << what << " pass " << i;
  }
}

void ExpectBitIdentical(const Snapshot& serial, const Snapshot& parallel,
                        const std::string& what) {
  // Results first: a mismatch here is the user-visible wrong answer.
  EXPECT_EQ(serial.results, parallel.results) << what;
  // Framebuffer planes must match exactly, pixel for pixel.
  EXPECT_EQ(serial.depth, parallel.depth) << what;
  EXPECT_EQ(serial.stencil, parallel.stencil) << what;
  EXPECT_EQ(serial.color, parallel.color) << what;
  // Hardware counters, including the fill cycles the cost model prices,
  // and every per-pass record.
  const gpu::DeviceCounters& a = serial.counters;
  const gpu::DeviceCounters& b = parallel.counters;
  EXPECT_EQ(a.passes, b.passes) << what;
  EXPECT_EQ(a.fragments_generated, b.fragments_generated) << what;
  EXPECT_EQ(a.fragments_passed, b.fragments_passed) << what;
  EXPECT_EQ(a.fp_instructions_executed, b.fp_instructions_executed) << what;
  EXPECT_EQ(a.fill_cycles, b.fill_cycles) << what;
  EXPECT_EQ(a.depth_writes, b.depth_writes) << what;
  EXPECT_EQ(a.stencil_updates, b.stencil_updates) << what;
  EXPECT_EQ(a.occlusion_readbacks, b.occlusion_readbacks) << what;
  EXPECT_EQ(a.bytes_uploaded, b.bytes_uploaded) << what;
  EXPECT_EQ(a.bytes_read_back, b.bytes_read_back) << what;
  EXPECT_EQ(a.fused_passes, b.fused_passes) << what;
  EXPECT_EQ(a.plane_cache_hits, b.plane_cache_hits) << what;
  EXPECT_EQ(a.plane_cache_misses, b.plane_cache_misses) << what;
  EXPECT_EQ(a.passes, serial.passes.size()) << what;
  ExpectPassLogsEqual(serial.passes, parallel.passes, what);
}

constexpr int kBitWidth = 16;
constexpr size_t kRecords = 3000;

std::vector<uint32_t> ZipfInts(size_t n) {
  auto table = db::MakeZipfTable(n, uint32_t{1} << kBitWidth, /*theta=*/1.0);
  EXPECT_OK(table.status());
  std::vector<uint32_t> out(n);
  const db::Column& col = table.ValueOrDie().column(0);
  for (size_t i = 0; i < n; ++i) out[i] = col.int_value(i);
  return out;
}

TEST(ParallelDeterminismTest, UniformDataBitIdenticalAcrossThreadCounts) {
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 20260805);
  const Snapshot serial = RunScenario(1, ints, kBitWidth);
  ASSERT_FALSE(serial.results.empty());
  for (int threads : {2, 4, 8}) {
    ExpectBitIdentical(serial, RunScenario(threads, ints, kBitWidth),
                       "uniform, threads=" + std::to_string(threads));
  }
}

// The gpuprof acceptance check: with deep profiling ON, every per-pass
// counter -- kill counts, derived depth tests, plane traffic -- must still
// be bit-identical at 1/2/4/8 threads, and must actually be nonzero (the
// profiled kernels ran, not the cold instantiation).
TEST(ParallelDeterminismTest, ProfiledCountersBitIdenticalAcrossThreadCounts) {
  const bool was_enabled = Profiler::Global().enabled();
  Profiler::Global().set_enabled(true);
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 20260807);
  const Snapshot serial = RunScenario(1, ints, kBitWidth);
  ASSERT_FALSE(serial.results.empty());
  for (int threads : {2, 4, 8}) {
    ExpectBitIdentical(serial, RunScenario(threads, ints, kBitWidth),
                       "profiled, threads=" + std::to_string(threads));
  }
  Profiler::Global().set_enabled(was_enabled);

  // The scenario must have exercised the deep counters for the equality
  // above to mean anything.
  PassProfile total;
  bool any_profiled_pass = false;
  for (const gpu::PassRecord& pass : serial.passes) {
    if (pass.profiled) any_profiled_pass = true;
    total.Merge(pass.prof);
  }
  EXPECT_TRUE(any_profiled_pass);
  EXPECT_GT(total.alpha_killed, 0u);
  EXPECT_GT(total.stencil_killed, 0u);
  EXPECT_GT(total.depth_tested, 0u);
  EXPECT_GT(total.depth_killed, 0u);
  EXPECT_GT(total.occlusion_samples, 0u);
  EXPECT_GT(total.plane_bytes_read, 0u);
  EXPECT_GT(total.plane_bytes_written, 0u);
}

// Accumulate is one bit sweep (Device::CountBitPasses) at every thread
// count: its bit_width passes are all recorded, but the pixel engines run
// once, so a profiled call adds one set of band timings -- one gpu.band_ms
// sample per band -- where bit_width lone passes would add bit_width sets.
TEST(ParallelDeterminismTest, AccumulateSweepsOnceAtEveryThreadCount) {
  const bool was_enabled = Profiler::Global().enabled();
  Profiler::Global().set_enabled(true);
  MetricHistogram& band_ms = MetricsRegistry::Global().histogram("gpu.band_ms");
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 20260809);
  uint64_t want = 0;
  for (const uint32_t v : ints) want += v;
  for (int threads : {1, 2, 4, 8}) {
    gpu::Device device(100, 100);
    ASSERT_OK(device.SetWorkerThreads(threads));
    AttributeBinding attr = UploadIntAttribute(&device, ints);
    gpu::PassLogScope log(&device);
    const uint64_t before = band_ms.count();
    auto sum = Accumulate(&device, attr.texture, attr.channel, kBitWidth);
    ASSERT_OK(sum.status());
    EXPECT_EQ(sum.ValueOrDie(), want);
    EXPECT_EQ(log.records().size(), static_cast<size_t>(kBitWidth));
    // 3000 records on a 100-wide screen are 30 rows: a band per thread.
    EXPECT_EQ(band_ms.count() - before, static_cast<uint64_t>(threads))
        << "threads=" << threads;
  }
  Profiler::Global().set_enabled(was_enabled);
}

/// Fused/cached scenario: the planner-rewritten selections (DESIGN.md §14)
/// run the same CNF twice -- once fused, then twice through the depth-plane
/// cache (miss, then hit) -- so the sweep covers fused compare passes, the
/// chain collapse, and both cache paths including the synthetic
/// plane-snapshot/plane-restore passes.
Snapshot RunPlannedScenario(int threads, const std::vector<uint32_t>& ints) {
  Snapshot snap;
  gpu::Device device(100, 100);
  EXPECT_OK(device.SetWorkerThreads(threads));
  gpu::PassLogScope log(&device);
  AttributeBinding attr = UploadIntAttribute(&device, ints);
  attr.column = 0;
  const auto domain = static_cast<double>(uint64_t{1} << kBitWidth);

  const std::vector<GpuClause> clauses = {
      {GpuPredicate::DepthCompare(attr, CompareOp::kGreater, domain * 0.2)},
      {GpuPredicate::DepthCompare(attr, CompareOp::kLess, domain * 0.9)},
  };

  // Fused chain with the count carried by the final pass.
  SelectionExecOptions fused;
  fused.plan = PlanSelectionPasses(clauses, NormalForm::kCnf,
                                   /*cache_enabled=*/false);
  auto sel = EvalCnf(&device, clauses, &fused);
  EXPECT_OK(sel.status());
  if (sel.ok()) {
    snap.results.push_back(sel.ValueOrDie().count);
    snap.results.push_back(sel.ValueOrDie().valid_value);
  }
  snap.results.push_back(static_cast<uint64_t>(fused.fused_passes));

  // Cached: cold (snapshot) then warm (restore).
  for (int round = 0; round < 2; ++round) {
    SelectionExecOptions cached;
    cached.plan = PlanSelectionPasses(clauses, NormalForm::kCnf,
                                      /*cache_enabled=*/true);
    cached.use_cache = true;
    cached.table = "sweep";
    auto cs = EvalCnf(&device, clauses, &cached);
    EXPECT_OK(cs.status());
    if (cs.ok()) snap.results.push_back(cs.ValueOrDie().count);
    snap.results.push_back(static_cast<uint64_t>(cached.cache_hits));
    snap.results.push_back(static_cast<uint64_t>(cached.cache_misses));
  }

  const gpu::FrameBuffer& fb = device.framebuffer();
  snap.depth = fb.depth_plane();
  snap.stencil = fb.stencil_plane();
  snap.counters = device.counters();
  snap.passes = log.records();
  return snap;
}

TEST(ParallelDeterminismTest, FusedAndCachedPlansBitIdenticalAcrossThreads) {
  const std::vector<uint32_t> ints = RandomInts(kRecords, kBitWidth, 20260808);
  const Snapshot serial = RunPlannedScenario(1, ints);
  ASSERT_FALSE(serial.results.empty());
  // The scenario must actually exercise the rewrites for the sweep to
  // prove anything.
  EXPECT_GT(serial.counters.fused_passes, 0u);
  // Both predicates bind the same column, so only the very first lookup
  // misses; the cold round's second predicate and the whole warm round hit.
  EXPECT_EQ(serial.counters.plane_cache_misses, 1u);
  EXPECT_EQ(serial.counters.plane_cache_hits, 3u);
  for (int threads : {2, 4, 8}) {
    ExpectBitIdentical(serial, RunPlannedScenario(threads, ints),
                       "planned, threads=" + std::to_string(threads));
  }
}

/// Attribute-attribute scenario: a CNF chain whose clauses mix `a < b`
/// and `b >= a` (Semilinear passes over a two-channel texture) with depth
/// compares on `a`, then the wide program over both textures with color
/// writes on, so the survivors' dot products land in the color plane.
Snapshot RunAttrCompareScenario(int threads, const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  Snapshot snap;
  gpu::Device device(100, 100);
  EXPECT_OK(device.SetWorkerThreads(threads));
  gpu::PassLogScope log(&device);
  AttributeBinding attr = UploadIntAttribute(&device, a);
  const std::vector<float> fa = testing_util::ToFloats(a);
  const std::vector<float> fb = testing_util::ToFloats(b);
  auto tex = gpu::Texture::FromColumns({&fa, &fb}, 100);
  EXPECT_OK(tex.status());
  auto pair = device.UploadTexture(std::move(tex).ValueOrDie());
  EXPECT_OK(pair.status());
  const auto domain = static_cast<double>(uint64_t{1} << kBitWidth);

  const std::vector<GpuClause> clauses = {
      {GpuPredicate::Semilinear(
           pair.ValueOrDie(),
           SemilinearQuery::AttrCompare(0, CompareOp::kLess, 1)),
       GpuPredicate::DepthCompare(attr, CompareOp::kGreater, domain * 0.8)},
      {GpuPredicate::DepthCompare(attr, CompareOp::kNotEqual, 0.0)},
      {GpuPredicate::Semilinear(
          pair.ValueOrDie(),
          SemilinearQuery::AttrCompare(1, CompareOp::kGreaterEqual, 0))},
  };
  auto cnf = EvalCnf(&device, clauses);
  EXPECT_OK(cnf.status());
  if (cnf.ok()) {
    snap.results.push_back(cnf.ValueOrDie().count);
    snap.results.push_back(cnf.ValueOrDie().valid_value);
  }

  device.SetColorWriteMask(true);
  auto wide = SemilinearSelectWide(
      &device, pair.ValueOrDie(), attr.texture,
      {1.0f, -0.5f, 0, 0, 0.25f, 0, 0, 0}, CompareOp::kGreater, 0.0f);
  EXPECT_OK(wide.status());
  if (wide.ok()) snap.results.push_back(wide.ValueOrDie());

  const gpu::FrameBuffer& fbuf = device.framebuffer();
  snap.depth = fbuf.depth_plane();
  snap.stencil = fbuf.stencil_plane();
  snap.color.reserve(fbuf.pixel_count() * 4);
  for (uint64_t i = 0; i < fbuf.pixel_count(); ++i) {
    const float* rgba = fbuf.color(i);
    snap.color.insert(snap.color.end(), rgba, rgba + 4);
  }
  snap.counters = device.counters();
  snap.passes = log.records();
  return snap;
}

TEST(ParallelDeterminismTest, AttrCompareChainBitIdenticalAcrossThreads) {
  const std::vector<uint32_t> a = RandomInts(kRecords, kBitWidth, 20261020);
  const std::vector<uint32_t> b = RandomInts(kRecords, kBitWidth, 20261021);
  const Snapshot serial = RunAttrCompareScenario(1, a, b);
  ASSERT_EQ(serial.results.size(), 3u);
  const auto semilinear_passes = std::count_if(
      serial.passes.begin(), serial.passes.end(),
      [](const gpu::PassRecord& p) { return p.label == "SemilinearFP"; });
  EXPECT_EQ(semilinear_passes, 2);
  for (int threads : {2, 4, 8}) {
    ExpectBitIdentical(serial, RunAttrCompareScenario(threads, a, b),
                       "attr compare, threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, ZipfDataBitIdenticalAcrossThreadCounts) {
  const std::vector<uint32_t> ints = ZipfInts(kRecords);
  const Snapshot serial = RunScenario(1, ints, kBitWidth);
  ASSERT_FALSE(serial.results.empty());
  for (int threads : {2, 4, 8}) {
    ExpectBitIdentical(serial, RunScenario(threads, ints, kBitWidth),
                       "zipf, threads=" + std::to_string(threads));
  }
}

// The band split must also be exact when the viewport is smaller than one
// row, leaves a partial final row, or has fewer rows than workers.
TEST(ParallelDeterminismTest, AwkwardViewportSizes) {
  for (const size_t n : {size_t{1}, size_t{99}, size_t{100}, size_t{101},
                         size_t{250}, size_t{2501}}) {
    const std::vector<uint32_t> ints = RandomInts(n, 12, 7 + n);
    const Snapshot serial = RunScenario(1, ints, 12);
    ExpectBitIdentical(serial, RunScenario(8, ints, 12),
                       "n=" + std::to_string(n));
  }
}

// A deadline so small it has already expired when the dispatch starts must
// fail with kDeadlineExceeded at every thread count, and with the same
// status every time: the interrupt check runs before the dispatch and at
// pass entry on the issuing thread, before any band is dispatched, so worker
// threads can never observe (or race on) the expiry.
TEST(ParallelDeterminismTest, ExpiredDeadlineIsDeterministicAcrossThreads) {
  auto table_or = db::MakeTcpIpTable(2000, /*seed=*/21);
  ASSERT_OK(table_or.status());
  const db::Table table = std::move(table_or).ValueOrDie();
  const predicate::ExprPtr where =
      predicate::Expr::Pred(0, CompareOp::kGreater, 5000.0f);

  std::string first_status;
  for (int threads : {1, 2, 4, 8}) {
    gpu::Device device(100, 100);
    ASSERT_OK(device.SetWorkerThreads(threads));
    const std::unique_ptr<gpu::DevicePool> pool =
        gpu::DevicePool::Borrow(&device);
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<PoolExecutor> executor,
                         PoolExecutor::Make(pool.get(), &table));
    ResilienceOptions options;
    options.deadline_ms = 1e-7;  // expired before the first pass begins
    executor->set_resilience_options(options);

    auto result = executor->Count(where);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << "threads=" << threads << ": " << result.status().ToString();
    if (first_status.empty()) {
      first_status = result.status().ToString();
    } else {
      EXPECT_EQ(result.status().ToString(), first_status)
          << "threads=" << threads;
    }

    // The statement's deadline never outlives its dispatch: with the
    // deadline lifted the same executor answers normally.
    EXPECT_FALSE(device.deadline_armed());
    executor->set_resilience_options(ResilienceOptions{});
    ASSERT_OK_AND_ASSIGN(uint64_t count, executor->Count(where));
    EXPECT_GT(count, 0u);
  }
}

// The same guarantee at the routine level, driving the device directly.
TEST(ParallelDeterminismTest, ArmedDeviceDeadlineFailsRoutinesCleanly) {
  const std::vector<uint32_t> ints = RandomInts(500, 12, 99);
  for (int threads : {1, 4}) {
    gpu::Device device(100, 100);
    ASSERT_OK(device.SetWorkerThreads(threads));
    AttributeBinding attr = UploadIntAttribute(&device, ints);

    device.ArmDeadlineAt(std::chrono::steady_clock::now());  // expired
    auto select = CompareSelect(&device, attr, CompareOp::kGreater, 100.0);
    ASSERT_FALSE(select.ok()) << "threads=" << threads;
    EXPECT_TRUE(select.status().IsDeadlineExceeded())
        << select.status().ToString();

    device.DisarmDeadline();
    EXPECT_OK(CompareSelect(&device, attr, CompareOp::kGreater, 100.0)
                  .status());
  }
}

}  // namespace
}  // namespace core
}  // namespace gpudb
