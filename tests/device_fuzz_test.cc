// State-machine fuzz: drive the Device through long random sequences of API
// calls (valid and invalid) and check that it never crashes, that errors are
// Status values rather than corruption, and that the hardware counters stay
// internally consistent. The simulator is the foundation of every result in
// this repository; this test pins its robustness under arbitrary use.

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/query_log.h"
#include "src/common/random.h"
#include "src/core/executor.h"
#include "src/core/pool_executor.h"
#include "src/core/resilience.h"
#include "src/cpu/scan.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "src/gpu/device_pool.h"
#include "src/gpu/fault_injector.h"
#include "src/gpu/fragment_program.h"
#include "src/sql/admission.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace gpudb {
namespace gpu {
namespace {

class DeviceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeviceFuzz, RandomApiSequencesNeverCorruptState) {
  Random rng(GetParam());
  Device dev(32, 32);
  std::vector<TextureId> ids;
  const TestBitProgram test_bit(0, 2);
  const SemilinearProgram semilinear({1, 0, 0, 0}, CompareOp::kGreater, 8.0f);
  bool query_open = false;
  PassLogScope log(&dev);

  for (int step = 0; step < 400; ++step) {
    switch (rng.NextUint64(16)) {
      case 0: {  // upload a random texture
        const size_t n = 1 + rng.NextUint64(1024);
        std::vector<float> vals(n);
        for (auto& v : vals) {
          v = static_cast<float>(rng.NextUint64(256));
        }
        auto tex = Texture::FromColumns({&vals}, 32);
        ASSERT_TRUE(tex.ok());
        auto id = dev.UploadTexture(std::move(tex).ValueOrDie());
        if (id.ok()) ids.push_back(id.ValueOrDie());
        break;
      }
      case 1: {  // bind something (possibly invalid)
        const int unit = static_cast<int>(rng.NextUint64(6)) - 1;
        const TextureId id =
            ids.empty() ? static_cast<TextureId>(rng.NextUint64(4))
                        : ids[rng.NextUint64(ids.size())];
        (void)dev.BindTextureUnit(unit, id);  // may legitimately fail
        break;
      }
      case 2:
        (void)dev.SetViewport(rng.NextUint64(1200));  // may exceed fb
        break;
      case 3:
        dev.SetDepthTest(rng.NextUint64(2) == 0,
                         static_cast<CompareOp>(rng.NextUint64(8)));
        break;
      case 4:
        dev.SetStencilTest(rng.NextUint64(2) == 0,
                           static_cast<CompareOp>(rng.NextUint64(8)),
                           static_cast<uint8_t>(rng.NextUint64(256)),
                           static_cast<uint8_t>(rng.NextUint64(256)));
        dev.SetStencilOp(static_cast<StencilOp>(rng.NextUint64(6)),
                         static_cast<StencilOp>(rng.NextUint64(6)),
                         static_cast<StencilOp>(rng.NextUint64(6)));
        break;
      case 5:
        dev.SetAlphaTest(rng.NextUint64(2) == 0,
                         static_cast<CompareOp>(rng.NextUint64(8)),
                         static_cast<float>(rng.NextDouble()));
        break;
      case 6:
        dev.SetDepthBoundsTest(rng.NextUint64(2) == 0,
                               static_cast<float>(rng.NextDouble()),
                               static_cast<float>(rng.NextDouble()));
        break;
      case 7:
        dev.ClearDepth(static_cast<float>(rng.NextDouble()));
        dev.ClearStencil(static_cast<uint8_t>(rng.NextUint64(256)));
        break;
      case 8:
        (void)dev.RenderQuad(static_cast<float>(rng.NextDouble()));
        break;
      case 9: {
        // Randomly install a program (or none) and draw textured.
        const uint64_t pick = rng.NextUint64(3);
        dev.UseProgram(pick == 0   ? &test_bit
                       : pick == 1 ? static_cast<const FragmentProgram*>(
                                         &semilinear)
                                   : nullptr);
        (void)dev.RenderTexturedQuad();  // may fail: unbound / small texture
        dev.UseProgram(nullptr);
        break;
      }
      case 10:
        if (!query_open) {
          query_open = dev.BeginOcclusionQuery().ok();
        }
        break;
      case 11:
        if (query_open) {
          auto r = dev.EndOcclusionQuery();
          ASSERT_TRUE(r.ok());
          query_open = false;
        } else {
          ASSERT_FALSE(dev.EndOcclusionQuery().ok());
        }
        break;
      case 12:
        (void)dev.ReadStencil();
        break;
      case 13:
        if (!ids.empty()) {
          (void)dev.CopyColorToTexture(ids[rng.NextUint64(ids.size())]);
        }
        break;
      case 14:
        if (!ids.empty()) {
          std::vector<float> patch(1 + rng.NextUint64(64), 3.0f);
          (void)dev.UpdateTexture(ids[rng.NextUint64(ids.size())],
                                  rng.NextUint64(1200), patch, 0);
        }
        break;
      case 15:
        (void)dev.SetVideoMemoryBudget(512 + rng.NextUint64(16384));
        break;
    }

    // Invariants after every step.
    const DeviceCounters& c = dev.counters();
    ASSERT_GE(c.fragments_generated, c.fragments_passed);
    ASSERT_EQ(c.passes, log.records().size());
    ASSERT_GE(c.fill_cycles, c.fragments_generated);
    ASSERT_LE(dev.video_memory_used(), dev.video_memory_budget());
    ASSERT_GE(dev.viewport_pixels(), 1u);
    ASSERT_LE(dev.viewport_pixels(), dev.framebuffer().pixel_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Fault sweep: run a fixed battery of executor queries against a
// fault-injected device across many seeds and every supported thread count.
// The battery runs on a one-shard PoolExecutor over the device, a pool of
// one, so every query walks the one degradation ladder. The contract under
// injected faults is strict:
//   * a query either returns EXACTLY the healthy-path answer (after
//     retry / quarantine / CPU fallback) or a clean non-OK Status --
//     never a crash, never a silently wrong answer;
//   * the same seed produces bit-identical outcomes at 1/2/4/8 worker
//     threads, because every injector draw happens on the issuing thread.
// ---------------------------------------------------------------------------

const db::Table& SweepTable() {
  static const db::Table* table = [] {
    auto t = db::MakeTcpIpTable(1000, /*seed=*/5);
    EXPECT_TRUE(t.ok());
    return new db::Table(std::move(t).ValueOrDie());
  }();
  return *table;
}

/// Runs the query battery and flattens each outcome to a string: the exact
/// value when OK, the full Status (code + message) when not.
std::vector<std::string> RunBattery(Device* dev, bool allow_fallback) {
  std::vector<std::string> out;
  const std::unique_ptr<DevicePool> pool = DevicePool::Borrow(dev);
  auto exec_or = core::PoolExecutor::Make(pool.get(), &SweepTable());
  if (!exec_or.ok()) {
    out.push_back("make:" + exec_or.status().ToString());
    return out;
  }
  std::unique_ptr<core::PoolExecutor> exec = std::move(exec_or).ValueOrDie();
  core::ResilienceOptions options;
  options.allow_cpu_fallback = allow_fallback;
  exec->set_resilience_options(options);
  const predicate::ExprPtr where =
      predicate::Expr::Pred(0, CompareOp::kGreater, 5000.0f);

  auto count = exec->Count(where);
  out.push_back(count.ok() ? "count:ok:" + std::to_string(count.ValueOrDie())
                           : "count:" + count.status().ToString());
  auto sum =
      exec->Aggregate(core::AggregateKind::kSum, "data_count", where);
  out.push_back(sum.ok() ? "sum:ok:" + std::to_string(sum.ValueOrDie())
                         : "sum:" + sum.status().ToString());
  auto kth = exec->KthLargest("data_count", 10, where);
  out.push_back(kth.ok() ? "kth:ok:" + std::to_string(kth.ValueOrDie())
                         : "kth:" + kth.status().ToString());
  auto range = exec->Count(predicate::Expr::And(
      predicate::Expr::Pred(0, CompareOp::kGreaterEqual, 100.0f),
      predicate::Expr::Pred(0, CompareOp::kLessEqual, 60000.0f)));
  out.push_back(range.ok() ? "range:ok:" + std::to_string(range.ValueOrDie())
                           : "range:" + range.status().ToString());
  return out;
}

std::vector<std::string> RunSweepConfig(uint64_t seed, double rate,
                                        int threads, bool allow_fallback) {
  Device dev(64, 64);
  EXPECT_TRUE(dev.SetWorkerThreads(threads).ok());
  dev.ConfigureFaults({seed, rate});
  return RunBattery(&dev, allow_fallback);
}

TEST(FaultSweep, QueriesDegradeCleanlyAndDeterministicallyAcrossSeeds) {
  // Healthy reference: what every OK outcome must equal, bit for bit.
  std::vector<std::string> reference;
  {
    Device healthy(64, 64);
    reference = RunBattery(&healthy, /*allow_fallback=*/true);
    for (const std::string& r : reference) {
      ASSERT_NE(r.find(":ok:"), std::string::npos) << r;
    }
  }

  for (uint64_t seed = 1; seed <= 64; ++seed) {
    // Sweep a spread of fault rates: occasional glitches through to a device
    // that faults on most draws.
    const double rate = 0.02 * static_cast<double>(1 + seed % 5);

    // With the full degradation ladder enabled every query must come back
    // with the healthy answer: transient faults retry, persistent faults
    // fall back to the CPU tier which matches the GPU bit for bit.
    const std::vector<std::string> resilient =
        RunSweepConfig(seed, rate, /*threads=*/1, /*allow_fallback=*/true);
    EXPECT_EQ(resilient, reference) << "seed " << seed;

    // Without the CPU tier, a query either matches the healthy answer or
    // fails with a clean Status -- never a silently wrong answer.
    const std::vector<std::string> raw =
        RunSweepConfig(seed, rate, /*threads=*/1, /*allow_fallback=*/false);
    ASSERT_EQ(raw.size(), reference.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].find(":ok:") != std::string::npos) {
        EXPECT_EQ(raw[i], reference[i]) << "seed " << seed;
      }
    }

    // Same seed => identical outcome at every thread count, in both modes.
    // (Thread-count independence: every injector draw and interrupt check
    // happens on the thread issuing the pass, never inside worker bands.)
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(RunSweepConfig(seed, rate, threads, true), resilient)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(RunSweepConfig(seed, rate, threads, false), raw)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault sweep over the planner rewrites (DESIGN.md §14): fused chains and
// the depth-plane cache must obey the same contract as the classic pass
// sequences -- the healthy answer under the full ladder, at any thread
// count, whether the cache is on or off. The warm (cache-hit) path is
// covered by running each count twice.
// ---------------------------------------------------------------------------

std::vector<std::string> RunPlannedConfig(uint64_t seed, double rate,
                                          int threads,
                                          const core::PlanOptions& plan) {
  Device dev(64, 64);
  EXPECT_TRUE(dev.SetWorkerThreads(threads).ok());
  dev.ConfigureFaults({seed, rate});
  std::vector<std::string> out;
  const std::unique_ptr<DevicePool> pool = DevicePool::Borrow(&dev);
  auto exec_or = core::PoolExecutor::Make(pool.get(), &SweepTable());
  auto gpu_or = exec_or.ok() ? exec_or.ValueOrDie()->ShardExecutorFor(0, 0)
                             : Result<core::Executor*>(exec_or.status());
  if (!gpu_or.ok()) {
    out.push_back("make:" + gpu_or.status().ToString());
    return out;
  }
  std::unique_ptr<core::PoolExecutor> exec = std::move(exec_or).ValueOrDie();
  core::ResilienceOptions options;
  options.allow_cpu_fallback = true;
  exec->set_resilience_options(options);
  gpu_or.ValueOrDie()->set_plan_options(plan);
  gpu_or.ValueOrDie()->SetTableIdentity("sweep");
  const predicate::ExprPtr where =
      predicate::Expr::Pred(0, CompareOp::kGreater, 5000.0f);

  // Twice: the second round takes the cache-hit path when the cache is on.
  for (int round = 0; round < 2; ++round) {
    auto count = exec->Count(where);
    out.push_back(count.ok()
                      ? "count:ok:" + std::to_string(count.ValueOrDie())
                      : "count:" + count.status().ToString());
  }
  return out;
}

TEST(FaultSweep, PlannerRewritesMatchClassicPlansUnderFaults) {
  // Healthy reference: the fault-free count, checked against the CPU scan.
  std::vector<uint8_t> mask;
  const uint64_t want = cpu::PredicateScan(SweepTable().column(0).values(),
                                           CompareOp::kGreater, 5000.0f, &mask);
  const std::vector<std::string> reference =
      RunPlannedConfig(/*seed=*/0, /*rate=*/0.0, /*threads=*/1,
                       core::PlanOptions{});
  ASSERT_EQ(reference, std::vector<std::string>(
                           2, "count:ok:" + std::to_string(want)));

  std::vector<core::PlanOptions> configs(2);
  configs[1].plane_cache = true;

  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const double rate = 0.02 * static_cast<double>(1 + seed % 5);
    for (const core::PlanOptions& plan : configs) {
      // With the full degradation ladder, every configuration must come
      // back with the healthy answer.
      const std::vector<std::string> serial =
          RunPlannedConfig(seed, rate, /*threads=*/1, plan);
      EXPECT_EQ(serial, reference)
          << "seed " << seed << " cache=" << plan.plane_cache;
      for (int threads : {4, 8}) {
        EXPECT_EQ(RunPlannedConfig(seed, rate, threads, plan), serial)
            << "seed " << seed << " threads " << threads
            << " cache=" << plan.plane_cache;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Accumulate's bit sweep (Device::CountBitPasses) under faults and
// deadlines: wherever an injected fault or an expired deadline stops it,
// the sweep leaves what the Begin/Render/End pass loop it replaced leaves
// -- the same Status, the same recorded passes, the same counters, the
// same number of injector draws and the same open occlusion query.
// ---------------------------------------------------------------------------

struct BitPassOutcome {
  std::string status;
  std::vector<uint64_t> counts;
  std::vector<PassRecord> passes;
  DeviceCounters counters;
  uint64_t draws = 0;
  bool query_left_open = false;
};

/// Accumulate's pass loop as it stood before the sweep: a deadline check,
/// then one occlusion-counted TestBit pass per bit.
Status ReferenceBitPasses(Device* dev, int bits, bool kill,
                          std::vector<uint64_t>* counts) {
  for (int b = 0; b < bits; ++b) {
    GPUDB_RETURN_NOT_OK(dev->CheckInterrupt());
    const TestBitProgram bit_program(0, b);
    const TestBitKillProgram kill_program(0, b);
    dev->UseProgram(kill ? static_cast<const FragmentProgram*>(&kill_program)
                         : &bit_program);
    GPUDB_RETURN_NOT_OK(dev->BeginOcclusionQuery());
    GPUDB_RETURN_NOT_OK(dev->RenderTexturedQuad());
    GPUDB_ASSIGN_OR_RETURN(uint64_t count, dev->EndOcclusionQuery());
    counts->push_back(count);
    dev->UseProgram(nullptr);
  }
  return Status::OK();
}

constexpr int kSumBits = 19;

BitPassOutcome RunBitPasses(uint64_t seed, double rate, int threads,
                            bool kill, bool profile, bool expired_deadline,
                            bool sweep) {
  BitPassOutcome out;
  Device dev(64, 64);
  EXPECT_TRUE(dev.SetWorkerThreads(threads).ok());
  Random rng(seed);
  std::vector<float> values(3000);
  for (float& v : values) {
    v = static_cast<float>(rng.NextUint64(uint64_t{1} << kSumBits));
  }
  auto tex = Texture::FromColumns({&values}, 64);
  EXPECT_TRUE(tex.ok());
  auto id = dev.UploadTexture(std::move(tex).ValueOrDie());
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(dev.BindTexture(id.ValueOrDie()).ok());
  EXPECT_TRUE(dev.SetViewport(values.size()).ok());
  for (uint64_t i = 0; i < values.size(); ++i) {
    dev.framebuffer().set_stencil(i, static_cast<uint8_t>(rng.NextUint64(2)));
  }
  // Accumulate's state over a selection.
  dev.SetDepthTest(false, CompareOp::kAlways);
  dev.SetColorWriteMask(false);
  dev.SetAlphaTest(!kill, CompareOp::kGreaterEqual, 0.5f);
  dev.SetStencilTest(true, CompareOp::kEqual, 1);
  dev.SetStencilOp(StencilOp::kKeep, StencilOp::kKeep, StencilOp::kKeep);
  dev.ConfigureFaults({seed, rate});
  if (expired_deadline) dev.ArmDeadlineAt(std::chrono::steady_clock::now());

  PassLogScope log(&dev, profile);
  Status status;
  if (sweep) {
    auto counts = dev.CountBitPasses(0, kSumBits, kill);
    status = counts.status();
    if (counts.ok()) out.counts = counts.ValueOrDie();
  } else {
    status = ReferenceBitPasses(&dev, kSumBits, kill, &out.counts);
    dev.UseProgram(nullptr);
    if (!status.ok()) out.counts.clear();
  }
  out.status = status.ToString();
  out.passes = log.records();
  out.counters = dev.counters();
  out.draws = dev.fault_injector().draws();
  dev.DisarmDeadline();
  out.query_left_open = !dev.BeginOcclusionQuery().ok();
  return out;
}

void ExpectSameBitPassOutcome(const BitPassOutcome& sweep,
                              const BitPassOutcome& ref,
                              const std::string& what) {
  EXPECT_EQ(sweep.status, ref.status) << what;
  EXPECT_EQ(sweep.counts, ref.counts) << what;
  EXPECT_EQ(sweep.draws, ref.draws) << what;
  EXPECT_EQ(sweep.query_left_open, ref.query_left_open) << what;
  bool same_counters = true;
  DeviceCounters counters = sweep.counters;
  counters.ZipWith(ref.counters, [&](uint64_t& mine, uint64_t theirs) {
    same_counters = same_counters && mine == theirs;
  });
  EXPECT_TRUE(same_counters) << what;
  ASSERT_EQ(sweep.passes.size(), ref.passes.size()) << what;
  for (size_t i = 0; i < sweep.passes.size(); ++i) {
    const PassRecord& a = sweep.passes[i];
    const PassRecord& b = ref.passes[i];
    const std::string at = what + " pass " + std::to_string(i);
    EXPECT_EQ(a.label, b.label) << at;
    EXPECT_EQ(a.fragments, b.fragments) << at;
    EXPECT_EQ(a.fp_instructions, b.fp_instructions) << at;
    EXPECT_EQ(a.fragments_passed, b.fragments_passed) << at;
    EXPECT_EQ(a.in_occlusion_query, b.in_occlusion_query) << at;
    EXPECT_EQ(a.profiled, b.profiled) << at;
    EXPECT_EQ(a.prof, b.prof) << at;
  }
}

TEST(FaultSweep, BitSweepFailsWhereThePassLoopFails) {
  int pass_faults = 0;
  int readback_faults = 0;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    const double rate = 0.01 * static_cast<double>(1 + seed % 4);
    const bool kill = seed % 3 == 0;
    const bool profile = seed % 2 == 0;
    const BitPassOutcome ref =
        RunBitPasses(seed, rate, 1, kill, profile, false, /*sweep=*/false);
    for (int threads : {1, 4}) {
      ExpectSameBitPassOutcome(
          RunBitPasses(seed, rate, threads, kill, profile, false, true), ref,
          "seed " + std::to_string(seed) + " threads " +
              std::to_string(threads));
    }
    // Count the faults that stopped the loop part-way, after some passes.
    if (!ref.passes.empty() && ref.passes.size() < kSumBits) {
      if (ref.status.find("watchdog") != std::string::npos) ++pass_faults;
      if (ref.status.find("occlusion") != std::string::npos) {
        ++readback_faults;
      }
    }
  }
  // The sweep must have been stopped mid-Accumulate at both fault sites.
  EXPECT_GT(pass_faults, 0);
  EXPECT_GT(readback_faults, 0);
}

TEST(FaultSweep, BitSweepHonoursAnExpiredDeadlineLikeThePassLoop) {
  for (const bool kill : {false, true}) {
    const BitPassOutcome ref = RunBitPasses(7, 0.0, 1, kill, false, true,
                                            /*sweep=*/false);
    EXPECT_NE(ref.status.find("Deadline"), std::string::npos) << ref.status;
    EXPECT_TRUE(ref.passes.empty());
    for (int threads : {1, 4}) {
      ExpectSameBitPassOutcome(
          RunBitPasses(7, 0.0, threads, kill, false, true, true), ref,
          "kill " + std::to_string(kill) + " threads " +
              std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Pool soak (DESIGN.md §15): 16 concurrent sessions over one shared catalog,
// device pool, and admission controller, sweeping 64 fault seeds split
// across the sessions while a chaos thread hot-unplugs and revives a device.
// The contract is the fault-sweep contract lifted to the multi-device tier:
// every statement must return EXACTLY the healthy single-device answer --
// injected faults are absorbed by replica failover and the CPU rung, so a
// surfaced error or a divergent answer is a bug, not bad luck.
// ---------------------------------------------------------------------------

std::vector<std::string> SoakStatements(uint64_t seed) {
  const uint64_t t = 1000 * (seed % 40);
  const uint64_t f = 10000 * (1 + seed % 20);
  return {
      "SELECT COUNT(*) FROM sweep WHERE data_count > " + std::to_string(t),
      "SELECT SUM(data_count) FROM sweep WHERE flow_rate < " +
          std::to_string(f),
      "SELECT MAX(flow_rate) FROM sweep WHERE data_count > " +
          std::to_string(t),
      "SELECT * FROM sweep WHERE data_count > " + std::to_string(t + 60000) +
          " LIMIT 5",
  };
}

std::string FlattenResult(const Result<sql::QueryResult>& result) {
  if (!result.ok()) return "error:" + result.status().ToString();
  const sql::QueryResult& r = result.ValueOrDie();
  std::string out = "ok:" + std::to_string(r.count) + ":" +
                    std::to_string(r.scalar) + ":rows";
  for (const uint32_t id : r.row_ids) out += "," + std::to_string(id);
  return out;
}

TEST(PoolSoak, SixteenSessionsSixtyFourSeedsZeroWrongAnswers) {
  const db::Table& table = SweepTable();
  constexpr int kSessions = 16;
  constexpr uint64_t kSeeds = 64;

  // Healthy single-device reference, computed serially up front.
  std::map<uint64_t, std::vector<std::string>> reference;
  {
    db::Catalog catalog;
    ASSERT_OK(catalog.Register("sweep", &table));
    Device device(64, 64);
    sql::Session session(&device, &catalog);
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      for (const std::string& sql : SoakStatements(seed)) {
        const std::string flat = FlattenResult(session.Execute(sql));
        ASSERT_EQ(flat.rfind("ok:", 0), 0u) << sql << " -> " << flat;
        reference[seed].push_back(flat);
      }
    }
  }

  // Shared multi-session tier: one catalog, one fault-injected pool, one
  // admission controller.
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("sweep", &table));
  DevicePoolOptions pool_options;
  pool_options.devices = 4;
  pool_options.width = 64;
  pool_options.height = 64;
  pool_options.faults = {/*seed=*/20260805, /*rate=*/0.05};
  ASSERT_OK_AND_ASSIGN(auto pool, DevicePool::Make(pool_options));
  sql::AdmissionOptions admission_options;
  admission_options.max_concurrent = 8;
  admission_options.queue_capacity = kSessions;
  admission_options.max_queue_wait_ms = 60000.0;  // soak must not shed
  sql::AdmissionController admission(admission_options);

  // Attribution baseline: the soak's 256 statements exactly fill the query
  // log ring once the reference run's entries are cleared.
  QueryLog::Global().Clear();
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t retries_before =
      registry.counter("queries.retry_attempts").value();
  const uint64_t fell_back_before =
      registry.counter("queries.fell_back").value();
  const uint64_t injected_before =
      registry.counter("faults.injected").value();

  std::vector<std::vector<std::string>> failures(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      // Each session owns its classic device (unused: every soak statement
      // is poolable) and shares the pool, catalog, and admission tier.
      Device session_device(64, 64);
      sql::Session session(&session_device, &catalog);
      session.SetDevicePool(pool.get());
      session.set_admission(&admission);
      session.set_tenant("soak-" + std::to_string(s));
      for (uint64_t seed = 1 + s; seed <= kSeeds; seed += kSessions) {
        const std::vector<std::string>& want = reference[seed];
        const std::vector<std::string> statements = SoakStatements(seed);
        for (size_t i = 0; i < statements.size(); ++i) {
          const std::string got = FlattenResult(session.Execute(statements[i]));
          if (got != want[i]) {
            failures[s].push_back("seed " + std::to_string(seed) + " [" +
                                  statements[i] + "] got " + got +
                                  " want " + want[i]);
          }
        }
      }
    });
  }
  // Chaos: hot-unplug one device mid-soak, then bring it back. Failover and
  // probe recovery must keep every in-flight answer exact.
  pool->ForceDeviceLost(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool->Revive(1);
  for (std::thread& t : threads) t.join();

  for (int s = 0; s < kSessions; ++s) {
    for (const std::string& failure : failures[s]) {
      ADD_FAILURE() << "session " << s << ": " << failure;
    }
  }

  // Per-statement attribution: each entry counts only its own executors'
  // retries and fallbacks, so the entries add up to the process-wide
  // counters exactly. A statement that read a global counter delta would
  // also pick up the other 15 sessions' events and overshoot.
  const std::vector<QueryLogEntry> entries = QueryLog::Global().Entries();
  ASSERT_EQ(QueryLog::Global().total_recorded(), entries.size())
      << "query log ring overflowed; attribution check needs every entry";
  uint64_t entry_retries = 0;
  uint64_t entries_fell_back = 0;
  for (const QueryLogEntry& entry : entries) {
    entry_retries += entry.retries;
    if (entry.fell_back) ++entries_fell_back;
    // Pooled entries carry their shard dispatches' device work.
    if (entry.ok) {
      EXPECT_TRUE(entry.passes > 0 || entry.fell_back) << entry.sql;
    }
  }
  const uint64_t fell_back =
      registry.counter("queries.fell_back").value() - fell_back_before;
  EXPECT_EQ(entry_retries,
            registry.counter("queries.retry_attempts").value() -
                retries_before);
  EXPECT_LE(entries_fell_back, fell_back);
  EXPECT_EQ(entries_fell_back > 0, fell_back > 0);
  // A soak that injected nothing proved nothing about the ladder.
  EXPECT_GT(registry.counter("faults.injected").value(), injected_before);
}

}  // namespace
}  // namespace gpu
}  // namespace gpudb
