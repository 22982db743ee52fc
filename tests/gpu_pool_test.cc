// Multi-device shard pool (DESIGN.md §15): the per-device health state
// machine, probe-based quarantine recovery, replica failover, and the key
// contract -- scatter/gather answers are bit-identical to single-device
// execution through every rung of the failover ladder -- plus the admission
// controller's deterministic rejection paths.

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/common/query_log.h"
#include "src/common/trace.h"
#include "src/core/executor.h"
#include "src/core/pool_executor.h"
#include "src/db/catalog.h"
#include "src/db/datagen.h"
#include "src/db/sharding.h"
#include "src/gpu/device_pool.h"
#include "src/gpu/perf_model.h"
#include "src/predicate/expr.h"
#include "src/sql/admission.h"
#include "src/sql/session.h"
#include "tests/test_util.h"

namespace gpudb {
namespace {

using core::AggregateKind;
using gpu::CompareOp;
using gpu::DeviceHealth;
using gpu::DevicePool;
using gpu::DevicePoolOptions;
using predicate::Expr;
using predicate::ExprPtr;

std::unique_ptr<DevicePool> MakePool(int devices, int worker_threads = 0) {
  DevicePoolOptions options;
  options.devices = devices;
  options.width = 100;
  options.height = 100;
  options.worker_threads = worker_threads;
  auto pool = DevicePool::Make(options);
  EXPECT_TRUE(pool.ok()) << pool.status().ToString();
  return std::move(pool).ValueOrDie();
}

/// Shard hops every pool has recorded so far (the `pool.failovers`
/// registry counter); tests assert on its delta.
uint64_t PoolFailovers() {
  return MetricsRegistry::Global().counter("pool.failovers").value();
}

TEST(DevicePool, HealthStateMachine) {
  auto pool = MakePool(2);
  EXPECT_EQ(pool->health(0), DeviceHealth::kHealthy);

  // One fault degrades; a success heals the streak.
  pool->RecordFailure(0);
  EXPECT_EQ(pool->health(0), DeviceHealth::kDegraded);
  pool->RecordSuccess(0);
  EXPECT_EQ(pool->health(0), DeviceHealth::kHealthy);

  // kQuarantineThreshold (3) consecutive faults quarantine the device.
  ASSERT_EQ(DevicePool::kQuarantineThreshold, 3);
  for (int i = 0; i < DevicePool::kQuarantineThreshold; ++i) {
    EXPECT_TRUE(pool->AdmitDispatch(0));
    pool->RecordFailure(0);
  }
  EXPECT_EQ(pool->health(0), DeviceHealth::kQuarantined);
  // The other failure domain is untouched.
  EXPECT_EQ(pool->health(1), DeviceHealth::kHealthy);

  // Quarantine refuses dispatches except every kProbeInterval-th (8th) ask.
  ASSERT_EQ(DevicePool::kProbeInterval, 8);
  int admitted = 0;
  for (int i = 0; i < 2 * DevicePool::kProbeInterval; ++i) {
    if (pool->AdmitDispatch(0)) ++admitted;
  }
  EXPECT_EQ(admitted, 2);

  // One probe success returns the device to healthy.
  pool->RecordSuccess(0);
  EXPECT_EQ(pool->health(0), DeviceHealth::kHealthy);
  EXPECT_TRUE(pool->AdmitDispatch(0));
}

TEST(DevicePool, ForcedLossRefusesEvenProbes) {
  auto pool = MakePool(2);
  pool->ForceDeviceLost(1);
  EXPECT_TRUE(pool->forced_lost(1));
  EXPECT_EQ(pool->health(1), DeviceHealth::kQuarantined);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(pool->AdmitDispatch(1)) << "ask " << i;
  }
  pool->Revive(1);
  EXPECT_EQ(pool->health(1), DeviceHealth::kHealthy);
  EXPECT_TRUE(pool->AdmitDispatch(1));
}

// Regression for the probe re-admission race: AdmitDispatch's verdict is a
// snapshot, and the card can be force-lost while the dispatcher waits on
// the lease. TryAcquire re-checks under the health lock once the lease is
// held, so the stale admission surfaces as a deterministic kDeviceLost that
// the pool executor converts into failover -- never a dispatch to a yanked
// device.
TEST(DevicePool, TryAcquireRechecksForcedLossAfterAdmission) {
  auto pool = MakePool(2);
  ASSERT_TRUE(pool->AdmitDispatch(1));  // the stale verdict
  pool->ForceDeviceLost(1);             // card pulled before the lease

  auto lease = pool->TryAcquire(1);
  ASSERT_FALSE(lease.ok());
  EXPECT_TRUE(lease.status().IsDeviceLost()) << lease.status().ToString();

  pool->Revive(1);
  auto revived = pool->TryAcquire(1);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(revived.ValueOrDie().id(), 1);
}

TEST(DevicePool, PerDeviceFailureDomainSeeds) {
  DevicePoolOptions options;
  options.devices = 3;
  options.width = 64;
  options.height = 64;
  options.faults = {/*seed=*/20260805, /*rate=*/0.5};
  ASSERT_OK_AND_ASSIGN(auto pool, DevicePool::Make(options));
  // Each device's injector runs its own stream: same base seed, distinct
  // device_id, so the pass-level fault patterns diverge.
  std::vector<std::vector<bool>> fired(3);
  for (int d = 0; d < 3; ++d) {
    gpu::FaultInjector probe;
    probe.Configure({options.faults.seed, options.faults.rate,
                     /*device_id=*/static_cast<uint32_t>(d)});
    for (int i = 0; i < 128; ++i) fired[d].push_back(!probe.OnPass().ok());
  }
  EXPECT_NE(fired[0], fired[1]);
  EXPECT_NE(fired[1], fired[2]);
}

TEST(Sharding, RangeShardsCoverAndPlaceRoundRobin) {
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(1000, /*seed=*/3));
  ASSERT_OK_AND_ASSIGN(db::ShardedTable sharded,
                       db::ShardedTable::Make(table, /*num_shards=*/8,
                                              /*num_devices=*/4));
  ASSERT_EQ(sharded.num_shards(), 8u);
  EXPECT_EQ(sharded.num_rows(), table.num_rows());
  uint64_t covered = 0;
  for (size_t i = 0; i < sharded.num_shards(); ++i) {
    const db::Shard& shard = sharded.shard(i);
    EXPECT_EQ(shard.row_begin, covered);
    covered += shard.table.num_rows();
    EXPECT_EQ(shard.placement.primary, static_cast<int>(i % 4));
    EXPECT_EQ(shard.placement.replica, static_cast<int>((i % 4 + 1) % 4));
    EXPECT_TRUE(shard.placement.replicated());
  }
  EXPECT_EQ(covered, table.num_rows());
}

TEST(Sharding, RefusesFloatColumnsAndSingleDeviceCollapsesReplica) {
  db::Table table;
  ASSERT_OK_AND_ASSIGN(db::Column c,
                       db::Column::MakeFloat("f", {1.0f, 2.0f, 3.0f, 4.0f}));
  ASSERT_OK(table.AddColumn(std::move(c)));
  auto refused = db::ShardedTable::Make(table, 2, 2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  ASSERT_OK_AND_ASSIGN(db::Table ints, db::MakeTcpIpTable(100, /*seed=*/3));
  ASSERT_OK_AND_ASSIGN(db::ShardedTable solo,
                       db::ShardedTable::Make(ints, 2, /*num_devices=*/1));
  EXPECT_FALSE(solo.shard(0).placement.replicated());
}

/// Shard-pool answers vs. one healthy device, across every failure mode.
class PoolExecutorTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 4000;

  PoolExecutorTest() : reference_device_(100, 100) {
    auto t = db::MakeTcpIpTable(kRows, /*seed=*/77);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();
    auto ref = core::Executor::Make(&reference_device_, &table_);
    EXPECT_TRUE(ref.ok());
    reference_ = std::move(ref).ValueOrDie();
  }

  /// Runs the full operator battery on `exec` and expects bit-identical
  /// answers to the single-device reference.
  void ExpectBitExact(core::PoolExecutor& exec) {
    const ExprPtr where = Expr::And(
        Expr::Pred(0, CompareOp::kGreater, 20000.0f),
        Expr::Pred(2, CompareOp::kLess, 250000.0f));
    ASSERT_OK_AND_ASSIGN(const uint64_t want_count, reference_->Count(where));
    ASSERT_OK_AND_ASSIGN(const uint64_t got_count, exec.Count(where));
    EXPECT_EQ(got_count, want_count);

    ASSERT_OK_AND_ASSIGN(const std::vector<uint32_t> want_rows,
                         reference_->SelectRowIds(where));
    ASSERT_OK_AND_ASSIGN(const std::vector<uint32_t> got_rows,
                         exec.SelectRowIds(where));
    EXPECT_EQ(got_rows, want_rows);

    for (const AggregateKind kind :
         {AggregateKind::kSum, AggregateKind::kAvg, AggregateKind::kMin,
          AggregateKind::kMax}) {
      ASSERT_OK_AND_ASSIGN(const double want,
                           reference_->Aggregate(kind, "data_count", where));
      ASSERT_OK_AND_ASSIGN(const double got,
                           exec.Aggregate(kind, "data_count", where));
      EXPECT_EQ(got, want) << core::ToString(kind);
    }
  }

  gpu::Device reference_device_;
  db::Table table_;
  std::unique_ptr<core::Executor> reference_;
};

TEST_F(PoolExecutorTest, HealthyPoolMatchesSingleDeviceAtEveryThreadCount) {
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(threads));
    auto pool = MakePool(4, threads);
    ASSERT_OK_AND_ASSIGN(
        db::ShardedTable sharded,
        db::ShardedTable::Make(table_, /*num_shards=*/8, pool->size()));
    ASSERT_OK_AND_ASSIGN(auto exec,
                         core::PoolExecutor::Make(pool.get(), &sharded));
    const uint64_t failovers_before = PoolFailovers();
    ExpectBitExact(*exec);
    EXPECT_EQ(PoolFailovers(), failovers_before);
    EXPECT_FALSE(exec->last_stats().cpu_fallback);
  }
}

TEST_F(PoolExecutorTest, LostDeviceFailsOverToReplicaBitExactly) {
  // The ISSUE acceptance sweep: 4 devices, R=2, one forced kDeviceLost --
  // answers stay bit-identical, pool.failovers goes positive, and no device
  // error surfaces to the caller.
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("worker_threads=" + std::to_string(threads));
    auto pool = MakePool(4, threads);
    ASSERT_OK_AND_ASSIGN(
        db::ShardedTable sharded,
        db::ShardedTable::Make(table_, /*num_shards=*/8, pool->size()));
    ASSERT_OK_AND_ASSIGN(auto exec,
                         core::PoolExecutor::Make(pool.get(), &sharded));
    pool->ForceDeviceLost(1);
    const uint64_t failovers_before = PoolFailovers();
    ExpectBitExact(*exec);
    EXPECT_GT(PoolFailovers(), failovers_before);
    EXPECT_GT(exec->last_stats().failovers, 0u);
    EXPECT_EQ(exec->last_stats().first_failed_device, 1);
    // Replicas covered every shard; the CPU tier never had to answer.
    EXPECT_FALSE(exec->last_stats().cpu_fallback);
  }
}

TEST_F(PoolExecutorTest, AllPlacementsLostFallsBackToCpuBitExactly) {
  auto pool = MakePool(2);
  ASSERT_OK_AND_ASSIGN(
      db::ShardedTable sharded,
      db::ShardedTable::Make(table_, /*num_shards=*/4, pool->size()));
  ASSERT_OK_AND_ASSIGN(auto exec,
                       core::PoolExecutor::Make(pool.get(), &sharded));
  pool->ForceDeviceLost(0);
  pool->ForceDeviceLost(1);
  ExpectBitExact(*exec);
  EXPECT_TRUE(exec->last_stats().cpu_fallback);
}

/// Everything one battery run observes: the answers, each operator's
/// last_stats(), and every pool device's counters afterwards.
struct BatteryRecord {
  uint64_t count = 0;
  std::vector<uint32_t> rows;
  std::vector<double> aggregates;
  std::vector<core::PoolQueryStats> stats;
  std::vector<gpu::DeviceCounters> devices;
};

bool SameCounters(gpu::DeviceCounters a, const gpu::DeviceCounters& b) {
  bool same = true;
  a.ZipWith(b, [&same](uint64_t& mine, uint64_t theirs) {
    same = same && mine == theirs;
  });
  return same;
}

void ExpectSameStats(const core::PoolQueryStats& a,
                     const core::PoolQueryStats& b) {
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.first_device, b.first_device);
  EXPECT_EQ(a.first_failed_device, b.first_failed_device);
  EXPECT_EQ(a.cpu_fallback, b.cpu_fallback);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_TRUE(SameCounters(a.counters, b.counters));
}

// The concurrent scatter keeps a fixed fault order: phase 1 runs each
// device's primaries in shard order, phase 2 the replica and CPU rungs in
// shard order on the statement's thread. So on a fault-injected 3-device
// pool, two runs over fresh pools agree on every answer, every operator's
// stats and every device's counters, and the answers are the single-device
// ones.
TEST_F(PoolExecutorTest, FaultInjectedScatterRepeatsItselfBitExactly) {
  const ExprPtr where = Expr::And(Expr::Pred(0, CompareOp::kGreater, 20000.0f),
                                  Expr::Pred(2, CompareOp::kLess, 250000.0f));
  const AggregateKind kinds[] = {AggregateKind::kSum, AggregateKind::kAvg,
                                 AggregateKind::kMin, AggregateKind::kMax};
  BatteryRecord want;
  ASSERT_OK_AND_ASSIGN(want.count, reference_->Count(where));
  ASSERT_OK_AND_ASSIGN(want.rows, reference_->SelectRowIds(where));
  for (const AggregateKind kind : kinds) {
    ASSERT_OK_AND_ASSIGN(const double value,
                         reference_->Aggregate(kind, "data_count", where));
    want.aggregates.push_back(value);
  }

  uint64_t ladder_events = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    const double rate = 0.02 + 0.01 * static_cast<double>(seed % 4);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " rate=" + std::to_string(rate));
    BatteryRecord runs[2];
    for (BatteryRecord& run : runs) {
      DevicePoolOptions options;
      options.devices = 3;
      options.width = 100;
      options.height = 100;
      options.faults = {seed, rate};
      ASSERT_OK_AND_ASSIGN(auto pool, DevicePool::Make(options));
      ASSERT_OK_AND_ASSIGN(
          db::ShardedTable sharded,
          db::ShardedTable::Make(table_, /*num_shards=*/6, pool->size()));
      ASSERT_OK_AND_ASSIGN(auto exec,
                           core::PoolExecutor::Make(pool.get(), &sharded));
      ASSERT_OK_AND_ASSIGN(run.count, exec->Count(where));
      run.stats.push_back(exec->last_stats());
      ASSERT_OK_AND_ASSIGN(run.rows, exec->SelectRowIds(where));
      run.stats.push_back(exec->last_stats());
      for (const AggregateKind kind : kinds) {
        ASSERT_OK_AND_ASSIGN(const double value,
                             exec->Aggregate(kind, "data_count", where));
        run.aggregates.push_back(value);
        run.stats.push_back(exec->last_stats());
      }
      for (int d = 0; d < pool->size(); ++d) {
        run.devices.push_back(pool->device(d).counters());
      }
    }
    for (const BatteryRecord& run : runs) {
      EXPECT_EQ(run.count, want.count);
      EXPECT_EQ(run.rows, want.rows);
      EXPECT_EQ(run.aggregates, want.aggregates);
    }
    ASSERT_EQ(runs[0].stats.size(), runs[1].stats.size());
    for (size_t op = 0; op < runs[0].stats.size(); ++op) {
      SCOPED_TRACE("operator " + std::to_string(op));
      ExpectSameStats(runs[0].stats[op], runs[1].stats[op]);
      ladder_events += runs[0].stats[op].retries +
                       runs[0].stats[op].failovers +
                       (runs[0].stats[op].cpu_fallback ? 1 : 0);
    }
    for (size_t d = 0; d < runs[0].devices.size(); ++d) {
      EXPECT_TRUE(SameCounters(runs[0].devices[d], runs[1].devices[d]))
          << "device " << d;
    }
  }
  // The injection must actually have driven the ladder for the check to
  // mean anything.
  EXPECT_GT(ladder_events, 0u);
}

// Helper threads adopt the statement thread's tracer and open span, so
// every pool.shard span of a pooled statement -- a phase-1 primary on any
// group's thread or a phase-2 replica -- is a child of the statement's
// span, and every other span nests inside the statement's tree.
TEST_F(PoolExecutorTest, ShardSpansAreChildrenOfTheStatementSpan) {
  auto pool = MakePool(4);
  ASSERT_OK_AND_ASSIGN(
      db::ShardedTable sharded,
      db::ShardedTable::Make(table_, /*num_shards=*/8, pool->size()));
  ASSERT_OK_AND_ASSIGN(auto exec,
                       core::PoolExecutor::Make(pool.get(), &sharded));
  const ExprPtr where = Expr::Pred(0, CompareOp::kGreater, 20000.0f);
  for (const bool lose_device : {false, true}) {
    SCOPED_TRACE(lose_device ? "device 1 lost" : "healthy");
    if (lose_device) pool->ForceDeviceLost(1);
    const TraceCapture capture;
    uint64_t statement_id = 0;
    {
      const TraceSpan statement("statement");
      statement_id = statement.id();
      ASSERT_OK(exec->Count(where).status());
      ASSERT_OK(exec->SelectRowIds(where).status());
      ASSERT_OK(exec->Aggregate(AggregateKind::kSum, "data_count", where)
                    .status());
    }
    ASSERT_NE(statement_id, 0u);
    const std::vector<FinishedSpan> spans = capture.Finished();
    std::set<uint64_t> ids;
    for (const FinishedSpan& span : spans) ids.insert(span.id);
    size_t shard_spans = 0;
    std::set<uint64_t> threads;
    for (const FinishedSpan& span : spans) {
      if (span.id == statement_id) continue;
      EXPECT_TRUE(ids.count(span.parent_id)) << span.name;
      if (span.name != "pool.shard") continue;
      ++shard_spans;
      threads.insert(span.thread_id);
      EXPECT_EQ(span.parent_id, statement_id);
    }
    // Three operators over 8 shards; with device 1 lost, its two shards
    // also try their replica in each operator.
    EXPECT_EQ(shard_spans, 3u * (8u + (lose_device ? 2u : 0u)));
    // One thread per primary device: the statement's and three helpers.
    EXPECT_EQ(threads.size(), 4u);
  }
}

TEST_F(PoolExecutorTest, CpuRungCanBeDisabled) {
  auto pool = MakePool(2);
  ASSERT_OK_AND_ASSIGN(
      db::ShardedTable sharded,
      db::ShardedTable::Make(table_, /*num_shards=*/4, pool->size()));
  ASSERT_OK_AND_ASSIGN(auto exec,
                       core::PoolExecutor::Make(pool.get(), &sharded));
  core::ResilienceOptions options;
  options.allow_cpu_fallback = false;
  exec->set_resilience_options(options);
  pool->ForceDeviceLost(0);
  pool->ForceDeviceLost(1);
  auto result = exec->Count(nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviceLost());
}

TEST_F(PoolExecutorTest, MedianStaysSingleDevice) {
  auto pool = MakePool(2);
  ASSERT_OK_AND_ASSIGN(
      db::ShardedTable sharded,
      db::ShardedTable::Make(table_, /*num_shards=*/4, pool->size()));
  ASSERT_OK_AND_ASSIGN(auto exec,
                       core::PoolExecutor::Make(pool.get(), &sharded));
  EXPECT_FALSE(core::PoolExecutor::ShardableAggregate(AggregateKind::kMedian));
  auto result = exec->Aggregate(AggregateKind::kMedian, "data_count", nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

TEST_F(PoolExecutorTest, AggregateDispatchRunsOneWherePerShard) {
  // One shard per device, so each device's pass log holds exactly one shard
  // dispatch. It must run the passes of the same statement on a device that
  // holds only that shard: one WHERE, then the aggregate (none at all for
  // MIN/MAX/AVG of an empty selection).
  auto pool = MakePool(4);
  ASSERT_OK_AND_ASSIGN(
      db::ShardedTable sharded,
      db::ShardedTable::Make(table_, /*num_shards=*/4, pool->size()));
  ASSERT_OK_AND_ASSIGN(auto exec,
                       core::PoolExecutor::Make(pool.get(), &sharded));
  const ExprPtr some = Expr::And(Expr::Pred(0, CompareOp::kGreater, 20000.0f),
                                 Expr::Pred(2, CompareOp::kLess, 250000.0f));
  const ExprPtr none = Expr::Pred(0, CompareOp::kLess, 0.0f);
  for (const ExprPtr& where : {some, none}) {
    for (const AggregateKind kind :
         {AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kAvg}) {
      SCOPED_TRACE(std::string(core::ToString(kind)) +
                   (where == some ? " WHERE some" : " WHERE none"));
      std::vector<std::unique_ptr<gpu::PassLogScope>> logs;
      for (int d = 0; d < pool->size(); ++d) {
        logs.push_back(std::make_unique<gpu::PassLogScope>(&pool->device(d)));
      }
      const auto pooled = exec->Aggregate(kind, "data_count", where);
      EXPECT_EQ(pooled.ok(), where == some);
      for (size_t i = 0; i < sharded.num_shards(); ++i) {
        const db::Shard& shard = sharded.shard(i);
        gpu::Device solo(100, 100);
        ASSERT_OK_AND_ASSIGN(auto solo_exec,
                             core::Executor::Make(&solo, &shard.table));
        gpu::PassLogScope solo_log(&solo);
        const auto alone = solo_exec->Aggregate(kind, "data_count", where);
        EXPECT_EQ(alone.ok(), where == some);
        ASSERT_GT(solo_log.records().size(), 0u);
        EXPECT_EQ(logs[static_cast<size_t>(shard.placement.primary)]
                      ->records()
                      .size(),
                  solo_log.records().size())
            << "shard " << i;
      }
    }
  }
}

TEST_F(PoolExecutorTest, EmptySelectionStatusesOnEveryRung) {
  auto pool = MakePool(2);
  ASSERT_OK_AND_ASSIGN(
      db::ShardedTable sharded,
      db::ShardedTable::Make(table_, /*num_shards=*/4, pool->size()));
  ASSERT_OK_AND_ASSIGN(auto exec,
                       core::PoolExecutor::Make(pool.get(), &sharded));
  const ExprPtr none = Expr::Pred(0, CompareOp::kLess, 0.0f);
  for (const bool cpu_rung : {false, true}) {
    SCOPED_TRACE(cpu_rung ? "CPU rung" : "GPU rung");
    if (cpu_rung) {
      pool->ForceDeviceLost(0);
      pool->ForceDeviceLost(1);
    }
    for (const AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax,
                                     AggregateKind::kAvg}) {
      const auto got = exec->Aggregate(kind, "data_count", none);
      const auto want = reference_->Aggregate(kind, "data_count", none);
      ASSERT_FALSE(got.ok()) << core::ToString(kind);
      ASSERT_FALSE(want.ok()) << core::ToString(kind);
      EXPECT_EQ(got.status().code(), kind == AggregateKind::kAvg
                                         ? StatusCode::kInvalidArgument
                                         : StatusCode::kOutOfRange);
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      EXPECT_EQ(exec->last_stats().cpu_fallback, cpu_rung);
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control: every rejection path is synchronous and deterministic.

TEST(Admission, QueueOverflowRejectsImmediately) {
  sql::AdmissionOptions options;
  options.max_concurrent = 1;
  options.queue_capacity = 0;
  sql::AdmissionController admission(options);

  ASSERT_OK_AND_ASSIGN(auto ticket, admission.Admit("", 0.0));
  EXPECT_TRUE(ticket.admitted());
  EXPECT_EQ(admission.running(), 1);
  // The slot is held and the queue holds zero: overflow, not a wait.
  auto overflow = admission.Admit("", 0.0);
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted());

  ticket.Release();
  EXPECT_EQ(admission.running(), 0);
  ASSERT_OK_AND_ASSIGN(auto again, admission.Admit("", 0.0));
  EXPECT_TRUE(again.admitted());
}

TEST(Admission, QueueWaitIsBoundedByDeadlineAndValve) {
  sql::AdmissionOptions options;
  options.max_concurrent = 1;
  options.queue_capacity = 4;
  options.max_queue_wait_ms = 20.0;
  sql::AdmissionController admission(options);
  ASSERT_OK_AND_ASSIGN(auto ticket, admission.Admit("", 0.0));
  // The queued statement can never get the held slot; the valve guarantees
  // Admit returns (kResourceExhausted) instead of hanging.
  auto timed_out = admission.Admit("", 0.0);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsResourceExhausted());
  EXPECT_EQ(admission.queue_depth(), 0);
}

TEST(Admission, DeadlineCannotCoverP95IsShedUpFront) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (int i = 0; i < 64; ++i) {
    registry.histogram("sql.exec_ms").Record(50.0);
  }
  sql::AdmissionController admission;
  auto shed = admission.Admit("", /*deadline_ms=*/1.0);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  // A deadline above the p95 still admits.
  ASSERT_OK_AND_ASSIGN(auto ticket, admission.Admit("", 500.0));
  EXPECT_TRUE(ticket.admitted());
}

TEST(Admission, TenantTokenBucketRefillsOnTheInjectedClock) {
  double now_ms = 0.0;
  sql::AdmissionOptions options;
  options.tenant_qps = 1.0;
  options.tenant_burst = 2.0;
  options.now_ms = [&now_ms] { return now_ms; };
  sql::AdmissionController admission(options);

  const uint64_t throttled_before =
      MetricsRegistry::Global().counter("tenant.throttled").value();
  {
    ASSERT_OK_AND_ASSIGN(auto t1, admission.Admit("acme", 0.0));
    ASSERT_OK_AND_ASSIGN(auto t2, admission.Admit("acme", 0.0));
  }
  // Burst exhausted at t=0: the third statement is throttled...
  auto throttled = admission.Admit("acme", 0.0);
  ASSERT_FALSE(throttled.ok());
  EXPECT_TRUE(throttled.status().IsResourceExhausted());
  EXPECT_EQ(MetricsRegistry::Global().counter("tenant.throttled").value(),
            throttled_before + 1);
  // ...another tenant is not...
  ASSERT_OK_AND_ASSIGN(auto other, admission.Admit("globex", 0.0));
  other.Release();
  // ...and one second later one token has refilled.
  now_ms = 1000.0;
  ASSERT_OK_AND_ASSIGN(auto refilled, admission.Admit("acme", 0.0));
  EXPECT_TRUE(refilled.admitted());
}

// ---------------------------------------------------------------------------
// Session integration: pooled routing, admission, and log attribution.

TEST(SessionPool, PooledStatementsMatchClassicAndLogFailureDomains) {
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(3000, /*seed=*/9));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("traffic", &table));

  gpu::Device classic_device(100, 100);
  db::Catalog classic_catalog;
  ASSERT_OK(classic_catalog.Register("traffic", &table));
  sql::Session classic(&classic_device, &classic_catalog);

  gpu::Device session_device(100, 100);
  sql::Session pooled(&session_device, &catalog);
  auto pool = MakePool(4);
  pooled.SetDevicePool(pool.get());
  pooled.set_tenant("acme");
  pool->ForceDeviceLost(2);

  const char* statements[] = {
      "SELECT COUNT(*) FROM traffic WHERE data_count > 20000",
      "SELECT SUM(data_count) FROM traffic WHERE flow_rate < 250000",
      "SELECT AVG(flow_rate) FROM traffic WHERE data_loss > 2",
      "SELECT MIN(data_count) FROM traffic WHERE data_count > 20000",
      "SELECT MAX(flow_rate) FROM traffic",
      "SELECT * FROM traffic WHERE data_count > 100000 LIMIT 7",
  };
  uint64_t logged_failovers = 0;
  for (const char* sql : statements) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(sql::QueryResult want, classic.Execute(sql));
    ASSERT_OK_AND_ASSIGN(sql::QueryResult got, pooled.Execute(sql));
    logged_failovers += QueryLog::Global().Entries().back().failovers;
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.scalar, want.scalar);
    EXPECT_EQ(got.row_ids, want.row_ids);
  }
  EXPECT_GT(logged_failovers, 0u);

  const std::vector<QueryLogEntry> entries = QueryLog::Global().Entries();
  ASSERT_FALSE(entries.empty());
  const QueryLogEntry& last = entries.back();
  EXPECT_EQ(last.tenant, "acme");
  EXPECT_GE(last.device_id, 0);

  // Order statistics stay on the classic single-device path through the
  // same session, and log no failure domain.
  ASSERT_OK_AND_ASSIGN(sql::QueryResult want_med,
                       classic.Execute("SELECT MEDIAN(data_count) FROM traffic"));
  ASSERT_OK_AND_ASSIGN(sql::QueryResult got_med,
                       pooled.Execute("SELECT MEDIAN(data_count) FROM traffic"));
  EXPECT_EQ(got_med.scalar, want_med.scalar);
  EXPECT_EQ(QueryLog::Global().Entries().back().device_id, -1);
}

TEST(SessionPool, PooledEntriesCarryTheShardDispatchWork) {
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(3000, /*seed=*/9));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("traffic", &table));
  gpu::Device session_device(100, 100);
  sql::Session session(&session_device, &catalog);
  auto pool = MakePool(2);
  session.SetDevicePool(pool.get());

  const gpu::DeviceCounters session_before = session_device.counters();
  const gpu::DeviceCounters before0 = pool->device(0).counters();
  const gpu::DeviceCounters before1 = pool->device(1).counters();
  ASSERT_OK_AND_ASSIGN(
      sql::QueryResult result,
      session.Execute("SELECT COUNT(*) FROM traffic WHERE data_count > 20000"));
  (void)result;
  gpu::DeviceCounters shards =
      gpu::DeltaSince(before0, pool->device(0).counters());
  shards += gpu::DeltaSince(before1, pool->device(1).counters());

  // The statement ran on the pool devices, not the session's own device,
  // and its log entry is the sum of the shard dispatches.
  const QueryLogEntry entry = QueryLog::Global().Entries().back();
  EXPECT_EQ(session_device.counters().passes, session_before.passes);
  EXPECT_GT(entry.passes, 0u);
  EXPECT_EQ(entry.passes, shards.passes);
  EXPECT_EQ(entry.fragments, shards.fragments_generated);
  EXPECT_GT(entry.simulated_ms, 0.0);
  EXPECT_DOUBLE_EQ(entry.simulated_ms,
                   gpu::PerfModel().Estimate(shards).TotalMs());
  EXPECT_EQ(entry.retries, 0u);
  EXPECT_FALSE(entry.fell_back);
}

TEST(SessionPool, ResilienceOutcomesStayWithTheirOwnSession) {
  // Two sessions run concurrently on their own devices; only one device
  // injects faults. Retries and CPU fallbacks are counted per statement
  // from the session's own executors, so none of the faulty session's
  // events may land on the clean session's log entries.
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(2000, /*seed=*/4));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("traffic", &table));
  gpu::Device faulty_device(100, 100);
  gpu::Device clean_device(100, 100);
  faulty_device.ConfigureFaults({/*seed=*/20260805, /*rate=*/0.3});
  sql::Session faulty(&faulty_device, &catalog);
  sql::Session clean(&clean_device, &catalog);
  faulty.set_tenant("faulty");
  clean.set_tenant("clean");

  constexpr int kStatements = 100;
  QueryLog::Global().Clear();
  auto run = [](sql::Session* session) {
    for (int i = 0; i < kStatements; ++i) {
      const std::string sql =
          "SELECT COUNT(*) FROM traffic WHERE data_count > " +
          std::to_string(1000 * (i % 40));
      (void)session->Execute(sql);  // the faulty session may fail some
    }
  };
  std::thread faulty_thread(run, &faulty);
  std::thread clean_thread(run, &clean);
  faulty_thread.join();
  clean_thread.join();

  const std::vector<QueryLogEntry> entries = QueryLog::Global().Entries();
  ASSERT_EQ(entries.size(), 2u * kStatements);
  uint64_t faulty_events = 0;
  for (const QueryLogEntry& entry : entries) {
    if (entry.tenant == "faulty") {
      faulty_events += entry.retries + (entry.fell_back ? 1 : 0);
      continue;
    }
    ASSERT_EQ(entry.tenant, "clean");
    EXPECT_TRUE(entry.ok) << entry.sql << ": " << entry.error;
    EXPECT_EQ(entry.retries, 0u) << entry.sql;
    EXPECT_FALSE(entry.fell_back) << entry.sql;
  }
  // The injection must actually have fired for the check to mean anything.
  EXPECT_GT(faulty_events, 0u);
}

// Regression: a pooled statement honours `allow_cpu_fallback = false` the
// way the single-device route does. With every pool device lost there is no
// GPU placement left, and the statement must fail with kDeviceLost instead
// of being answered by the CPU tier.
TEST(SessionPool, FallbackOffSurfacesDeviceLostWhenEveryDeviceIsLost) {
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(3000, /*seed=*/9));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("traffic", &table));
  gpu::Device session_device(100, 100);
  sql::Session session(&session_device, &catalog);
  auto pool = MakePool(2);
  session.SetDevicePool(pool.get());
  core::ResilienceOptions options;
  options.allow_cpu_fallback = false;
  session.set_resilience_options(options);
  pool->ForceDeviceLost(0);
  pool->ForceDeviceLost(1);

  const auto result =
      session.Execute("SELECT COUNT(*) FROM traffic WHERE data_count > 20000");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviceLost()) << result.status().ToString();
  const QueryLogEntry entry = QueryLog::Global().Entries().back();
  EXPECT_FALSE(entry.fell_back);
  EXPECT_GE(entry.device_id, 0);
}

// Regression: `deadline_ms` is one deadline per statement, not per shard
// dispatch. Each shard of this statement beats the deadline by 3x, but each
// device runs eight of them in turn, which overruns it by more than 2.5x, so
// the statement must fail with kDeadlineExceeded. The deadline is sized from the fastest of
// several one-shard runs: host load can only lengthen the shards and make
// the overrun larger.
TEST(SessionPool, DeadlineCoversTheWholeStatementNotEachShard) {
  constexpr int kShards = 16;
  ASSERT_OK_AND_ASSIGN(db::Table table,
                       db::MakeTcpIpTable(160000, /*seed=*/3));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("traffic", &table));
  const char* sql =
      "SELECT COUNT(*) FROM traffic WHERE data_count > 20000 AND "
      "flow_rate < 250000 AND data_loss > 1";
  const ExprPtr where = Expr::And(
      Expr::And(Expr::Pred(0, CompareOp::kGreater, 20000.0f),
                Expr::Pred(2, CompareOp::kLess, 250000.0f)),
      Expr::Pred(1, CompareOp::kGreater, 1.0f));

  DevicePoolOptions pool_options;
  pool_options.devices = 2;
  pool_options.width = 100;
  pool_options.height = 100;
  ASSERT_OK_AND_ASSIGN(auto pool, DevicePool::Make(pool_options));

  // The fastest one-shard dispatch, on a warm device of the same size.
  ASSERT_OK_AND_ASSIGN(db::ShardedTable sharded,
                       db::ShardedTable::Make(table, kShards, pool->size()));
  gpu::Device solo(100, 100);
  ASSERT_OK_AND_ASSIGN(auto solo_exec,
                       core::Executor::Make(&solo, &sharded.shard(0).table));
  double shard_ms = 1e30;
  for (int i = 0; i < 7; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_OK(solo_exec->Count(where).status());
    shard_ms = std::min(
        shard_ms, std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  }

  gpu::Device session_device(400, 400);  // holds the whole table
  sql::Session session(&session_device, &catalog);
  session.SetDevicePool(pool.get(), kShards);
  // Warm every shard executor and texture before the deadline goes on.
  ASSERT_OK(session.Execute(sql).status());
  core::ResilienceOptions options;
  options.deadline_ms = 3.0 * shard_ms;
  session.set_resilience_options(options);

  const auto result = session.Execute(sql);
  ASSERT_FALSE(result.ok()) << "one shard " << shard_ms << " ms, deadline "
                            << options.deadline_ms << " ms";
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

// MEDIAN does not decompose, so a pooled session runs it on its own device,
// a pool of one. A dead session device degrades it to the CPU tier, which
// returns the healthy answer; the log attributes it to the session's device.
TEST(SessionPool, MedianOnADeadSessionDeviceFallsBackToTheSameAnswer) {
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(3000, /*seed=*/9));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("traffic", &table));
  const char* sql = "SELECT MEDIAN(data_count) FROM traffic";

  gpu::Device classic_device(100, 100);
  sql::Session classic(&classic_device, &catalog);
  ASSERT_OK_AND_ASSIGN(sql::QueryResult want, classic.Execute(sql));

  gpu::Device session_device(100, 100);
  sql::Session pooled(&session_device, &catalog);
  auto pool = MakePool(2);
  pooled.SetDevicePool(pool.get());
  session_device.ConfigureFaults({/*seed=*/7, /*rate=*/1.0});
  ASSERT_OK_AND_ASSIGN(sql::QueryResult got, pooled.Execute(sql));
  EXPECT_EQ(got.scalar, want.scalar);
  const QueryLogEntry entry = QueryLog::Global().Entries().back();
  EXPECT_TRUE(entry.fell_back);
  EXPECT_EQ(entry.device_id, -1);
}

TEST(SessionPool, AdmissionRejectionSurfacesAndIsLogged) {
  ASSERT_OK_AND_ASSIGN(db::Table table, db::MakeTcpIpTable(500, /*seed=*/5));
  db::Catalog catalog;
  ASSERT_OK(catalog.Register("t", &table));
  gpu::Device device(100, 100);
  sql::Session session(&device, &catalog);
  session.set_tenant("acme");

  sql::AdmissionOptions options;
  options.max_concurrent = 1;
  options.queue_capacity = 0;
  sql::AdmissionController admission(options);
  session.set_admission(&admission);

  // Hold the only slot: the session's statement must be rejected
  // synchronously, never queued behind the held ticket.
  ASSERT_OK_AND_ASSIGN(auto ticket, admission.Admit("other", 0.0));
  auto rejected = session.Execute("SELECT COUNT(*) FROM t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  const QueryLogEntry last = QueryLog::Global().Entries().back();
  EXPECT_FALSE(last.ok);
  EXPECT_EQ(last.tenant, "acme");

  ticket.Release();
  ASSERT_OK_AND_ASSIGN(sql::QueryResult result,
                       session.Execute("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(result.count, table.num_rows());
}

}  // namespace
}  // namespace gpudb
