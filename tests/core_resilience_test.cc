// Resilience layer on a single device, a pool of one: bounded retry of
// transient device faults, the device's quarantine (the open breaker), and
// the CPU fallback tier. The key contract is that a query answered through
// any degradation path returns exactly the answer the healthy GPU path
// would have produced.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/core/executor.h"
#include "src/core/pool_executor.h"
#include "src/core/resilience.h"
#include "src/db/datagen.h"
#include "src/gpu/device.h"
#include "src/gpu/device_pool.h"
#include "src/gpu/fault_injector.h"
#include "tests/test_util.h"

namespace gpudb {
namespace core {
namespace {

using gpu::CompareOp;
using predicate::Expr;
using predicate::ExprPtr;

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().counter(name).value();
}

TEST(RetryPolicy, BackoffIsExponentialAndCapped) {
  // Three attempts per device; 1 ms before the first retry, doubling,
  // capped at 64 ms.
  EXPECT_EQ(kMaxAttempts, 3);
  EXPECT_DOUBLE_EQ(RetryDelayMs(0), 1.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(1), 2.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(5), 32.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(6), 64.0);
  EXPECT_DOUBLE_EQ(RetryDelayMs(20), 64.0);
}

TEST(FaultClassification, TransientAndDeviceFaultSets) {
  EXPECT_TRUE(IsTransientFault(Status::DeviceLost("x")));
  EXPECT_FALSE(IsTransientFault(Status::ResourceExhausted("x")));
  EXPECT_FALSE(IsTransientFault(Status::DeadlineExceeded("x")));

  EXPECT_TRUE(IsDeviceFault(Status::DeviceLost("x")));
  EXPECT_TRUE(IsDeviceFault(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsDeviceFault(Status::Internal("x")));
  EXPECT_FALSE(IsDeviceFault(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsDeviceFault(Status::DeadlineExceeded("x")));
}

TEST(FaultInjector, SameSeedSameDrawSequence) {
  gpu::FaultInjector a;
  gpu::FaultInjector b;
  a.Configure({/*seed=*/42, /*rate=*/0.25});
  b.Configure({/*seed=*/42, /*rate=*/0.25});
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.OnPass().ok(), b.OnPass().ok()) << "draw " << i;
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0u);  // rate 0.25 over 200 draws
}

class ResilienceTest : public ::testing::Test {
 protected:
  ResilienceTest() : device_(100, 100), reference_device_(100, 100) {
    auto t = db::MakeTcpIpTable(5000, /*seed=*/77);
    EXPECT_TRUE(t.ok());
    table_ = std::move(t).ValueOrDie();
    auto exec = PoolExecutor::Make(pool_.get(), &table_);
    EXPECT_TRUE(exec.ok());
    executor_ = std::move(exec).ValueOrDie();
    auto ref = Executor::Make(&reference_device_, &table_);
    EXPECT_TRUE(ref.ok());
    reference_ = std::move(ref).ValueOrDie();
  }

  /// Uploads every column texture while faults are off, so a subsequent
  /// ConfigureFaults starts the draw sequence at the query's first pass.
  void WarmTextures() {
    auto gpu = executor_->ShardExecutorFor(0, 0);
    ASSERT_TRUE(gpu.ok());
    for (size_t c = 0; c < table_.num_columns(); ++c) {
      EXPECT_TRUE(gpu.ValueOrDie()->BindingFor(c).ok());
    }
  }

  /// The open breaker of the single-device ladder.
  bool Quarantined() const {
    return pool_->health(0) == gpu::DeviceHealth::kQuarantined;
  }

  gpu::Device device_;             // fault-injected
  gpu::Device reference_device_;   // always healthy
  std::unique_ptr<gpu::DevicePool> pool_ = gpu::DevicePool::Borrow(&device_);
  db::Table table_;
  std::unique_ptr<PoolExecutor> executor_;
  std::unique_ptr<Executor> reference_;
};

TEST_F(ResilienceTest, TransientFaultIsRetriedAndSucceeds) {
  WarmTextures();
  // Find a seed whose first draw faults and whose next 100 draws are all
  // clean: the query's first pass dies, the retry runs start to finish.
  // (P ~ rate * (1-rate)^100 ~ 3e-4 per seed, so the search is quick.)
  const double rate = 0.05;
  uint64_t seed = 0;
  for (uint64_t candidate = 1; candidate < 100000 && seed == 0; ++candidate) {
    gpu::FaultInjector probe;
    probe.Configure({candidate, rate});
    if (probe.OnPass().ok()) continue;
    bool clean = true;
    for (int i = 0; i < 100 && clean; ++i) clean = probe.OnPass().ok();
    if (clean) seed = candidate;
  }
  ASSERT_NE(seed, 0u) << "no suitable seed found";

  // A null predicate short-circuits to a stencil clear with no fault sites;
  // a real comparison forces render passes and an occlusion readback.
  const ExprPtr where = Expr::Pred(0, CompareOp::kGreater, 5000.0f);
  ASSERT_OK_AND_ASSIGN(const uint64_t want, reference_->Count(where));

  const uint64_t retried_before = CounterValue("queries.retried");
  const uint64_t fellback_before = CounterValue("queries.fell_back");
  device_.ConfigureFaults({seed, rate, /*device_id=*/0});
  ASSERT_OK_AND_ASSIGN(uint64_t count, executor_->Count(where));
  EXPECT_EQ(count, want);
  EXPECT_EQ(CounterValue("queries.retried"), retried_before + 1);
  EXPECT_EQ(CounterValue("queries.fell_back"), fellback_before);
  EXPECT_FALSE(Quarantined());
}

TEST_F(ResilienceTest, PermanentFaultsFallBackToIdenticalCpuAnswers) {
  const ExprPtr where = Expr::And(Expr::Pred(0, CompareOp::kGreater, 5000.0f),
                                  Expr::Pred(1, CompareOp::kLess, 3.0f));

  // Healthy-path expectations first.
  ASSERT_OK_AND_ASSIGN(const uint64_t want_count, reference_->Count(where));
  ASSERT_OK_AND_ASSIGN(const std::vector<uint32_t> want_rows,
                       reference_->SelectRowIds(where));
  ASSERT_OK_AND_ASSIGN(const double want_sum,
                       reference_->Aggregate(AggregateKind::kSum, "data_count",
                                             where));
  ASSERT_OK_AND_ASSIGN(const double want_avg,
                       reference_->Aggregate(AggregateKind::kAvg, "data_count",
                                             where));
  ASSERT_OK_AND_ASSIGN(const double want_min,
                       reference_->Aggregate(AggregateKind::kMin, "data_count",
                                             where));
  ASSERT_OK_AND_ASSIGN(const double want_max,
                       reference_->Aggregate(AggregateKind::kMax, "data_count",
                                             where));
  ASSERT_OK_AND_ASSIGN(const double want_median,
                       reference_->Aggregate(AggregateKind::kMedian,
                                             "data_count", nullptr));
  ASSERT_OK_AND_ASSIGN(const uint32_t want_kth,
                       reference_->KthLargest("data_count", 25, where));

  // Every device pass faults: all answers must come from the CPU tier and
  // match the healthy GPU path exactly.
  const uint64_t fellback_before = CounterValue("queries.fell_back");
  device_.ConfigureFaults({/*seed=*/9, /*rate=*/1.0, /*device_id=*/0});

  ASSERT_OK_AND_ASSIGN(uint64_t count, executor_->Count(where));
  EXPECT_EQ(count, want_count);
  ASSERT_OK_AND_ASSIGN(std::vector<uint32_t> rows,
                       executor_->SelectRowIds(where));
  EXPECT_EQ(rows, want_rows);
  ASSERT_OK_AND_ASSIGN(
      double sum, executor_->Aggregate(AggregateKind::kSum, "data_count",
                                       where));
  EXPECT_EQ(sum, want_sum);
  ASSERT_OK_AND_ASSIGN(
      double avg, executor_->Aggregate(AggregateKind::kAvg, "data_count",
                                       where));
  EXPECT_EQ(avg, want_avg);
  ASSERT_OK_AND_ASSIGN(
      double min, executor_->Aggregate(AggregateKind::kMin, "data_count",
                                       where));
  EXPECT_EQ(min, want_min);
  ASSERT_OK_AND_ASSIGN(
      double max, executor_->Aggregate(AggregateKind::kMax, "data_count",
                                       where));
  EXPECT_EQ(max, want_max);
  ASSERT_OK_AND_ASSIGN(double median,
                       executor_->Aggregate(AggregateKind::kMedian,
                                            "data_count", nullptr));
  EXPECT_EQ(median, want_median);
  ASSERT_OK_AND_ASSIGN(uint32_t kth,
                       executor_->KthLargest("data_count", 25, where));
  EXPECT_EQ(kth, want_kth);

  EXPECT_GT(CounterValue("queries.fell_back"), fellback_before);
  // Three consecutive device faults opened the breaker along the way.
  EXPECT_TRUE(Quarantined());
}

TEST_F(ResilienceTest, NoFallbackMeansCleanDeviceFaultStatus) {
  ResilienceOptions options;
  options.allow_cpu_fallback = false;
  executor_->set_resilience_options(options);
  device_.ConfigureFaults({/*seed=*/3, /*rate=*/1.0, /*device_id=*/0});
  auto result =
      executor_->Count(Expr::Pred(0, CompareOp::kGreater, 5000.0f));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeviceLost()) << result.status().ToString();
  // Every pass faults: the first attempt and both in-place retries.
  EXPECT_EQ(executor_->last_stats().retries, 2u);
}

TEST_F(ResilienceTest, UserErrorsAreNeverRetriedOrDegraded) {
  const uint64_t retried_before = CounterValue("queries.retry_attempts");
  const uint64_t fellback_before = CounterValue("queries.fell_back");
  auto result = executor_->KthLargest("data_count", 0, nullptr);  // k=0
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  auto missing = executor_->Aggregate(AggregateKind::kSum, "no_such_column",
                                      nullptr);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(CounterValue("queries.retry_attempts"), retried_before);
  EXPECT_EQ(CounterValue("queries.fell_back"), fellback_before);
  EXPECT_FALSE(Quarantined());
}

TEST_F(ResilienceTest, OpenBreakerSkipsDeviceAndProbesRecovery) {
  const ExprPtr where = Expr::Pred(0, CompareOp::kGreater, 5000.0f);
  ASSERT_OK_AND_ASSIGN(const uint64_t want, reference_->Count(where));

  device_.ConfigureFaults({/*seed=*/5, /*rate=*/1.0, /*device_id=*/0});
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t got, executor_->Count(where));
    EXPECT_EQ(got, want);
  }
  ASSERT_TRUE(Quarantined());
  const uint64_t draws_with_open_breaker = device_.fault_injector().draws();

  // While open, calls short-circuit to the CPU tier: the device sees no new
  // work at all (the probe interval is 8, and we issue fewer calls).
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t got, executor_->Count(where));
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(device_.fault_injector().draws(), draws_with_open_breaker);

  // Heal the device; the next probe closes the breaker again.
  device_.ConfigureFaults({/*seed=*/5, /*rate=*/0.0, /*device_id=*/0});
  bool closed = false;
  for (int i = 0; i < 16 && !closed; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t got, executor_->Count(where));
    EXPECT_EQ(got, want);
    closed = !Quarantined();
  }
  EXPECT_TRUE(closed);
}

TEST_F(ResilienceTest, VramBudgetExhaustionDegradesToCpu) {
  // A budget too small for any column texture: BindingFor's upload fails
  // with ResourceExhausted, which is a device fault -> CPU fallback.
  ASSERT_TRUE(device_.SetVideoMemoryBudget(1024).ok());
  const ExprPtr where = Expr::Pred(0, CompareOp::kGreater, 5000.0f);
  ASSERT_OK_AND_ASSIGN(const uint64_t want, reference_->Count(where));
  const uint64_t fellback_before = CounterValue("queries.fell_back");
  ASSERT_OK_AND_ASSIGN(uint64_t got, executor_->Count(where));
  EXPECT_EQ(got, want);
  EXPECT_GT(CounterValue("queries.fell_back"), fellback_before);
}

TEST(FaultDomains, PerDeviceSeedsDivergeAndReproduce) {
  // One base seed, distinct device ids: each failure domain draws from its
  // own stream (seed ^ SplitMix64(device_id)), so the same pass sequence
  // faults at different points on different devices -- and identically on
  // re-runs of the same device id.
  const uint64_t seed = 42;
  const double rate = 0.2;
  auto sequence = [&](uint32_t device_id) {
    gpu::FaultInjector injector;
    injector.Configure({seed, rate, device_id});
    std::vector<bool> fired;
    for (int i = 0; i < 256; ++i) fired.push_back(!injector.OnPass().ok());
    return fired;
  };
  const std::vector<bool> dev0 = sequence(0);
  const std::vector<bool> dev1 = sequence(1);
  const std::vector<bool> dev2 = sequence(2);
  EXPECT_EQ(dev0, sequence(0)) << "device 0 stream must be reproducible";
  EXPECT_EQ(dev1, sequence(1)) << "device 1 stream must be reproducible";
  EXPECT_NE(dev0, dev1) << "failure domains must not share one stream";
  EXPECT_NE(dev1, dev2) << "failure domains must not share one stream";
  // The legacy single-device config (device_id defaulted) is domain 0.
  gpu::FaultInjector legacy;
  legacy.Configure({seed, rate});
  std::vector<bool> fired;
  for (int i = 0; i < 256; ++i) fired.push_back(!legacy.OnPass().ok());
  EXPECT_EQ(fired, dev0);
}

}  // namespace
}  // namespace core
}  // namespace gpudb
