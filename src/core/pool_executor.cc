#include "src/core/pool_executor.h"

#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/trace.h"
#include "src/core/cpu_tier.h"

namespace gpudb {
namespace core {

namespace {

/// Resilience outcome counters (cached references; see DeviceMetrics).
struct ResilienceMetrics {
  MetricCounter& retried =
      MetricsRegistry::Global().counter("queries.retried");
  MetricCounter& retry_attempts =
      MetricsRegistry::Global().counter("queries.retry_attempts");
  MetricCounter& fell_back =
      MetricsRegistry::Global().counter("queries.fell_back");
  MetricCounter& deadline_exceeded =
      MetricsRegistry::Global().counter("queries.deadline_exceeded");

  static ResilienceMetrics& Get() {
    static ResilienceMetrics metrics;
    return metrics;
  }

  /// `pool.failovers`, bumped on every hop off a device (every
  /// gpu::DevicePool registers it when built).
  static MetricCounter& Failovers() {
    static MetricCounter& failovers =
        MetricsRegistry::Global().counter("pool.failovers");
    return failovers;
  }
};

/// One `queries.deadline_exceeded` per operator that ends on the deadline,
/// however many of its shards ran into it.
void CountDeadline(const Status& status) {
  if (status.IsDeadlineExceeded()) {
    ResilienceMetrics::Get().deadline_exceeded.Increment();
  }
}

/// Stamps a resilience event into the active trace (zero-duration span
/// nested under the operator that hit it), so EXPLAIN ANALYZE and the
/// Chrome trace show *where* a query degraded, not just that it did.
void TraceResilienceEvent(const char* event, const char* op_name,
                          int attempt = -1) {
  if (!Tracer::Current().enabled()) return;
  TraceSpan span(event);
  span.AddTag("op", op_name);
  if (attempt >= 0) span.AddTag("attempt", attempt);
}

/// Folds the stats of a later shard into `into`: sums, ORs, and the
/// first device of each kind, as if the shards had run in order.
void MergeStats(const PoolQueryStats& later, PoolQueryStats* into) {
  into->failovers += later.failovers;
  if (into->first_device < 0) into->first_device = later.first_device;
  if (into->first_failed_device < 0) {
    into->first_failed_device = later.first_failed_device;
  }
  into->cpu_fallback = into->cpu_fallback || later.cpu_fallback;
  into->retries += later.retries;
  into->counters += later.counters;
}

}  // namespace

/// \brief Persistent helper threads for a multi-device scatter.
///
/// Run(task) runs task(0) on the calling thread and task(p) on helper p
/// for every other part p, and returns once all parts have finished. The
/// threads start with the object and sleep between runs, so a statement
/// spawns none. Each helper adopts the caller's TraceContext for its part,
/// so its spans land in the caller's tracer under the caller's open span.
/// One Run at a time: a PoolExecutor's statement thread is its only caller.
class ScatterHelpers {
 public:
  /// Starts `parts - 1` helper threads.
  explicit ScatterHelpers(size_t parts);
  ~ScatterHelpers();

  ScatterHelpers(const ScatterHelpers&) = delete;
  ScatterHelpers& operator=(const ScatterHelpers&) = delete;

  void Run(const std::function<void(size_t)>& task);

 private:
  void Loop(size_t part);

  /// Lock-order level: `scatter` (3, beside device and thread_pool) -- held
  /// only to post a run and to count a part done; task bodies run with mu_
  /// released, so no device, pool or telemetry lock is taken under it.
  Mutex mu_;
  CondVar work_ready_;
  CondVar work_done_;
  const std::function<void(size_t)>* task_ GUARDED_BY(mu_) = nullptr;
  TraceContext context_ GUARDED_BY(mu_);  ///< The caller's, for this run.
  uint64_t run_id_ GUARDED_BY(mu_) = 0;   ///< Helpers skip runs they saw.
  size_t remaining_ GUARDED_BY(mu_) = 0;  ///< Helper parts not yet done.
  bool shutdown_ GUARDED_BY(mu_) = false;
  // lint: lock-free (written only by the constructor, before any helper
  // can observe it; joined by the destructor after shutdown)
  std::vector<std::thread> threads_;
};

ScatterHelpers::ScatterHelpers(size_t parts) {
  threads_.reserve(parts > 1 ? parts - 1 : 0);
  for (size_t part = 1; part < parts; ++part) {
    threads_.emplace_back([this, part] { Loop(part); });
  }
}

ScatterHelpers::~ScatterHelpers() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
}

void ScatterHelpers::Run(const std::function<void(size_t)>& task) {
  {
    MutexLock lock(&mu_);
    task_ = &task;
    context_ = TraceContext::Current();
    remaining_ = threads_.size();
    ++run_id_;
  }
  work_ready_.NotifyAll();
  task(0);
  MutexLock lock(&mu_);
  while (remaining_ != 0) work_done_.Wait(mu_);
  task_ = nullptr;
}

void ScatterHelpers::Loop(size_t part) {
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t)>* task = nullptr;
    TraceContext context;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && run_id_ == seen) work_ready_.Wait(mu_);
      if (shutdown_) return;
      seen = run_id_;
      task = task_;
      context = context_;
    }
    {
      const TraceAdoption adoption(context);
      (*task)(part);
    }
    MutexLock lock(&mu_);
    if (--remaining_ == 0) work_done_.NotifyOne();
  }
}

PoolExecutor::PoolExecutor(gpu::DevicePool* pool, std::vector<ShardRef> shards)
    : pool_(pool),
      shards_(std::move(shards)),
      executors_(shards_.size() * static_cast<size_t>(pool->size())) {
  if (shards_.size() == 1) return;
  std::vector<std::vector<size_t>> by_device(
      static_cast<size_t>(pool->size()));
  for (size_t i = 0; i < shards_.size(); ++i) {
    by_device[static_cast<size_t>(shards_[i].placement.primary)].push_back(i);
  }
  for (std::vector<size_t>& group : by_device) {
    if (!group.empty()) groups_.push_back(std::move(group));
  }
  if (groups_.size() > 1) {
    helpers_ = std::make_unique<ScatterHelpers>(groups_.size());
  }
}

PoolExecutor::~PoolExecutor() = default;

Result<std::unique_ptr<PoolExecutor>> PoolExecutor::Make(
    gpu::DevicePool* pool, const db::ShardedTable* sharded) {
  if (pool == nullptr || sharded == nullptr) {
    return Status::InvalidArgument(
        "PoolExecutor requires a device pool and a sharded table");
  }
  if (sharded->num_shards() == 0) {
    return Status::InvalidArgument("sharded table has no shards");
  }
  const uint64_t pixels =
      static_cast<uint64_t>(pool->options().width) * pool->options().height;
  std::vector<ShardRef> shards;
  shards.reserve(sharded->num_shards());
  for (size_t i = 0; i < sharded->num_shards(); ++i) {
    const db::Shard& shard = sharded->shard(i);
    if (shard.table.num_rows() > pixels) {
      return Status::ResourceExhausted(
          "shard " + std::to_string(i) + " has " +
          std::to_string(shard.table.num_rows()) +
          " rows but pool devices hold only " + std::to_string(pixels) +
          " pixels; use more shards or larger devices");
    }
    if (shard.placement.primary >= pool->size() ||
        shard.placement.replica >= pool->size()) {
      return Status::InvalidArgument(
          "shard placement references a device outside the pool");
    }
    shards.push_back({&shard.table, shard.row_begin, shard.placement});
  }
  return std::unique_ptr<PoolExecutor>(
      new PoolExecutor(pool, std::move(shards)));
}

Result<std::unique_ptr<PoolExecutor>> PoolExecutor::Make(
    gpu::DevicePool* pool, const db::Table* table) {
  if (pool == nullptr || table == nullptr) {
    return Status::InvalidArgument(
        "PoolExecutor requires a device pool and a table");
  }
  // Whether the table fits the device is Executor::Make's check, on the
  // first dispatch.
  return std::unique_ptr<PoolExecutor>(
      new PoolExecutor(pool, {ShardRef{table, 0, db::ShardPlacement{}}}));
}

PoolExecutor::Statement::Statement(PoolExecutor* exec)
    : exec_(exec), outermost_(!exec->in_statement_) {
  if (!outermost_) return;
  exec_->in_statement_ = true;
  exec_->last_stats_ = PoolQueryStats();
  const ResilienceOptions& options = exec_->resilience_;
  exec_->expiry_ =
      options.deadline_ms > 0.0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   options.deadline_ms))
          : Clock::time_point::max();
}

bool PoolExecutor::ShardableAggregate(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return true;
    case AggregateKind::kMedian:
      return false;
  }
  return false;
}

Status PoolExecutor::RequireOneShard(std::string_view op) const {
  if (shards_.size() == 1) return Status::OK();
  return Status::NotImplemented(
      std::string(op) +
      " cannot be recombined from per-shard answers; it is a single-device "
      "operator (EXTENDING.md)");
}

Status PoolExecutor::CheckInterrupt() const {
  if (expiry_ != Clock::time_point::max() && Clock::now() >= expiry_) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

Result<Executor*> PoolExecutor::ShardExecutorFor(size_t shard_index,
                                                 int device_id) {
  std::unique_ptr<Executor>& slot =
      executors_[shard_index * static_cast<size_t>(pool_->size()) +
                 static_cast<size_t>(device_id)];
  const db::Table& table = *shards_[shard_index].table;
  if (slot == nullptr) {
    GPUDB_ASSIGN_OR_RETURN(slot,
                           Executor::Make(&pool_->device(device_id), &table));
    return slot.get();
  }
  // Devices multiplex shards (and tables, and sessions); restore this
  // shard's viewport before running anything.
  GPUDB_RETURN_NOT_OK(pool_->device(device_id).SetViewport(table.num_rows()));
  return slot.get();
}

template <typename GpuOp>
std::optional<std::invoke_result_t<const GpuOp&, Executor&>>
PoolExecutor::TryPlacement(size_t shard_index, int hop, const char* op_name,
                           const GpuOp& gpu_op, PoolQueryStats* stats,
                           Status* fault) {
  ResilienceMetrics& metrics = ResilienceMetrics::Get();
  const db::ShardPlacement& placement = shards_[shard_index].placement;
  const int device_id = hop == 0 ? placement.primary : placement.replica;
  if (hop == 0) {
    // The statement's deadline stays responsive across the whole scatter:
    // every shard starts by consulting it.
    GPUDB_RETURN_NOT_OK(CheckInterrupt());
    if (stats->first_device < 0) stats->first_device = device_id;
  }
  // One span per placement tried. A one-shard executor opens none, so a
  // single-device statement's EXPLAIN tree has no ladder node in it.
  std::optional<TraceSpan> span;
  if (shards_.size() > 1) {
    span.emplace("pool.shard");
    span->AddTag("op", op_name);
    span->AddTag("shard", static_cast<uint64_t>(shard_index));
    span->AddTag("device", device_id);
    span->AddTag("role", hop == 0 ? "primary" : "replica");
  }
  auto outcome = [&span](const char* what) {
    if (span.has_value()) span->AddTag("outcome", what);
  };
  auto hop_off = [&] {
    ResilienceMetrics::Failovers().Increment();
    ++stats->failovers;
    if (stats->first_failed_device < 0) {
      stats->first_failed_device = device_id;
    }
  };
  // The health gate (quarantine is the open breaker), then the lease.
  // TryAcquire refuses a card that was pulled while this dispatch waited.
  if (!pool_->AdmitDispatch(device_id)) {
    outcome("refused");
    hop_off();
    return std::nullopt;
  }
  Result<gpu::DevicePool::Lease> lease = pool_->TryAcquire(device_id);
  if (!lease.ok()) {
    outcome("refused");
    hop_off();
    return std::nullopt;
  }
  gpu::Device& device = pool_->device(device_id);
  const gpu::DeviceCounters before = device.counters();
  GPUDB_ASSIGN_OR_RETURN(Executor * exec,
                         ShardExecutorFor(shard_index, device_id));
  // The attempt, under the statement's deadline (armed on this device for
  // this dispatch only), with bounded in-place retry of transient faults.
  const bool arm =
      expiry_ != Clock::time_point::max() && !device.deadline_armed();
  if (arm) device.ArmDeadlineAt(expiry_);
  auto result = gpu_op(*exec);
  for (int retry = 0; !result.ok() && IsTransientFault(result.status()) &&
                      retry < kMaxAttempts - 1;
       ++retry) {
    if (retry == 0) metrics.retried.Increment();
    ++stats->retries;
    metrics.retry_attempts.Increment();
    TraceResilienceEvent("resilience.retry", op_name, retry + 1);
    BackoffSleep(RetryDelayMs(retry), resilience_.sleep);
    device.ResetQueryState();
    const Status interrupt = device.CheckInterrupt();
    if (!interrupt.ok()) {
      result = interrupt;
      break;
    }
    result = gpu_op(*exec);
  }
  if (arm) device.DisarmDeadline();
  // Charge the dispatch to this statement while the lease still pins the
  // device to it: faulted attempts did real work too.
  stats->counters += gpu::DeltaSince(before, device.counters());
  if (result.ok()) {
    pool_->RecordSuccess(device_id);
    outcome("ok");
    return result;
  }
  const Status status = result.status();
  // The deadline and user errors (bad column, k out of range, ...) are not
  // the device's fault: no health record, no hop.
  if (!IsDeviceFault(status)) return result;
  pool_->RecordFailure(device_id);
  device.ResetQueryState();
  *fault = status;
  outcome("fault");
  hop_off();
  return std::nullopt;
}

template <typename GpuOp, typename CpuOp>
std::invoke_result_t<const GpuOp&, Executor&> PoolExecutor::RunFallback(
    size_t shard_index, const char* op_name, const GpuOp& gpu_op,
    const CpuOp& cpu_op, PoolQueryStats* stats, Status fault) {
  if (shards_[shard_index].placement.replicated()) {
    if (auto answer =
            TryPlacement(shard_index, 1, op_name, gpu_op, stats, &fault)) {
      return *std::move(answer);
    }
  }
  // The CPU tier answers what it has an exact equivalent for.
  if constexpr (!std::is_same_v<CpuOp, std::nullptr_t>) {
    if (resilience_.allow_cpu_fallback) {
      GPUDB_RETURN_NOT_OK(CheckInterrupt());
      stats->cpu_fallback = true;
      ResilienceMetrics::Get().fell_back.Increment();
      MetricsRegistry::Global()
          .counter("queries.fell_back." + std::string(op_name))
          .Increment();
      TraceResilienceEvent("resilience.fallback", op_name);
      return cpu_op(*shards_[shard_index].table);
    }
  }
  if (!fault.ok()) return fault;
  return Status::DeviceLost("shard " + std::to_string(shard_index) +
                            ": every placement is quarantined and no CPU "
                            "tier answers");
}

template <typename GpuOp, typename CpuOp>
std::invoke_result_t<const GpuOp&, Executor&> PoolExecutor::RunShard(
    size_t shard_index, const char* op_name, const GpuOp& gpu_op,
    const CpuOp& cpu_op, PoolQueryStats* stats) {
  Status fault;
  auto answer = TryPlacement(shard_index, 0, op_name, gpu_op, stats, &fault);
  if (!answer.has_value()) {
    answer = RunFallback(shard_index, op_name, gpu_op, cpu_op, stats,
                         std::move(fault));
  }
  CountDeadline(answer->status());
  return *std::move(answer);
}

template <typename GpuOp, typename CpuOp, typename Gather>
Status PoolExecutor::Scatter(const char* op_name, const GpuOp& gpu_op,
                             const CpuOp& cpu_op, const Gather& gather) {
  if (shards_.size() == 1) {
    auto answer = RunShard(0, op_name, gpu_op, cpu_op, &last_stats_);
    GPUDB_RETURN_NOT_OK(answer.status());
    gather(0, std::move(answer).ValueOrDie());
    return Status::OK();
  }
  using Answer = std::invoke_result_t<const GpuOp&, Executor&>;
  struct ShardRun {
    std::optional<Answer> answer;  ///< Unset: hopped off its primary.
    Status fault;                  ///< The device fault it hopped off with.
    PoolQueryStats stats;
  };
  std::vector<ShardRun> runs(shards_.size());
  // Phase 1: every group at once, each group's shards in shard order on
  // their primary device. A status that ends a shard ends its group.
  const std::function<void(size_t)> run_group = [&](size_t group) {
    for (const size_t i : groups_[group]) {
      ShardRun& run = runs[i];
      run.answer = TryPlacement(i, 0, op_name, gpu_op, &run.stats, &run.fault);
      if (run.answer.has_value() && !run.answer->ok()) return;
    }
  };
  if (helpers_ != nullptr) {
    helpers_->Run(run_group);
  } else {
    run_group(0);
  }
  // Phase 2, in shard order on this thread: the hopped shards' replica and
  // CPU rungs, then the gather. A group stops only after a failing shard,
  // so every shard it skipped comes after the first failure and is never
  // reached here; the stats of all work done are merged all the same.
  Status status;
  for (size_t i = 0; i < runs.size(); ++i) {
    ShardRun& run = runs[i];
    if (status.ok()) {
      Answer answer = run.answer.has_value()
                          ? *std::move(run.answer)
                          : RunFallback(i, op_name, gpu_op, cpu_op,
                                        &run.stats, std::move(run.fault));
      if (answer.ok()) {
        gather(i, std::move(answer).ValueOrDie());
      } else {
        status = answer.status();
      }
    }
    MergeStats(run.stats, &last_stats_);
  }
  CountDeadline(status);
  return status;
}

Result<uint64_t> PoolExecutor::Count(const predicate::ExprPtr& where) {
  const Statement statement(this);
  uint64_t total = 0;
  GPUDB_RETURN_NOT_OK(Scatter(
      "count", [&](Executor& exec) { return exec.Count(where); },
      [&](const db::Table& table) { return cpu_tier::Count(table, where); },
      [&](size_t, uint64_t count) { total += count; }));
  return total;
}

Result<std::vector<uint32_t>> PoolExecutor::SelectRowIds(
    const predicate::ExprPtr& where) {
  const Statement statement(this);
  std::vector<uint32_t> rows;
  GPUDB_RETURN_NOT_OK(Scatter(
      "select_row_ids",
      [&](Executor& exec) { return exec.SelectRowIds(where); },
      [&](const db::Table& table) { return cpu_tier::RowIds(table, where); },
      [&](size_t i, std::vector<uint32_t> part) {
        // Shards are contiguous ranges in order, so offsetting and
        // appending keeps the global id list sorted -- identical to
        // one-device output.
        const uint32_t row_begin = shards_[i].row_begin;
        if (rows.empty() && row_begin == 0) {
          rows = std::move(part);
          return;
        }
        for (uint32_t local : part) rows.push_back(row_begin + local);
      }));
  return rows;
}

Result<double> PoolExecutor::Aggregate(AggregateKind kind,
                                       std::string_view column,
                                       const predicate::ExprPtr& where) {
  const Statement statement(this);
  if (!ShardableAggregate(kind)) {
    GPUDB_RETURN_NOT_OK(RequireOneShard(ToString(kind)));
  }
  // One dispatch per shard returns the shard's selection count beside its
  // partial aggregate. Counts and integer sums add exactly (<= 2^24 values
  // of <= 24 bits each fits a double), MIN/MAX skip empty shards, and AVG
  // divides once over the totals: identical to the single-device answer.
  PartialAggregate total;
  GPUDB_RETURN_NOT_OK(Scatter(
      "aggregate",
      [&](Executor& exec) {
        return exec.AggregatePartial(kind, column, where);
      },
      [&](const db::Table& table) {
        return cpu_tier::AggregatePartial(table, kind, column, where);
      },
      [&](size_t, const PartialAggregate& part) {
        MergeAggregate(kind, part, &total);
      }));
  return FinishAggregate(kind, total);
}

Result<uint32_t> PoolExecutor::KthLargest(std::string_view column, uint64_t k,
                                          const predicate::ExprPtr& where) {
  const Statement statement(this);
  GPUDB_RETURN_NOT_OK(RequireOneShard("KTH_LARGEST"));
  return RunShard(
      0, "kth_largest",
      [&](Executor& exec) { return exec.KthLargest(column, k, where); },
      [&](const db::Table& table) {
        return cpu_tier::KthLargest(table, column, k, where);
      },
      &last_stats_);
}

Result<std::vector<uint32_t>> PoolExecutor::OrderByRowIds(
    std::string_view column, bool ascending) {
  const Statement statement(this);
  GPUDB_RETURN_NOT_OK(RequireOneShard("ORDER BY"));
  return RunShard(
      0, "order_by",
      [&](Executor& exec) { return exec.OrderByRowIds(column, ascending); },
      nullptr, &last_stats_);
}

Result<std::vector<GroupByRow>> PoolExecutor::GroupBy(
    std::string_view key_column, std::string_view value_column,
    AggregateKind kind, uint64_t max_groups) {
  const Statement statement(this);
  GPUDB_RETURN_NOT_OK(RequireOneShard("GROUP BY"));
  return RunShard(
      0, "group_by",
      [&](Executor& exec) {
        return exec.GroupBy(key_column, value_column, kind, max_groups);
      },
      nullptr, &last_stats_);
}

Result<std::vector<uint32_t>> PoolExecutor::Quantiles(std::string_view column,
                                                      int q) {
  const Statement statement(this);
  GPUDB_RETURN_NOT_OK(RequireOneShard("quantiles"));
  return RunShard(
      0, "quantiles",
      [&](Executor& exec) { return exec.Quantiles(column, q); }, nullptr,
      &last_stats_);
}

}  // namespace core
}  // namespace gpudb
