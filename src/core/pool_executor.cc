#include "src/core/pool_executor.h"

#include <optional>
#include <string>
#include <utility>

#include "src/common/metrics.h"
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

}  // namespace

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
    ResilienceMetrics::Get().deadline_exceeded.Increment();
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

Result<Executor*> PoolExecutor::ShardExecutorFor(size_t shard_index,
                                                 int device_id) {
  const auto key = std::make_pair(shard_index, device_id);
  auto it = executors_.find(key);
  const db::Table& table = *shards_[shard_index].table;
  if (it == executors_.end()) {
    GPUDB_ASSIGN_OR_RETURN(std::unique_ptr<Executor> exec,
                           Executor::Make(&pool_->device(device_id), &table));
    it = executors_.emplace(key, std::move(exec)).first;
    return it->second.get();
  }
  // Devices multiplex shards (and tables, and sessions); restore this
  // shard's viewport before running anything.
  GPUDB_RETURN_NOT_OK(pool_->device(device_id).SetViewport(table.num_rows()));
  return it->second.get();
}

template <typename GpuOp, typename CpuOp>
std::invoke_result_t<const GpuOp&, Executor&> PoolExecutor::RunShard(
    size_t shard_index, const char* op_name, const GpuOp& gpu_op,
    const CpuOp& cpu_op) {
  ResilienceMetrics& metrics = ResilienceMetrics::Get();
  const ShardRef& shard = shards_[shard_index];
  // The statement's deadline stays responsive across the whole scatter:
  // every dispatch starts by consulting it.
  GPUDB_RETURN_NOT_OK(CheckInterrupt());
  if (last_stats_.first_device < 0) {
    last_stats_.first_device = shard.placement.primary;
  }
  const int candidates[2] = {shard.placement.primary,
                             shard.placement.replica};
  const int num_candidates = shard.placement.replicated() ? 2 : 1;
  Status last_fault = Status::OK();
  auto hop_off = [&](int device_id) {
    ResilienceMetrics::Failovers().Increment();
    ++last_stats_.failovers;
    if (last_stats_.first_failed_device < 0) {
      last_stats_.first_failed_device = device_id;
    }
  };
  for (int hop = 0; hop < num_candidates; ++hop) {
    const int device_id = candidates[hop];
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
    // The health gate (quarantine is the open breaker), then the lease.
    // TryAcquire refuses a card that was pulled while this dispatch waited.
    if (!pool_->AdmitDispatch(device_id)) {
      outcome("refused");
      hop_off(device_id);
      continue;
    }
    Result<gpu::DevicePool::Lease> lease = pool_->TryAcquire(device_id);
    if (!lease.ok()) {
      outcome("refused");
      hop_off(device_id);
      continue;
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
      ++last_stats_.retries;
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
    last_stats_.counters += gpu::DeltaSince(before, device.counters());
    if (result.ok()) {
      pool_->RecordSuccess(device_id);
      outcome("ok");
      return result;
    }
    const Status& status = result.status();
    if (status.IsDeadlineExceeded()) {
      metrics.deadline_exceeded.Increment();
      return result;
    }
    // User errors (bad column, k out of range, ...) are not the device's
    // fault: no health record, no hop.
    if (!IsDeviceFault(status)) return result;
    pool_->RecordFailure(device_id);
    device.ResetQueryState();
    last_fault = status;
    outcome("fault");
    hop_off(device_id);
  }
  // The CPU tier answers what it has an exact equivalent for.
  if constexpr (!std::is_same_v<CpuOp, std::nullptr_t>) {
    if (resilience_.allow_cpu_fallback) {
      GPUDB_RETURN_NOT_OK(CheckInterrupt());
      last_stats_.cpu_fallback = true;
      metrics.fell_back.Increment();
      MetricsRegistry::Global()
          .counter("queries.fell_back." + std::string(op_name))
          .Increment();
      TraceResilienceEvent("resilience.fallback", op_name);
      return cpu_op(*shard.table);
    }
  }
  if (!last_fault.ok()) return last_fault;
  return Status::DeviceLost("shard " + std::to_string(shard_index) +
                            ": every placement is quarantined and no CPU "
                            "tier answers");
}

Result<uint64_t> PoolExecutor::Count(const predicate::ExprPtr& where) {
  const Statement statement(this);
  uint64_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t count,
        RunShard(
            i, "count", [&](Executor& exec) { return exec.Count(where); },
            [&](const db::Table& table) {
              return cpu_tier::Count(table, where);
            }));
    total += count;
  }
  return total;
}

Result<std::vector<uint32_t>> PoolExecutor::SelectRowIds(
    const predicate::ExprPtr& where) {
  const Statement statement(this);
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < shards_.size(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(
        std::vector<uint32_t> part,
        RunShard(
            i, "select_row_ids",
            [&](Executor& exec) { return exec.SelectRowIds(where); },
            [&](const db::Table& table) {
              return cpu_tier::RowIds(table, where);
            }));
    if (shards_.size() == 1) return part;
    // Shards are contiguous ranges in order, so offsetting and appending
    // keeps the global id list sorted -- identical to one-device output.
    for (uint32_t local : part) rows.push_back(shards_[i].row_begin + local);
  }
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
  for (size_t i = 0; i < shards_.size(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(
        PartialAggregate part,
        RunShard(
            i, "aggregate",
            [&](Executor& exec) {
              return exec.AggregatePartial(kind, column, where);
            },
            [&](const db::Table& table) {
              return cpu_tier::AggregatePartial(table, kind, column, where);
            }));
    MergeAggregate(kind, part, &total);
  }
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
      });
}

Result<std::vector<uint32_t>> PoolExecutor::OrderByRowIds(
    std::string_view column, bool ascending) {
  const Statement statement(this);
  GPUDB_RETURN_NOT_OK(RequireOneShard("ORDER BY"));
  return RunShard(
      0, "order_by",
      [&](Executor& exec) { return exec.OrderByRowIds(column, ascending); },
      nullptr);
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
      nullptr);
}

Result<std::vector<uint32_t>> PoolExecutor::Quantiles(std::string_view column,
                                                      int q) {
  const Statement statement(this);
  GPUDB_RETURN_NOT_OK(RequireOneShard("quantiles"));
  return RunShard(
      0, "quantiles",
      [&](Executor& exec) { return exec.Quantiles(column, q); }, nullptr);
}

}  // namespace core
}  // namespace gpudb
