#include "src/core/pool_executor.h"

#include <string>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/cpu_tier.h"

namespace gpudb {
namespace core {

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
  }
  return std::unique_ptr<PoolExecutor>(new PoolExecutor(pool, sharded));
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

void PoolExecutor::set_resilience_options(const ResilienceOptions& options) {
  resilience_ = options;
  // The pool owns the degradation ladder: per-shard attempts may retry in
  // place, but the CPU rung is a failover decision made here, after the
  // replica, never inside a shard executor.
  resilience_.allow_cpu_fallback = false;
  for (auto& [key, exec] : executors_) {
    exec->set_resilience_options(resilience_);
  }
}

Result<Executor*> PoolExecutor::ShardExecutorFor(size_t shard_index,
                                            int device_id) {
  const auto key = std::make_pair(shard_index, device_id);
  auto it = executors_.find(key);
  const db::Shard& shard = sharded_->shard(shard_index);
  if (it == executors_.end()) {
    GPUDB_ASSIGN_OR_RETURN(
        std::unique_ptr<Executor> exec,
        Executor::Make(&pool_->device(device_id), &shard.table));
    exec->set_resilience_options(resilience_);
    it = executors_.emplace(key, std::move(exec)).first;
    return it->second.get();
  }
  // Devices multiplex shards (and sessions); restore this shard's viewport
  // before running anything.
  GPUDB_RETURN_NOT_OK(
      pool_->device(device_id).SetViewport(shard.table.num_rows()));
  return it->second.get();
}

template <typename T>
Result<T> PoolExecutor::RunShard(
    size_t shard_index, const char* op_name,
    const std::function<Result<T>(Executor&)>& gpu_op,
    const std::function<Result<T>(const db::Table&)>& cpu_op) {
  const db::Shard& shard = sharded_->shard(shard_index);
  // Cancellation stays responsive across the whole scatter: every shard
  // dispatch starts by consulting the primary's interrupt flag.
  GPUDB_RETURN_NOT_OK(
      pool_->device(shard.placement.primary).CheckInterrupt());
  if (last_stats_.first_device < 0) {
    last_stats_.first_device = shard.placement.primary;
  }
  const int candidates[2] = {shard.placement.primary,
                             shard.placement.replica};
  const int num_candidates =
      (failover_.try_replica && shard.placement.replicated()) ? 2 : 1;
  Status last_fault = Status::OK();
  auto hop_off = [&](int device_id) {
    pool_->RecordFailover(device_id);
    ++last_stats_.failovers;
    if (last_stats_.first_failed_device < 0) {
      last_stats_.first_failed_device = device_id;
    }
  };
  for (int attempt = 0; attempt < num_candidates; ++attempt) {
    const int device_id = candidates[attempt];
    TraceSpan span("pool.shard");
    span.AddTag("op", op_name);
    span.AddTag("shard", static_cast<uint64_t>(shard_index));
    span.AddTag("device", device_id);
    span.AddTag("role", attempt == 0 ? "primary" : "replica");
    if (!pool_->AdmitDispatch(device_id)) {
      span.AddTag("outcome", "refused");
      hop_off(device_id);
      continue;
    }
    Result<gpu::DevicePool::Lease> lease = pool_->TryAcquire(device_id);
    if (!lease.ok()) {
      // The admission verdict raced ForceDeviceLost: the card was pulled
      // while this shard waited for the lease. Same treatment as a refusal.
      span.AddTag("outcome", "refused");
      hop_off(device_id);
      continue;
    }
    const gpu::Device& device = pool_->device(device_id);
    const gpu::DeviceCounters before = device.counters();
    Result<Executor*> exec = ShardExecutorFor(shard_index, device_id);
    if (!exec.ok()) return exec.status();
    Executor& shard_exec = *exec.ValueOrDie();
    const uint64_t retries_before = shard_exec.resilience_tally().retries;
    Result<T> result = gpu_op(shard_exec);
    // Charge the dispatch to this statement while the lease still pins the
    // device to it: faulted attempts did real work too.
    last_stats_.counters += gpu::DeltaSince(before, device.counters());
    last_stats_.retries +=
        shard_exec.resilience_tally().retries - retries_before;
    if (result.ok()) {
      pool_->RecordSuccess(device_id);
      span.AddTag("outcome", "ok");
      return result;
    }
    // Deadline/cancel is the query's budget, not the device's fault -- and
    // the replica cannot beat the clock either.
    if (result.status().IsDeadlineExceeded() ||
        result.status().IsCancelled()) {
      return result;
    }
    // User errors propagate untouched: the replica holds an identical copy
    // and would fail identically.
    if (!IsDeviceFault(result.status())) return result;
    pool_->RecordFailure(device_id);
    last_fault = result.status();
    span.AddTag("outcome", "fault");
    hop_off(device_id);
  }
  if (!failover_.allow_cpu_fallback) {
    if (!last_fault.ok()) return last_fault;
    return Status::DeviceLost(
        "shard " + std::to_string(shard_index) +
        ": every placement quarantined and CPU fallback disabled");
  }
  last_stats_.cpu_fallback = true;
  MetricsRegistry::Global().counter("queries.fell_back").Increment();
  return cpu_op(shard.table);
}

Result<uint64_t> PoolExecutor::ShardCount(size_t shard_index,
                                          const predicate::ExprPtr& where) {
  return RunShard<uint64_t>(
      shard_index, "Count",
      [&](Executor& exec) { return exec.Count(where); },
      [&](const db::Table& table) { return cpu_tier::Count(table, where); });
}

Result<uint64_t> PoolExecutor::Count(const predicate::ExprPtr& where) {
  last_stats_ = PoolQueryStats();
  uint64_t total = 0;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(uint64_t count, ShardCount(i, where));
    total += count;
  }
  return total;
}

Result<std::vector<uint8_t>> PoolExecutor::SelectBitmap(
    const predicate::ExprPtr& where) {
  last_stats_ = PoolQueryStats();
  std::vector<uint8_t> bitmap;
  bitmap.reserve(sharded_->num_rows());
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(
        std::vector<uint8_t> part,
        RunShard<std::vector<uint8_t>>(
            i, "SelectBitmap",
            [&](Executor& exec) { return exec.SelectBitmap(where); },
            [&](const db::Table& table) {
              return cpu_tier::SelectionMask(table, where);
            }));
    bitmap.insert(bitmap.end(), part.begin(), part.end());
  }
  return bitmap;
}

Result<std::vector<uint32_t>> PoolExecutor::SelectRowIds(
    const predicate::ExprPtr& where) {
  last_stats_ = PoolQueryStats();
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    const uint32_t row_begin = sharded_->shard(i).row_begin;
    GPUDB_ASSIGN_OR_RETURN(
        std::vector<uint32_t> part,
        RunShard<std::vector<uint32_t>>(
            i, "SelectRowIds",
            [&](Executor& exec) { return exec.SelectRowIds(where); },
            [&](const db::Table& table) {
              return cpu_tier::RowIds(table, where);
            }));
    // Shards are contiguous ranges in order, so offsetting and appending
    // keeps the global id list sorted -- identical to one-device output.
    for (uint32_t local : part) rows.push_back(row_begin + local);
  }
  return rows;
}

Result<uint64_t> PoolExecutor::RangeCount(std::string_view column, double low,
                                          double high) {
  last_stats_ = PoolQueryStats();
  uint64_t total = 0;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    // Cancellation coverage (lint rule R2): a skipped pass must stop the
    // scatter loop, not leave it spinning through the remaining shards.
    GPUDB_RETURN_NOT_OK(
        pool_->device(sharded_->shard(i).placement.primary).CheckInterrupt());
    GPUDB_ASSIGN_OR_RETURN(
        uint64_t count,
        RunShard<uint64_t>(
            i, "RangeCount",
            [&](Executor& exec) { return exec.RangeCount(column, low, high); },
            [&](const db::Table& table) {
              return cpu_tier::RangeCount(table, column, low, high);
            }));
    total += count;
  }
  return total;
}

Result<double> PoolExecutor::Aggregate(AggregateKind kind,
                                       std::string_view column,
                                       const predicate::ExprPtr& where) {
  if (!ShardableAggregate(kind)) {
    return Status::NotImplemented(
        "MEDIAN is an order statistic over the whole selection and cannot be "
        "recombined from per-shard answers; it is a single-device operator "
        "(EXTENDING.md)");
  }
  // Mirror the single-device validation order: resolve the column before
  // touching the WHERE clause (COUNT(*) aside, which takes no column).
  if (kind != AggregateKind::kCount) {
    GPUDB_ASSIGN_OR_RETURN(size_t col,
                           sharded_->shard(0).table.ColumnIndex(column));
    (void)col;
  }
  last_stats_ = PoolQueryStats();
  if (kind == AggregateKind::kCount) {
    uint64_t total = 0;
    for (size_t i = 0; i < sharded_->num_shards(); ++i) {
      GPUDB_ASSIGN_OR_RETURN(uint64_t count, ShardCount(i, where));
      total += count;
    }
    return static_cast<double>(total);
  }
  // One dispatch per shard returns the shard's selection count beside its
  // partial aggregate. Counts and integer sums add exactly (<= 2^24 values
  // of <= 24 bits each fits a double), MIN/MAX skip empty shards, and AVG
  // divides once over the totals: identical to the single-device answer.
  PartialAggregate total;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    GPUDB_ASSIGN_OR_RETURN(
        PartialAggregate part,
        RunShard<PartialAggregate>(
            i, "Aggregate",
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

}  // namespace core
}  // namespace gpudb
