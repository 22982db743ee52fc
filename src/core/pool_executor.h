#ifndef GPUDB_CORE_POOL_EXECUTOR_H_
#define GPUDB_CORE_POOL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/aggregates.h"
#include "src/core/executor.h"
#include "src/core/resilience.h"
#include "src/db/sharding.h"
#include "src/gpu/device_pool.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace core {

/// \brief Per-query outcome of the scatter/gather path, for query-log
/// attribution (which failure domain served / failed, what the shards cost)
/// and tests.
struct PoolQueryStats {
  uint64_t failovers = 0;        ///< Shard hops off their primary device.
  int first_device = -1;         ///< Primary device of the first shard run.
  int first_failed_device = -1;  ///< First device a shard hopped off, or -1.
  bool cpu_fallback = false;     ///< Some shard was answered by the CPU tier.
  uint64_t retries = 0;          ///< In-place retries inside shard attempts.
  /// Device work of every shard dispatch, summed over the pool devices:
  /// each dispatch's counter delta is taken on its device while the lease
  /// is held, so other sessions' shards never leak in.
  gpu::DeviceCounters counters;
};

/// \brief Scatter/gather executor over a ShardedTable on a DevicePool
/// (DESIGN.md §15).
///
/// Each decomposable operator runs shard by shard on the shard's primary
/// device and the per-shard answers are recombined:
///
///   Count / RangeCount : sum of per-shard counts
///   SelectRowIds       : per-shard ids + row_begin, concatenated in order
///   SelectBitmap       : per-shard bitmaps concatenated
///   SUM / MIN / MAX / AVG : per-shard PartialAggregates (selection count
///                        and value from one WHERE), merged: sums of exact
///                        integer sums, min/max over non-empty shards, one
///                        AVG division over the totals
///
/// All of these are bit-exact against single-device execution: integer
/// columns use the data-independent exact depth encoding, sums are exact
/// uint64 accumulations, and range sharding preserves row order (see
/// db/sharding.h). Non-decomposable operators (MEDIAN, KTH_LARGEST,
/// GROUP BY, ORDER BY) are *single-device* operators per the EXTENDING.md
/// rule and return kNotImplemented here; callers route them to a plain
/// Executor.
///
/// Failure domains: a shard whose device is refused by the pool
/// (quarantined / force-lost) or faults through its retries fails over to
/// its replica device, then to the CPU tier -- each hop counted in
/// `pool.failovers`. User errors propagate immediately without failover.
///
/// Thread model: one PoolExecutor serves one session (its executor cache is
/// not locked); devices are shared across sessions and every dispatch holds
/// the pool's per-device lease, so concurrent sessions interleave at shard
/// granularity.
class PoolExecutor {
 public:
  /// Both pointers must outlive the executor. Every shard must fit the
  /// pool's device framebuffers.
  [[nodiscard]] static Result<std::unique_ptr<PoolExecutor>> Make(
      gpu::DevicePool* pool, const db::ShardedTable* sharded);

  [[nodiscard]] Result<uint64_t> Count(const predicate::ExprPtr& where);
  [[nodiscard]] Result<std::vector<uint8_t>> SelectBitmap(
      const predicate::ExprPtr& where);
  [[nodiscard]] Result<std::vector<uint32_t>> SelectRowIds(
      const predicate::ExprPtr& where);
  [[nodiscard]] Result<double> Aggregate(AggregateKind kind,
                                         std::string_view column,
                                         const predicate::ExprPtr& where =
                                             nullptr);
  [[nodiscard]] Result<uint64_t> RangeCount(std::string_view column,
                                            double low, double high);

  /// True for aggregates the scatter/gather path can recombine bit-exactly
  /// (COUNT/SUM/AVG/MIN/MAX); MEDIAN is an order statistic and stays
  /// single-device.
  static bool ShardableAggregate(AggregateKind kind);

  /// Resilience applied inside each per-shard attempt (retry/deadline); the
  /// CPU rung of the ladder is governed by the failover policy, not the
  /// per-executor flag, so `allow_cpu_fallback` is forced off on shard
  /// executors -- the pool owns the ladder.
  void set_resilience_options(const ResilienceOptions& options);
  void set_failover_policy(const FailoverPolicy& policy) {
    failover_ = policy;
  }

  const PoolQueryStats& last_stats() const { return last_stats_; }
  const db::ShardedTable& sharded() const { return *sharded_; }
  gpu::DevicePool& pool() { return *pool_; }

 private:
  PoolExecutor(gpu::DevicePool* pool, const db::ShardedTable* sharded)
      : pool_(pool), sharded_(sharded) {}

  /// The cached executor for (shard, device); created on first use. Must be
  /// called with the device's lease held.
  [[nodiscard]] Result<Executor*> ShardExecutorFor(size_t shard_index, int device_id);

  /// Runs one shard through the failover ladder: primary -> replica -> CPU.
  template <typename T>
  [[nodiscard]] Result<T> RunShard(
      size_t shard_index, const char* op_name,
      const std::function<Result<T>(Executor&)>& gpu_op,
      const std::function<Result<T>(const db::Table&)>& cpu_op);

  /// One shard's COUNT(*) dispatch.
  [[nodiscard]] Result<uint64_t> ShardCount(size_t shard_index,
                                            const predicate::ExprPtr& where);

  gpu::DevicePool* pool_;
  const db::ShardedTable* sharded_;
  ResilienceOptions resilience_;
  FailoverPolicy failover_;
  PoolQueryStats last_stats_;
  std::map<std::pair<size_t, int>, std::unique_ptr<Executor>> executors_;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_POOL_EXECUTOR_H_
