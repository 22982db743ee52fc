#ifndef GPUDB_CORE_POOL_EXECUTOR_H_
#define GPUDB_CORE_POOL_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
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

/// \brief Per-statement outcome of the dispatch ladder, for query-log
/// attribution (which failure domain served / failed, what the statement
/// cost) and tests.
struct PoolQueryStats {
  uint64_t failovers = 0;        ///< Shard hops off their primary device.
  int first_device = -1;         ///< Primary device of the first shard run.
  int first_failed_device = -1;  ///< First device a shard hopped off, or -1.
  bool cpu_fallback = false;     ///< Some shard was answered by the CPU tier.
  uint64_t retries = 0;          ///< In-place retries of device attempts.
  /// Device work of every dispatch, summed over the devices: each
  /// dispatch's counter delta is taken on its device while the lease is
  /// held, so other sessions' work never leaks in.
  gpu::DeviceCounters counters;
};

/// Helper threads of a multi-device scatter (pool_executor.cc).
class ScatterHelpers;

/// \brief The executor behind every sql::Session statement: scatter/gather
/// over the shards of a table on a DevicePool, each dispatch walking the one
/// degradation ladder (DESIGN.md §11, §15). A single device is a pool of one
/// (gpu::DevicePool::Borrow) running a one-shard executor over the whole,
/// uncopied table.
///
/// Each decomposable operator runs on every shard and the per-shard answers
/// are recombined in shard order:
///
///   Count        : sum of per-shard counts
///   SelectRowIds : per-shard ids + row_begin, concatenated in order
///   Aggregate    : COUNT / SUM / MIN / MAX / AVG as per-shard
///                  PartialAggregates (selection count and value from one
///                  WHERE), merged: sums of exact integer sums, min/max
///                  over non-empty shards, one AVG division over the totals
///
/// All of these are bit-exact against single-device execution: integer
/// columns use the data-independent exact depth encoding, sums are exact
/// uint64 accumulations, and range sharding preserves row order (see
/// db/sharding.h). Non-decomposable operators (MEDIAN, KthLargest, GroupBy,
/// OrderByRowIds, Quantiles) are *single-device* operators per the
/// EXTENDING.md rule: they run on a one-shard executor and return
/// kNotImplemented on more than one shard.
///
/// The ladder, per dispatch: the device's health gate
/// (DevicePool::AdmitDispatch; quarantine is the open breaker), the lease,
/// the attempt with in-place retry of transient faults (kMaxAttempts in
/// all, core/resilience.h), the health record, then the shard's replica,
/// then the CPU tier (core/cpu_tier). Every hop off a device counts in
/// `pool.failovers`. User errors and the deadline propagate at once: a
/// replica holds an identical copy and cannot beat the clock.
///
/// Thread model: one PoolExecutor serves one session, one statement at a
/// time. A multi-device statement scatters in two phases (DESIGN.md §15).
/// Phase 1 runs the shards as one group per primary device, every group at
/// once and each in shard order: the statement's thread runs the first
/// group, ScatterHelpers threads the others, and each shard gets its
/// primary attempt with its in-place retries. A user error or the deadline
/// stops its group. Phase 2, after the join, runs on the statement's
/// thread in shard order: it takes the refused and faulted shards to their
/// replica, then the CPU tier, and gathers answers and per-shard stats, so
/// every device sees a fixed dispatch order for a given fault seed and the
/// statement returns the lowest-index failing shard's status. Devices are
/// shared across sessions; every dispatch holds the pool's per-device
/// lease, and the executor cache has one slot per (shard, device) that is
/// touched only under that device's lease. A one-shard executor runs its
/// shard inline and starts no thread.
class PoolExecutor {
 public:
  /// Both pointers must outlive the executor. Every shard must fit the
  /// pool's device framebuffers.
  [[nodiscard]] static Result<std::unique_ptr<PoolExecutor>> Make(
      gpu::DevicePool* pool, const db::ShardedTable* sharded);

  /// A one-shard executor over the whole of `table`, placed on device 0
  /// with no replica. The table is not copied; both pointers must outlive
  /// the executor.
  [[nodiscard]] static Result<std::unique_ptr<PoolExecutor>> Make(
      gpu::DevicePool* pool, const db::Table* table);

  ~PoolExecutor();
  PoolExecutor(const PoolExecutor&) = delete;
  PoolExecutor& operator=(const PoolExecutor&) = delete;

  /// \brief Scope of one statement: clears last_stats() and arms the
  /// statement's deadline (`deadline_ms` from now, as an absolute expiry).
  /// Every operator opens one; inside an outer scope it is a no-op, so the
  /// operators of one statement share its stats and its deadline.
  class Statement {
   public:
    explicit Statement(PoolExecutor* exec);
    ~Statement() {
      if (outermost_) exec_->in_statement_ = false;
    }
    Statement(const Statement&) = delete;
    Statement& operator=(const Statement&) = delete;

   private:
    PoolExecutor* exec_;
    bool outermost_;
  };

  [[nodiscard]] Result<uint64_t> Count(const predicate::ExprPtr& where);
  [[nodiscard]] Result<std::vector<uint32_t>> SelectRowIds(
      const predicate::ExprPtr& where);
  [[nodiscard]] Result<double> Aggregate(AggregateKind kind,
                                         std::string_view column,
                                         const predicate::ExprPtr& where =
                                             nullptr);

  // Single-device operators: one shard only.
  [[nodiscard]] Result<uint32_t> KthLargest(
      std::string_view column, uint64_t k,
      const predicate::ExprPtr& where = nullptr);
  [[nodiscard]] Result<std::vector<uint32_t>> OrderByRowIds(
      std::string_view column, bool ascending = true);
  [[nodiscard]] Result<std::vector<GroupByRow>> GroupBy(
      std::string_view key_column, std::string_view value_column,
      AggregateKind kind, uint64_t max_groups = 256);
  [[nodiscard]] Result<std::vector<uint32_t>> Quantiles(
      std::string_view column, int q);

  /// True for aggregates the scatter/gather path can recombine bit-exactly
  /// (COUNT/SUM/AVG/MIN/MAX); MEDIAN is an order statistic and stays
  /// single-device.
  static bool ShardableAggregate(AggregateKind kind);

  /// kNotImplemented naming `op` when this executor has more than one
  /// shard: `op` is a single-device operator (EXTENDING.md).
  [[nodiscard]] Status RequireOneShard(std::string_view op) const;

  void set_resilience_options(const ResilienceOptions& options) {
    resilience_ = options;
  }

  /// What the last statement (or operator, outside a Statement) caused.
  const PoolQueryStats& last_stats() const { return last_stats_; }
  gpu::DevicePool& pool() { return *pool_; }

  /// The first shard's table and primary device: the whole table and its
  /// device for a one-shard executor.
  const db::Table& table() const { return *shards_.front().table; }
  gpu::Device& device() {
    return pool_->device(shards_.front().placement.primary);
  }

  /// The cached executor for (shard, device), created on first use, with
  /// the device's viewport set to the shard. The caller must hold the
  /// device's lease, or otherwise own the device (a session's pool of one).
  [[nodiscard]] Result<Executor*> ShardExecutorFor(size_t shard_index,
                                                   int device_id);

 private:
  using Clock = std::chrono::steady_clock;

  /// One shard as the executor sees it: a table it does not own.
  struct ShardRef {
    const db::Table* table;
    uint32_t row_begin;
    db::ShardPlacement placement;
  };

  PoolExecutor(gpu::DevicePool* pool, std::vector<ShardRef> shards);

  /// kDeadlineExceeded once the statement's expiry has passed, read
  /// without any device's lease.
  [[nodiscard]] Status CheckInterrupt() const;

  /// Runs `gpu_op` on every shard and hands each shard's answer to
  /// `gather(shard_index, answer)` in shard order; the two phases of the
  /// thread model above. Returns the lowest-index failing shard's status.
  template <typename GpuOp, typename CpuOp, typename Gather>
  [[nodiscard]] Status Scatter(const char* op_name, const GpuOp& gpu_op,
                               const CpuOp& cpu_op, const Gather& gather);

  /// Runs one shard's dispatch through the whole ladder on this thread:
  /// `gpu_op(Executor&)` on a device, else `cpu_op(const db::Table&)`, the
  /// CPU tier's equivalent (nullptr for operators that have none). Both
  /// return the same Result. What the dispatch causes is merged into
  /// `*stats`.
  template <typename GpuOp, typename CpuOp>
  [[nodiscard]] std::invoke_result_t<const GpuOp&, Executor&> RunShard(
      size_t shard_index, const char* op_name, const GpuOp& gpu_op,
      const CpuOp& cpu_op, PoolQueryStats* stats);

  /// The ladder past the primary: the replica, then the CPU tier. `fault`
  /// is the device fault the shard last hopped off with (OK if refused).
  template <typename GpuOp, typename CpuOp>
  [[nodiscard]] std::invoke_result_t<const GpuOp&, Executor&> RunFallback(
      size_t shard_index, const char* op_name, const GpuOp& gpu_op,
      const CpuOp& cpu_op, PoolQueryStats* stats, Status fault);

  /// One placement of a shard (`hop` 0 = primary, 1 = replica): the
  /// deadline check (primary only), health gate, lease, attempt with
  /// in-place retries, health record. Returns the answer or a status that
  /// ends the shard, or nullopt when the shard hops off the device; then
  /// `*fault` holds the device fault, if any.
  template <typename GpuOp>
  [[nodiscard]] std::optional<std::invoke_result_t<const GpuOp&, Executor&>>
  TryPlacement(size_t shard_index, int hop, const char* op_name,
               const GpuOp& gpu_op, PoolQueryStats* stats, Status* fault);

  gpu::DevicePool* pool_;
  std::vector<ShardRef> shards_;
  /// Shard indices grouped by primary device, in device order and each in
  /// shard order: phase 1's unit of concurrency.
  std::vector<std::vector<size_t>> groups_;
  ResilienceOptions resilience_;
  PoolQueryStats last_stats_;
  bool in_statement_ = false;
  Clock::time_point expiry_ = Clock::time_point::max();  ///< max = none
  /// One slot per (shard, device), at shard * pool size + device, touched
  /// only under that device's lease.
  std::vector<std::unique_ptr<Executor>> executors_;
  /// Runs groups 1.. of phase 1; null when there is only one group.
  std::unique_ptr<ScatterHelpers> helpers_;
};

}  // namespace core
}  // namespace gpudb

#endif  // GPUDB_CORE_POOL_EXECUTOR_H_
