#ifndef GPUDB_SQL_SESSION_H_
#define GPUDB_SQL_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/core/executor.h"
#include "src/core/pool_executor.h"
#include "src/db/catalog.h"
#include "src/db/sharding.h"
#include "src/gpu/device.h"
#include "src/gpu/device_pool.h"
#include "src/sql/admission.h"
#include "src/sql/parser.h"

namespace gpudb {
namespace sql {

/// \brief A multi-table SQL session over a db::Catalog: name resolution,
/// ANALYZE, system-table queries, and always-on query logging. It is the
/// one way to run SQL text; a single table is a catalog of one.
///
///  * `FROM <name>` resolves through the catalog. Every statement runs on a
///    core::PoolExecutor, so every dispatch walks the one degradation
///    ladder (DESIGN.md §11): the installed pool's sharded executor when
///    the table shards and the statement decomposes, otherwise a one-shard
///    executor over the session's own device, a pool of one (textures stay
///    resident across queries). The gpudb_* system tables are materialized
///    fresh per query from live telemetry and run on an ephemeral device,
///    so `SELECT * FROM gpudb_metrics WHERE value > 0` runs the normal GPU
///    selection path over a snapshot of the process's own counters.
///  * `ANALYZE <table>` collects column statistics (core/analyze) into the
///    catalog and attaches them to the table's executor, enabling
///    estimated-vs-actual row reporting in EXPLAIN ANALYZE.
///  * Every statement -- including failed ones -- is recorded in the global
///    QueryLog with wall and simulated times, pass and fragment counts; the
///    log feeds the gpudb_queries system table and the slow-query echo.
class Session {
 public:
  /// Both pointers must outlive the session. `device` runs user-table
  /// queries as the session's pool of one; its viewport is reset whenever
  /// the session switches tables.
  Session(gpu::Device* device, db::Catalog* catalog);

  /// Parses and runs one statement. For SELECT * against a system table,
  /// QueryResult::table_view holds the snapshot the row ids refer to.
  [[nodiscard]] Result<QueryResult> Execute(std::string_view sql);

  db::Catalog& catalog() { return *catalog_; }

  /// Installs the resilience policy (retry / CPU fallback / per-statement
  /// deadline) on every executor this session creates -- cached user-table
  /// executors, existing and future, and the ephemeral executors that run
  /// system-table snapshots.
  void set_resilience_options(const core::ResilienceOptions& options)
      EXCLUDES(execute_mu_);

  /// Installs the planner rewrite controls (depth-plane caching,
  /// DESIGN.md §14) on every executor this session creates,
  /// existing and future. Never changes results; `--plan-cache` flips
  /// `plane_cache` on.
  void set_plan_options(const core::PlanOptions& options)
      EXCLUDES(execute_mu_);
  core::PlanOptions plan_options() const EXCLUDES(execute_mu_) {
    MutexLock lock(&execute_mu_);
    return plan_options_;
  }

  /// The GPU operators of a registered user table's one-shard executor on
  /// the session's device (created on first use), with the device's
  /// viewport set to the table: the textures its statements use.
  [[nodiscard]] Result<core::Executor*> ExecutorFor(std::string_view table_name)
      EXCLUDES(execute_mu_);

  /// Enables shard-parallel execution (DESIGN.md §15): statements that
  /// decompose (COUNT, shardable aggregates, unordered SELECT) against
  /// shardable tables run range-sharded across the pool's devices with
  /// replica failover. `pool` must outlive the session; nullptr disables.
  /// `num_shards` <= 0 picks the default of 2 shards per device. Tables the
  /// sharder refuses (float columns quantize per shard) transparently stay
  /// on the single-device path.
  void SetDevicePool(gpu::DevicePool* pool, int num_shards = 0)
      EXCLUDES(execute_mu_);

  /// Installs shared admission control: Execute() asks for a slot before
  /// touching the device and surfaces kResourceExhausted rejections (which
  /// are still query-logged, attributed to the tenant). `admission` is
  /// typically shared by many sessions and must outlive them; nullptr
  /// disables.
  void set_admission(AdmissionController* admission) EXCLUDES(execute_mu_) {
    MutexLock lock(&execute_mu_);
    admission_ = admission;
  }

  /// Tenant identity attached to admission requests and query-log entries.
  void set_tenant(std::string tenant) EXCLUDES(execute_mu_) {
    MutexLock lock(&execute_mu_);
    tenant_ = std::move(tenant);
  }
  std::string tenant() const EXCLUDES(execute_mu_) {
    MutexLock lock(&execute_mu_);
    return tenant_;
  }

  /// The cached pool executor for a registered user table, or
  /// FailedPrecondition when the table cannot be sharded bit-exactly.
  [[nodiscard]] Result<core::PoolExecutor*> PoolExecutorFor(
      std::string_view table_name) EXCLUDES(execute_mu_);

 private:
  /// What one statement cost, for its query-log entry: the last_stats() of
  /// the one executor that ran it, and whether that was the installed
  /// pool's (else the session's own device, or a system-table snapshot's).
  struct StatementCost {
    core::PoolQueryStats stats;
    bool pooled = false;
  };

  /// Dispatches a statement whose target table is already resolved;
  /// `cost` receives what the statement caused.
  [[nodiscard]] Result<QueryResult> Dispatch(std::string_view sql,
                               const std::string& table_name,
                               StatementCost* cost)
      REQUIRES(execute_mu_);

  [[nodiscard]] Result<QueryResult> RunSystemTable(std::string_view sql,
                                     const std::string& table_name,
                                     StatementCost* cost)
      REQUIRES(execute_mu_);

  [[nodiscard]] Result<QueryResult> RunUserTable(std::string_view sql,
                                   const std::string& table_name,
                                   StatementCost* cost)
      REQUIRES(execute_mu_);

  /// Lock-held bodies of the public executor accessors: RunUserTable runs
  /// under execute_mu_ and must not re-enter the public locking wrappers.
  /// SoloExecutorForLocked returns the table's one-shard executor with its
  /// plan options, catalog identity and statistics refreshed.
  [[nodiscard]] Result<core::PoolExecutor*> SoloExecutorForLocked(
      std::string_view table_name) REQUIRES(execute_mu_);
  [[nodiscard]] Result<core::PoolExecutor*> PoolExecutorForLocked(
      std::string_view table_name) REQUIRES(execute_mu_);

  gpu::Device* const device_;    // lint: lock-free (set at construction)
  db::Catalog* const catalog_;   // lint: lock-free (set at construction)
  /// The session's device as a pool of one: its health gate and lease.
  // lint: lock-free (set at construction)
  const std::unique_ptr<gpu::DevicePool> own_pool_;
  /// Statements serialize here (one device, one executor cache). The time a
  /// statement spends waiting for this lock is its QueryLogEntry::queue_ms.
  /// Lock-order level: `session` -- held across dispatch into catalog,
  /// device, and pool code (all inner levels), released before the query
  /// log is written. mutable so const accessors can snapshot config.
  mutable Mutex execute_mu_;
  core::ResilienceOptions resilience_ GUARDED_BY(execute_mu_);
  core::PlanOptions plan_options_ GUARDED_BY(execute_mu_);
  /// One-shard executors over own_pool_, one per user table.
  std::map<std::string, std::unique_ptr<core::PoolExecutor>, std::less<>>
      executors_ GUARDED_BY(execute_mu_);

  /// Shard-pool state. A PoolEntry caches the sharded copy of a table and
  /// its executor; `exec == nullptr` remembers that the sharder refused the
  /// table so we do not re-shard it on every statement.
  struct PoolEntry {
    std::unique_ptr<db::ShardedTable> sharded;
    std::unique_ptr<core::PoolExecutor> exec;
  };
  gpu::DevicePool* pool_ GUARDED_BY(execute_mu_) = nullptr;
  int pool_shards_ GUARDED_BY(execute_mu_) = 0;
  std::map<std::string, PoolEntry, std::less<>> pool_executors_
      GUARDED_BY(execute_mu_);

  AdmissionController* admission_ GUARDED_BY(execute_mu_) = nullptr;
  std::string tenant_ GUARDED_BY(execute_mu_);
};

}  // namespace sql
}  // namespace gpudb

#endif  // GPUDB_SQL_SESSION_H_
