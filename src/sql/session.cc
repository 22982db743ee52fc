#include "src/sql/session.h"

#include <algorithm>
#include <utility>

#include "src/common/query_log.h"
#include "src/common/timer.h"
#include "src/core/analyze.h"
#include "src/gpu/perf_model.h"
#include "src/sql/explain.h"

namespace gpudb {
namespace sql {

namespace {

/// Result cardinality for the query log (1 for scalar results).
uint64_t RowsOut(const QueryResult& result) {
  switch (result.kind) {
    case Query::Kind::kSelectRows:
      return result.row_ids.size();
    case Query::Kind::kGroupBy:
      return result.groups.size();
    case Query::Kind::kAnalyzeTable:
      return result.count;  // columns analyzed
    default:
      return 1;
  }
}

/// True when the statement can be answered by shard recombination
/// (DESIGN.md §15): COUNT, shardable aggregates, unordered SELECT. EXPLAIN
/// ANALYZE and ANALYZE need a device of their own (per-pass attribution,
/// one histogram), so they stay on the session's device.
bool Decomposes(const Query& query) {
  if (query.explain_analyze) return false;
  switch (query.kind) {
    case Query::Kind::kCount:
      return true;
    case Query::Kind::kAggregate:
      return core::PoolExecutor::ShardableAggregate(query.aggregate);
    case Query::Kind::kSelectRows:
      // ORDER BY runs the bitonic network over the whole relation; it is a
      // single-device operator (EXTENDING.md).
      return query.order_by_column.empty();
    default:
      return false;
  }
}

/// `ANALYZE <table>` on the table's one-shard executor: the statistics go
/// to the catalog, which every later statement attaches to the executor.
Result<QueryResult> AnalyzeTable(core::PoolExecutor* exec,
                                 db::Catalog* catalog,
                                 const std::string& table_name) {
  GPUDB_ASSIGN_OR_RETURN(db::TableStats stats, core::CollectTableStats(exec));
  stats.table_name = table_name;
  const uint64_t columns = stats.columns.size();
  GPUDB_RETURN_NOT_OK(catalog->SetStats(table_name, std::move(stats)));
  QueryResult result;
  result.kind = Query::Kind::kAnalyzeTable;
  result.count = columns;
  return result;
}

/// Runs a parsed statement as one statement of `exec`: one deadline, and
/// last_stats() covering every operator it calls.
Result<QueryResult> RunStatement(core::PoolExecutor* exec, const Query& query,
                                 std::string_view sql, db::Catalog* catalog,
                                 const std::string& table_name) {
  const core::PoolExecutor::Statement statement(exec);
  if (query.kind == Query::Kind::kAnalyzeTable) {
    return AnalyzeTable(exec, catalog, table_name);
  }
  if (query.explain_analyze) return ExecuteAnalyze(exec, query, sql);
  QueryResult result;
  GPUDB_RETURN_NOT_OK(ExecuteParsed(exec, query, &result));
  return result;
}

}  // namespace

Session::Session(gpu::Device* device, db::Catalog* catalog)
    : device_(device),
      catalog_(catalog),
      own_pool_(device != nullptr ? gpu::DevicePool::Borrow(device)
                                  : nullptr) {}

void Session::set_plan_options(const core::PlanOptions& options) {
  MutexLock lock(&execute_mu_);
  plan_options_ = options;
}

void Session::set_resilience_options(const core::ResilienceOptions& options) {
  MutexLock lock(&execute_mu_);
  resilience_ = options;
  for (auto& [name, exec] : executors_) {
    exec->set_resilience_options(options);
  }
  for (auto& [name, entry] : pool_executors_) {
    if (entry.exec != nullptr) entry.exec->set_resilience_options(options);
  }
}

void Session::SetDevicePool(gpu::DevicePool* pool, int num_shards) {
  MutexLock lock(&execute_mu_);
  pool_ = pool;
  // Default to two shards per device: enough slack that a quarantined
  // device's load spreads over the survivors instead of doubling up on one.
  pool_shards_ = num_shards > 0
                     ? num_shards
                     : (pool != nullptr ? 2 * static_cast<int>(pool->size())
                                        : 0);
  pool_executors_.clear();
}

Result<core::PoolExecutor*> Session::PoolExecutorFor(
    std::string_view table_name) {
  MutexLock lock(&execute_mu_);
  return PoolExecutorForLocked(table_name);
}

Result<core::PoolExecutor*> Session::PoolExecutorForLocked(
    std::string_view table_name) {
  if (pool_ == nullptr) {
    return Status::FailedPrecondition("no device pool installed");
  }
  auto it = pool_executors_.find(table_name);
  if (it == pool_executors_.end()) {
    PoolEntry entry;
    GPUDB_ASSIGN_OR_RETURN(const db::Table* table,
                           catalog_->Lookup(table_name));
    Result<db::ShardedTable> sharded = db::ShardedTable::Make(
        *table, static_cast<size_t>(pool_shards_), pool_->size());
    if (sharded.ok()) {
      entry.sharded = std::make_unique<db::ShardedTable>(
          std::move(sharded).ValueOrDie());
      GPUDB_ASSIGN_OR_RETURN(
          entry.exec, core::PoolExecutor::Make(pool_, entry.sharded.get()));
      entry.exec->set_resilience_options(resilience_);
    }
    // A refused table is cached as {nullptr}: the sharder's verdict cannot
    // change while the schema is fixed, so do not re-shard every statement.
    it = pool_executors_.emplace(std::string(table_name), std::move(entry))
             .first;
  }
  if (it->second.exec == nullptr) {
    return Status::FailedPrecondition("table '" + std::string(table_name) +
                                      "' is not shardable");
  }
  return it->second.exec.get();
}

Result<core::Executor*> Session::ExecutorFor(std::string_view table_name) {
  MutexLock lock(&execute_mu_);
  GPUDB_ASSIGN_OR_RETURN(core::PoolExecutor* solo,
                         SoloExecutorForLocked(table_name));
  return solo->ShardExecutorFor(0, 0);
}

Result<core::PoolExecutor*> Session::SoloExecutorForLocked(
    std::string_view table_name) {
  auto it = executors_.find(table_name);
  if (it == executors_.end()) {
    GPUDB_ASSIGN_OR_RETURN(const db::Table* table,
                           catalog_->Lookup(table_name));
    GPUDB_ASSIGN_OR_RETURN(std::unique_ptr<core::PoolExecutor> exec,
                           core::PoolExecutor::Make(own_pool_.get(), table));
    exec->set_resilience_options(resilience_);
    it = executors_.emplace(std::string(table_name), std::move(exec)).first;
  }
  // The session multiplexes tables onto its one device; ShardExecutorFor
  // restores this table's viewport. The ANALYZE statistics are re-read
  // every statement: another session may have re-collected them since the
  // last one.
  GPUDB_ASSIGN_OR_RETURN(core::Executor* gpu,
                         it->second->ShardExecutorFor(0, 0));
  gpu->set_plan_options(plan_options_);
  gpu->SetTableIdentity(std::string(table_name));
  gpu->set_table_stats(catalog_->Stats(table_name));
  return it->second.get();
}

Result<QueryResult> Session::Dispatch(std::string_view sql,
                                      const std::string& table_name,
                                      StatementCost* cost) {
  if (db::Catalog::IsSystemTable(table_name)) {
    return RunSystemTable(sql, table_name, cost);
  }
  return RunUserTable(sql, table_name, cost);
}

Result<QueryResult> Session::RunSystemTable(std::string_view sql,
                                            const std::string& table_name,
                                            StatementCost* cost) {
  GPUDB_ASSIGN_OR_RETURN(db::Table snapshot,
                         catalog_->MaterializeSystemTable(table_name));
  const auto snap = std::make_shared<const db::Table>(std::move(snapshot));
  GPUDB_ASSIGN_OR_RETURN(Query query, ParseQuery(sql, *snap));
  if (query.kind == Query::Kind::kAnalyzeTable) {
    return Status::InvalidArgument(
        "cannot ANALYZE system table '" + table_name +
        "' (snapshots are rebuilt per query; statistics would be stale "
        "immediately)");
  }
  // Snapshots are transient, so they get their own device instead of
  // disturbing the resident textures of the session's user tables.
  const uint32_t width = 1024;
  const uint32_t height = static_cast<uint32_t>(
      std::max<uint64_t>(1, (snap->num_rows() + width - 1) / width));
  gpu::Device device(width, height);
  const std::unique_ptr<gpu::DevicePool> pool =
      gpu::DevicePool::Borrow(&device);
  GPUDB_ASSIGN_OR_RETURN(std::unique_ptr<core::PoolExecutor> exec,
                         core::PoolExecutor::Make(pool.get(), snap.get()));
  exec->set_resilience_options(resilience_);
  Result<QueryResult> result =
      RunStatement(exec.get(), query, sql, catalog_, table_name);
  cost->stats = exec->last_stats();
  if (result.ok()) result.ValueOrDie().table_view = snap;
  return result;
}

Result<QueryResult> Session::RunUserTable(std::string_view sql,
                                          const std::string& table_name,
                                          StatementCost* cost) {
  GPUDB_ASSIGN_OR_RETURN(core::PoolExecutor* exec,
                         SoloExecutorForLocked(table_name));
  GPUDB_ASSIGN_OR_RETURN(Query query, ParseQuery(sql, exec->table()));
  // Shard-pool routing (DESIGN.md §15): statements that decompose, against
  // tables the sharder accepts, scatter across the installed pool. The
  // rest stay on the one-shard executor over the session's device.
  if (pool_ != nullptr && Decomposes(query)) {
    Result<core::PoolExecutor*> pooled = PoolExecutorForLocked(table_name);
    if (pooled.ok()) {
      exec = pooled.ValueOrDie();
      cost->pooled = true;
    } else if (!pooled.status().IsFailedPrecondition()) {
      return pooled.status();
    }
  }
  Result<QueryResult> result =
      RunStatement(exec, query, sql, catalog_, table_name);
  cost->stats = exec->last_stats();
  return result;
}

Result<QueryResult> Session::Execute(std::string_view sql) {
  if (device_ == nullptr || catalog_ == nullptr) {
    return Status::InvalidArgument("Session requires a device and a catalog");
  }
  Timer timer;
  // Config snapshot under a short critical section: admission must run
  // *before* execute_mu_ is taken for the statement (lock order: admission
  // ahead of session, DESIGN.md §12), so the fields the admission step
  // needs are copied out first.
  AdmissionController* admission = nullptr;
  std::string tenant;
  double deadline_ms = 0.0;
  {
    MutexLock lock(&execute_mu_);
    admission = admission_;
    tenant = tenant_;
    deadline_ms = resilience_.deadline_ms;
  }
  // Admission control (DESIGN.md §15) runs before the session lock: a
  // rejected statement never touches a device, never queues behind one, and
  // is still query-logged with its tenant for load-shedding dashboards.
  AdmissionController::Ticket ticket;
  if (admission != nullptr) {
    Result<AdmissionController::Ticket> admit =
        admission->Admit(tenant, deadline_ms);
    if (!admit.ok()) {
      QueryLogEntry entry;
      entry.sql = std::string(sql);
      entry.kind = "error";
      entry.ok = false;
      entry.tenant = tenant;
      entry.wall_ms = timer.ElapsedMs();
      entry.queue_ms = entry.wall_ms;
      entry.error = admit.status().ToString();
      QueryLog::Global().Add(entry);
      return admit.status();
    }
    ticket = std::move(admit).ValueOrDie();
  }
  // Queue-wait vs execute split: statements serialize on the session's one
  // device, so time spent acquiring execute_mu_ is admission queueing and
  // time under it is execution. Single-threaded callers see queue_ms ~= 0.
  // Everything the query-log entry needs is copied out of the locked
  // region; the log itself is written after release (the query log is a
  // telemetry leaf, but more importantly a slow stderr echo must not
  // extend the device critical section).
  double queue_ms = 0.0;
  double wall_ms = 0.0;
  StatementCost cost;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    MutexLock lock(&execute_mu_);
    queue_ms = timer.ElapsedMs();
    // No inner dispatch lambda: a lambda body is analyzed without the
    // enclosing capability, so the REQUIRES(execute_mu_) call to Dispatch
    // must sit lexically inside this MutexLock scope.
    const Result<std::string> table_name = StatementTableName(sql);
    Result<QueryResult> r =
        table_name.ok()
            ? Dispatch(sql, table_name.ValueOrDie(), &cost)
            : Result<QueryResult>(table_name.status());
    wall_ms = timer.ElapsedMs();
    return r;
  }();

  QueryLogEntry entry;
  entry.sql = std::string(sql);
  entry.ok = result.ok();
  entry.wall_ms = wall_ms;
  entry.queue_ms = queue_ms;
  entry.exec_ms = wall_ms - queue_ms;
  entry.tenant = tenant;
  const core::PoolQueryStats& stats = cost.stats;
  if (cost.pooled) {
    // Attribute the statement to the pool device that mattered: the first
    // one that failed it when there were failovers, else the one that
    // served its first shard. The session's own device logs as -1.
    entry.device_id = stats.failovers > 0 && stats.first_failed_device >= 0
                          ? stats.first_failed_device
                          : stats.first_device;
  }
  entry.failovers = stats.failovers;
  entry.retries = stats.retries;
  entry.fell_back = stats.cpu_fallback;
  entry.passes = stats.counters.passes;
  entry.fragments = stats.counters.fragments_generated;
  entry.fused_passes = stats.counters.fused_passes;
  entry.cache_hits = stats.counters.plane_cache_hits;
  entry.simulated_ms = gpu::PerfModel().Estimate(stats.counters).TotalMs();
  if (result.ok()) {
    entry.kind = std::string(ToString(result.ValueOrDie().kind));
    entry.rows_out = RowsOut(result.ValueOrDie());
  } else {
    entry.kind = "error";
    entry.error = result.status().ToString();
  }
  QueryLog::Global().Add(entry);
  return result;
}

}  // namespace sql
}  // namespace gpudb
