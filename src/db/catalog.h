#ifndef GPUDB_DB_CATALOG_H_
#define GPUDB_DB_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/db/stats.h"
#include "src/db/table.h"

namespace gpudb {
namespace db {

/// \brief Name -> relation registry plus the introspection system tables.
///
/// The catalog serves two kinds of relations:
///
///  * **User tables**, registered with Register() (non-owning; the caller
///    keeps the Table alive). A registered table never changes: no API
///    mutates or replaces it, so anything derived from its contents (the
///    device's cached depth planes, DESIGN.md §14) is keyed by its name
///    alone. ANALYZE stores their TableStats here, and the Planner/Executor
///    read the stats back for estimated-vs-actual row reporting.
///  * **System tables** (`gpudb_metrics`, `gpudb_counters`, `gpudb_profile`,
///    `gpudb_queries`, `gpudb_tables`, `gpudb_columns`): virtual relations
///    materialized on
///    demand from the process's own telemetry (MetricsRegistry, QueryLog,
///    this catalog). A materialized snapshot is an ordinary db::Table --
///    string attributes are dictionary-encoded kInt24 columns -- so system
///    tables run through the normal GPU Executor path: `SELECT * FROM
///    gpudb_metrics WHERE value > 0` renders depth/stencil passes like any
///    other selection.
///
/// The catalog itself holds no GPU state; sql::Session owns devices and
/// executors.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a user table under `name` (must not collide with a system
  /// table or an existing registration). `table` must outlive the catalog.
  Status Register(std::string name, const Table* table);

  /// Looks a registered user table up by name.
  Result<const Table*> Lookup(std::string_view name) const;

  /// Stores ANALYZE statistics for a registered table, replacing any
  /// earlier ones. Statements already holding the earlier snapshot keep it
  /// alive and unchanged.
  Status SetStats(std::string_view table, TableStats stats);

  /// Statistics of a table, or nullptr when it has not been ANALYZEd. The
  /// snapshot is immutable; a later SetStats swaps in a new one instead of
  /// rewriting it.
  std::shared_ptr<const TableStats> Stats(std::string_view table) const;

  /// True for the gpudb_* virtual table names.
  static bool IsSystemTable(std::string_view name);

  /// Materializes a snapshot of a system table from live telemetry. Fails
  /// with NotFound when the source has no rows yet (relations cannot be
  /// empty) and InvalidArgument for unknown names.
  Result<Table> MaterializeSystemTable(std::string_view name) const;

 private:
  Result<Table> MetricsTable() const;
  Result<Table> CountersTable() const;
  /// One row per profiled pass label, from Profiler::Global()'s cumulative
  /// deep counters; NotFound until something ran with profiling enabled.
  Result<Table> ProfileTable() const;
  Result<Table> QueriesTable() const;
  Result<Table> TablesTable() const;
  Result<Table> ColumnsTable() const;

  /// Guards every map below: sessions on different threads share one
  /// catalog (DESIGN.md §15), so registration, ANALYZE and the system-table
  /// builders must not race. Lock-order level: `catalog` -- it never holds
  /// its lock into pool or device code.
  mutable Mutex mu_;
  std::map<std::string, const Table*, std::less<>> tables_ GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<const TableStats>, std::less<>> stats_
      GUARDED_BY(mu_);
};

}  // namespace db
}  // namespace gpudb

#endif  // GPUDB_DB_CATALOG_H_
