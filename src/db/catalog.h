#ifndef GPUDB_DB_CATALOG_H_
#define GPUDB_DB_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

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
///    keeps the Table alive). ANALYZE stores their TableStats here, and the
///    Planner/Executor read the stats back for estimated-vs-actual row
///    reporting.
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

  /// Catalog version of a registered table: 1 at registration, incremented
  /// by BumpTableVersion. Returns 0 for unknown names. Anything derived
  /// from a table's contents (cached depth planes, stats-driven estimates)
  /// keys on (name, version) so stale derivations can never be confused
  /// for fresh ones.
  uint64_t version(std::string_view table) const;

  /// Increments the table's version and synchronously notifies every
  /// registered listener with the table name. Any code path that mutates a
  /// table's backing store (reload, ANALYZE refresh) must call this --
  /// gpulint rule R6 enforces the convention for stats writers.
  Status BumpTableVersion(std::string_view table);

  /// Registers a callback invoked on every version bump. Used by
  /// sql::Session to drop the device's cached depth planes for the table.
  void AddVersionListener(std::function<void(const std::string&)> listener);

  /// Stores ANALYZE statistics for a registered table. The returned pointer
  /// of Stats() stays valid until the next SetStats for the same table.
  /// Storing stats does not bump the version by itself -- the ANALYZE
  /// driver bumps explicitly, because re-derived stats mean the driver just
  /// observed (and possibly changed its reading of) the backing store.
  Status SetStats(std::string_view table, TableStats stats);

  /// Statistics of a table, or nullptr when it has not been ANALYZEd.
  const TableStats* Stats(std::string_view table) const;

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
  /// catalog (DESIGN.md §15), so registration, version bumps, and the
  /// system-table builders must not race. Lock-order level: `catalog` --
  /// listeners are invoked only after mu_ is released (BumpTableVersion
  /// snapshots them), so catalog never holds its lock into pool or device
  /// code. Note Stats() hands out a pointer into stats_ -- concurrent
  /// readers are safe, but re-ANALYZE while other sessions run against the
  /// same table remains the caller's hazard.
  mutable Mutex mu_;
  std::map<std::string, const Table*, std::less<>> tables_ GUARDED_BY(mu_);
  std::map<std::string, TableStats, std::less<>> stats_ GUARDED_BY(mu_);
  std::map<std::string, uint64_t, std::less<>> versions_ GUARDED_BY(mu_);
  std::vector<std::function<void(const std::string&)>> version_listeners_
      GUARDED_BY(mu_);
};

}  // namespace db
}  // namespace gpudb

#endif  // GPUDB_DB_CATALOG_H_
