#include "src/db/catalog.h"

#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/profile.h"
#include "src/common/query_log.h"

namespace gpudb {
namespace db {

namespace {

constexpr std::string_view kSystemTables[] = {
    "gpudb_columns", "gpudb_counters", "gpudb_metrics",
    "gpudb_profile", "gpudb_queries", "gpudb_tables",
};

/// The engine's relations cannot be empty, so an idle telemetry source
/// (e.g. gpudb_queries before any statement ran) is reported as NotFound
/// before column construction, which also rejects empty value vectors.
Status RequireRows(std::string_view name, size_t rows) {
  if (rows == 0) {
    return Status::NotFound("system table '" + std::string(name) +
                            "' has no rows yet");
  }
  return Status::OK();
}

Result<Table> BuildSnapshot(std::vector<Column> columns) {
  Table out;
  for (Column& c : columns) {
    GPUDB_RETURN_NOT_OK(out.AddColumn(std::move(c)));
  }
  return out;
}

/// Shorthands: every Make* failure here is a programming error in the
/// snapshot builders, so propagate with the usual macros.
Result<Column> Dict(std::string name, const std::vector<std::string>& v) {
  return Column::MakeDictionary(std::move(name), v);
}
Result<Column> Floats(std::string name, std::vector<float> v) {
  return Column::MakeFloat(std::move(name), std::move(v));
}
Result<Column> Ints(std::string name, const std::vector<uint32_t>& v) {
  return Column::MakeInt24(std::move(name), v);
}

}  // namespace

Status Catalog::Register(std::string name, const Table* table) {
  if (table == nullptr) {
    return Status::InvalidArgument("cannot register a null table");
  }
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (IsSystemTable(name)) {
    return Status::InvalidArgument("'" + name +
                                   "' is a reserved system table name");
  }
  MutexLock lock(&mu_);
  if (tables_.count(name) != 0) {
    return Status::InvalidArgument("table '" + name +
                                   "' is already registered");
  }
  tables_.emplace(std::move(name), table);
  return Status::OK();
}

Result<const Table*> Catalog::Lookup(std::string_view name) const {
  MutexLock lock(&mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(name) + "'");
  }
  return it->second;
}

Status Catalog::SetStats(std::string_view table, TableStats stats) {
  auto snapshot = std::make_shared<const TableStats>(std::move(stats));
  MutexLock lock(&mu_);
  if (tables_.find(table) == tables_.end()) {
    return Status::NotFound("no table named '" + std::string(table) + "'");
  }
  stats_.insert_or_assign(std::string(table), std::move(snapshot));
  return Status::OK();
}

std::shared_ptr<const TableStats> Catalog::Stats(
    std::string_view table) const {
  MutexLock lock(&mu_);
  const auto it = stats_.find(table);
  return it == stats_.end() ? nullptr : it->second;
}

bool Catalog::IsSystemTable(std::string_view name) {
  for (std::string_view s : kSystemTables) {
    if (s == name) return true;
  }
  return false;
}

Result<Table> Catalog::MaterializeSystemTable(std::string_view name) const {
  if (name == "gpudb_metrics") return MetricsTable();
  if (name == "gpudb_counters") return CountersTable();
  if (name == "gpudb_profile") return ProfileTable();
  if (name == "gpudb_queries") return QueriesTable();
  if (name == "gpudb_tables") return TablesTable();
  if (name == "gpudb_columns") return ColumnsTable();
  return Status::InvalidArgument("unknown system table '" + std::string(name) +
                                 "'");
}

Result<Table> Catalog::MetricsTable() const {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::vector<std::string> names, kinds;
  std::vector<float> value, count, p50, p95, p99;
  for (const auto& c : snap.counters) {
    names.push_back(c.name);
    kinds.push_back("counter");
    value.push_back(static_cast<float>(c.value));
    count.push_back(0);
    p50.push_back(0);
    p95.push_back(0);
    p99.push_back(0);
  }
  for (const auto& g : snap.gauges) {
    names.push_back(g.name);
    kinds.push_back("gauge");
    value.push_back(static_cast<float>(g.value));
    count.push_back(0);
    p50.push_back(0);
    p95.push_back(0);
    p99.push_back(0);
  }
  for (const auto& h : snap.histograms) {
    names.push_back(h.name);
    kinds.push_back("histogram");
    value.push_back(static_cast<float>(h.sum));
    count.push_back(static_cast<float>(h.count));
    p50.push_back(static_cast<float>(h.p50));
    p95.push_back(static_cast<float>(h.p95));
    p99.push_back(static_cast<float>(h.p99));
  }
  GPUDB_RETURN_NOT_OK(RequireRows("gpudb_metrics", names.size()));
  std::vector<Column> cols;
  GPUDB_ASSIGN_OR_RETURN(Column c0, Dict("name", names));
  GPUDB_ASSIGN_OR_RETURN(Column c1, Dict("kind", kinds));
  GPUDB_ASSIGN_OR_RETURN(Column c2, Floats("value", std::move(value)));
  GPUDB_ASSIGN_OR_RETURN(Column c3, Floats("count", std::move(count)));
  GPUDB_ASSIGN_OR_RETURN(Column c4, Floats("p50", std::move(p50)));
  GPUDB_ASSIGN_OR_RETURN(Column c5, Floats("p95", std::move(p95)));
  GPUDB_ASSIGN_OR_RETURN(Column c6, Floats("p99", std::move(p99)));
  cols.push_back(std::move(c0));
  cols.push_back(std::move(c1));
  cols.push_back(std::move(c2));
  cols.push_back(std::move(c3));
  cols.push_back(std::move(c4));
  cols.push_back(std::move(c5));
  cols.push_back(std::move(c6));
  return BuildSnapshot(std::move(cols));
}

Result<Table> Catalog::CountersTable() const {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::vector<std::string> names;
  std::vector<float> value;
  for (const auto& c : snap.counters) {
    names.push_back(c.name);
    value.push_back(static_cast<float>(c.value));
  }
  GPUDB_RETURN_NOT_OK(RequireRows("gpudb_counters", names.size()));
  std::vector<Column> cols;
  GPUDB_ASSIGN_OR_RETURN(Column c0, Dict("name", names));
  GPUDB_ASSIGN_OR_RETURN(Column c1, Floats("value", std::move(value)));
  cols.push_back(std::move(c0));
  cols.push_back(std::move(c1));
  return BuildSnapshot(std::move(cols));
}

Result<Table> Catalog::ProfileTable() const {
  const std::vector<PassProfileGroup> groups = Profiler::Global().Snapshot();
  std::vector<std::string> labels;
  std::vector<float> passes, fragments, alpha_killed, stencil_killed;
  std::vector<float> depth_tested, depth_killed, passed, occlusion_samples;
  std::vector<float> plane_read, plane_written, fused, cache_hits;
  for (const PassProfileGroup& g : groups) {
    labels.push_back(g.label);
    passes.push_back(static_cast<float>(g.passes));
    fragments.push_back(static_cast<float>(g.fragments));
    alpha_killed.push_back(static_cast<float>(g.prof.alpha_killed));
    stencil_killed.push_back(static_cast<float>(g.prof.stencil_killed));
    depth_tested.push_back(static_cast<float>(g.prof.depth_tested));
    depth_killed.push_back(static_cast<float>(g.prof.depth_killed));
    passed.push_back(static_cast<float>(g.fragments_passed));
    occlusion_samples.push_back(static_cast<float>(g.prof.occlusion_samples));
    plane_read.push_back(static_cast<float>(g.prof.plane_bytes_read));
    plane_written.push_back(static_cast<float>(g.prof.plane_bytes_written));
    fused.push_back(static_cast<float>(g.fused_passes));
    cache_hits.push_back(static_cast<float>(g.cache_hits));
  }
  GPUDB_RETURN_NOT_OK(RequireRows("gpudb_profile", labels.size()));
  std::vector<Column> cols;
  GPUDB_ASSIGN_OR_RETURN(Column c0, Dict("label", labels));
  GPUDB_ASSIGN_OR_RETURN(Column c1, Floats("passes", std::move(passes)));
  GPUDB_ASSIGN_OR_RETURN(Column c2, Floats("fragments", std::move(fragments)));
  GPUDB_ASSIGN_OR_RETURN(Column c3,
                         Floats("alpha_killed", std::move(alpha_killed)));
  GPUDB_ASSIGN_OR_RETURN(Column c4,
                         Floats("stencil_killed", std::move(stencil_killed)));
  GPUDB_ASSIGN_OR_RETURN(Column c5,
                         Floats("depth_tested", std::move(depth_tested)));
  GPUDB_ASSIGN_OR_RETURN(Column c6,
                         Floats("depth_killed", std::move(depth_killed)));
  GPUDB_ASSIGN_OR_RETURN(Column c7, Floats("passed", std::move(passed)));
  GPUDB_ASSIGN_OR_RETURN(
      Column c8, Floats("occlusion_samples", std::move(occlusion_samples)));
  GPUDB_ASSIGN_OR_RETURN(Column c9,
                         Floats("plane_bytes_read", std::move(plane_read)));
  GPUDB_ASSIGN_OR_RETURN(
      Column c10, Floats("plane_bytes_written", std::move(plane_written)));
  GPUDB_ASSIGN_OR_RETURN(Column c11, Floats("fused_passes", std::move(fused)));
  GPUDB_ASSIGN_OR_RETURN(Column c12,
                         Floats("cache_hits", std::move(cache_hits)));
  cols.push_back(std::move(c0));
  cols.push_back(std::move(c1));
  cols.push_back(std::move(c2));
  cols.push_back(std::move(c3));
  cols.push_back(std::move(c4));
  cols.push_back(std::move(c5));
  cols.push_back(std::move(c6));
  cols.push_back(std::move(c7));
  cols.push_back(std::move(c8));
  cols.push_back(std::move(c9));
  cols.push_back(std::move(c10));
  cols.push_back(std::move(c11));
  cols.push_back(std::move(c12));
  return BuildSnapshot(std::move(cols));
}

Result<Table> Catalog::QueriesTable() const {
  const std::vector<QueryLogEntry> entries = QueryLog::Global().Entries();
  std::vector<float> id, wall_ms, queue_ms, exec_ms, simulated_ms, passes,
      fragments, rows_out, fused_passes, cache_hits, device_id;
  std::vector<uint32_t> ok, slow, retries, fell_back, failovers;
  std::vector<std::string> sql, kind, tenant;
  for (const QueryLogEntry& e : entries) {
    id.push_back(static_cast<float>(e.id));
    sql.push_back(e.sql);
    kind.push_back(e.kind);
    ok.push_back(e.ok ? 1 : 0);
    slow.push_back(e.slow ? 1 : 0);
    wall_ms.push_back(static_cast<float>(e.wall_ms));
    queue_ms.push_back(static_cast<float>(e.queue_ms));
    exec_ms.push_back(static_cast<float>(e.exec_ms));
    simulated_ms.push_back(static_cast<float>(e.simulated_ms));
    passes.push_back(static_cast<float>(e.passes));
    fragments.push_back(static_cast<float>(e.fragments));
    rows_out.push_back(static_cast<float>(e.rows_out));
    retries.push_back(static_cast<uint32_t>(e.retries));
    fell_back.push_back(e.fell_back ? 1 : 0);
    fused_passes.push_back(static_cast<float>(e.fused_passes));
    cache_hits.push_back(static_cast<float>(e.cache_hits));
    tenant.push_back(e.tenant.empty() ? "-" : e.tenant);
    device_id.push_back(static_cast<float>(e.device_id));
    failovers.push_back(static_cast<uint32_t>(e.failovers));
  }
  GPUDB_RETURN_NOT_OK(RequireRows("gpudb_queries", entries.size()));
  std::vector<Column> cols;
  GPUDB_ASSIGN_OR_RETURN(Column c0, Floats("id", std::move(id)));
  GPUDB_ASSIGN_OR_RETURN(Column c1, Dict("sql", sql));
  GPUDB_ASSIGN_OR_RETURN(Column c2, Dict("kind", kind));
  GPUDB_ASSIGN_OR_RETURN(Column c3, Ints("ok", ok));
  GPUDB_ASSIGN_OR_RETURN(Column c4, Ints("slow", slow));
  GPUDB_ASSIGN_OR_RETURN(Column c5, Floats("wall_ms", std::move(wall_ms)));
  GPUDB_ASSIGN_OR_RETURN(Column c6, Floats("queue_ms", std::move(queue_ms)));
  GPUDB_ASSIGN_OR_RETURN(Column c7, Floats("exec_ms", std::move(exec_ms)));
  GPUDB_ASSIGN_OR_RETURN(Column c8,
                         Floats("simulated_ms", std::move(simulated_ms)));
  GPUDB_ASSIGN_OR_RETURN(Column c9, Floats("passes", std::move(passes)));
  GPUDB_ASSIGN_OR_RETURN(Column c10, Floats("fragments", std::move(fragments)));
  GPUDB_ASSIGN_OR_RETURN(Column c11, Floats("rows_out", std::move(rows_out)));
  GPUDB_ASSIGN_OR_RETURN(Column c12, Ints("retries", retries));
  GPUDB_ASSIGN_OR_RETURN(Column c13, Ints("fell_back", fell_back));
  GPUDB_ASSIGN_OR_RETURN(Column c14,
                         Floats("fused_passes", std::move(fused_passes)));
  GPUDB_ASSIGN_OR_RETURN(Column c15,
                         Floats("cache_hits", std::move(cache_hits)));
  GPUDB_ASSIGN_OR_RETURN(Column c16, Dict("tenant", tenant));
  GPUDB_ASSIGN_OR_RETURN(Column c17,
                         Floats("device_id", std::move(device_id)));
  GPUDB_ASSIGN_OR_RETURN(Column c18, Ints("failovers", failovers));
  cols.push_back(std::move(c0));
  cols.push_back(std::move(c1));
  cols.push_back(std::move(c2));
  cols.push_back(std::move(c3));
  cols.push_back(std::move(c4));
  cols.push_back(std::move(c5));
  cols.push_back(std::move(c6));
  cols.push_back(std::move(c7));
  cols.push_back(std::move(c8));
  cols.push_back(std::move(c9));
  cols.push_back(std::move(c10));
  cols.push_back(std::move(c11));
  cols.push_back(std::move(c12));
  cols.push_back(std::move(c13));
  cols.push_back(std::move(c14));
  cols.push_back(std::move(c15));
  cols.push_back(std::move(c16));
  cols.push_back(std::move(c17));
  cols.push_back(std::move(c18));
  return BuildSnapshot(std::move(cols));
}

Result<Table> Catalog::TablesTable() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  std::vector<float> rows_col, columns_col, buckets_col;
  std::vector<uint32_t> analyzed;
  for (const auto& [name, table] : tables_) {
    names.push_back(name);
    rows_col.push_back(static_cast<float>(table->num_rows()));
    columns_col.push_back(static_cast<float>(table->num_columns()));
    const auto stats_it = stats_.find(name);
    const TableStats* stats =
        stats_it == stats_.end() ? nullptr : stats_it->second.get();
    analyzed.push_back(stats != nullptr && stats->analyzed() ? 1 : 0);
    buckets_col.push_back(
        stats != nullptr ? static_cast<float>(stats->histogram_buckets) : 0);
  }
  GPUDB_RETURN_NOT_OK(RequireRows("gpudb_tables", names.size()));
  std::vector<Column> cols;
  GPUDB_ASSIGN_OR_RETURN(Column c0, Dict("name", names));
  GPUDB_ASSIGN_OR_RETURN(Column c1, Floats("rows", std::move(rows_col)));
  GPUDB_ASSIGN_OR_RETURN(Column c2, Floats("columns", std::move(columns_col)));
  GPUDB_ASSIGN_OR_RETURN(Column c3, Ints("analyzed", analyzed));
  GPUDB_ASSIGN_OR_RETURN(Column c4,
                         Floats("stats_buckets", std::move(buckets_col)));
  cols.push_back(std::move(c0));
  cols.push_back(std::move(c1));
  cols.push_back(std::move(c2));
  cols.push_back(std::move(c3));
  cols.push_back(std::move(c4));
  return BuildSnapshot(std::move(cols));
}

Result<Table> Catalog::ColumnsTable() const {
  MutexLock lock(&mu_);
  std::vector<std::string> table_names, column_names, types;
  std::vector<float> min_col, max_col, distinct_col, bits_col;
  for (const auto& [name, table] : tables_) {
    const auto stats_it = stats_.find(name);
    const TableStats* stats =
        stats_it == stats_.end() ? nullptr : stats_it->second.get();
    for (size_t i = 0; i < table->num_columns(); ++i) {
      const Column& c = table->column(i);
      table_names.push_back(name);
      column_names.push_back(c.name());
      types.push_back(c.has_dictionary() ? "dict"
                      : c.type() == ColumnType::kInt24 ? "int24"
                                                       : "float32");
      min_col.push_back(c.min());
      max_col.push_back(c.max());
      bits_col.push_back(static_cast<float>(c.bit_width()));
      const ColumnStats* cs =
          stats != nullptr ? stats->Find(c.name()) : nullptr;
      distinct_col.push_back(
          cs != nullptr ? static_cast<float>(cs->distinct) : 0);
    }
  }
  GPUDB_RETURN_NOT_OK(RequireRows("gpudb_columns", table_names.size()));
  std::vector<Column> cols;
  GPUDB_ASSIGN_OR_RETURN(Column c0, Dict("table_name", table_names));
  GPUDB_ASSIGN_OR_RETURN(Column c1, Dict("column_name", column_names));
  GPUDB_ASSIGN_OR_RETURN(Column c2, Dict("type", types));
  GPUDB_ASSIGN_OR_RETURN(Column c3, Floats("min", std::move(min_col)));
  GPUDB_ASSIGN_OR_RETURN(Column c4, Floats("max", std::move(max_col)));
  GPUDB_ASSIGN_OR_RETURN(Column c5,
                         Floats("distinct", std::move(distinct_col)));
  GPUDB_ASSIGN_OR_RETURN(Column c6, Floats("bit_width", std::move(bits_col)));
  cols.push_back(std::move(c0));
  cols.push_back(std::move(c1));
  cols.push_back(std::move(c2));
  cols.push_back(std::move(c3));
  cols.push_back(std::move(c4));
  cols.push_back(std::move(c5));
  cols.push_back(std::move(c6));
  return BuildSnapshot(std::move(cols));
}

}  // namespace db
}  // namespace gpudb
