#ifndef GPUDB_SQL_PARSER_H_
#define GPUDB_SQL_PARSER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/profile.h"
#include "src/common/result.h"
#include "src/common/trace.h"
#include "src/core/aggregates.h"
#include "src/core/executor.h"
#include "src/db/table.h"
#include "src/gpu/perf_model.h"
#include "src/predicate/expr.h"

namespace gpudb {
namespace sql {

/// \brief A parsed query of the paper's SQL fragment (Section 4):
///
///   SELECT A FROM T WHERE C
///
/// where A is `*`, `COUNT(*)`, an aggregate over one attribute
/// (SUM/AVG/MIN/MAX/MEDIAN/COUNT), or `KTH_LARGEST(attr, k)`, and C is a
/// boolean combination (AND/OR/NOT, parentheses, BETWEEN) of comparisons of
/// the forms `attr op constant`, `attr op attr`, `constant op attr`.
/// An aggregate select may add `GROUP BY key_column` (OLAP roll-up; no WHERE
/// in that case -- the grouped execution path has no selection support).
struct Query {
  enum class Kind {
    kSelectRows,    ///< SELECT * : materialize row ids
    kCount,         ///< SELECT COUNT(*)
    kAggregate,     ///< SELECT agg(column)
    kKthLargest,    ///< SELECT KTH_LARGEST(column, k)
    kGroupBy,       ///< SELECT agg(column) ... GROUP BY key
    kAnalyzeTable,  ///< ANALYZE table : collect column statistics
  };

  Kind kind = Kind::kCount;
  core::AggregateKind aggregate = core::AggregateKind::kCount;
  std::string column;           ///< aggregate / order-statistic attribute
  uint64_t k = 0;               ///< for kKthLargest
  std::string table_name;       ///< as written after FROM
  std::string group_by_column;  ///< for kGroupBy
  predicate::ExprPtr where;     ///< null when there is no WHERE clause

  /// ORDER BY column [ASC|DESC], for SELECT * only. Orders the returned row
  /// ids by the column's value via the GPU bitonic sort; combining ORDER BY
  /// with WHERE is not supported (the sort network runs over the full
  /// relation). Empty = unordered.
  std::string order_by_column;
  bool order_descending = false;

  /// LIMIT n on SELECT * row ids (0 = no limit).
  uint64_t limit = 0;

  /// EXPLAIN ANALYZE prefix: run the query under tracing and attach the
  /// per-operator simulated-cost tree to the result.
  bool explain_analyze = false;

  /// EXPLAIN PROFILE prefix: EXPLAIN ANALYZE plus deep profiling -- the
  /// query's device computes the deep per-pass counters while it runs and
  /// the result additionally carries the per-pass counter table (kills,
  /// plane traffic). Implies explain_analyze.
  bool explain_profile = false;
};

std::string_view ToString(Query::Kind kind);

/// \brief Parses `input` against `table` (column names resolve to indices;
/// unknown columns are errors with positions).
[[nodiscard]] Result<Query> ParseQuery(std::string_view input, const db::Table& table);

/// \brief Extracts the table a statement targets without a full parse: the
/// identifier after FROM, or after a statement-initial ANALYZE. Used by
/// sql::Session to pick the executor before ParseQuery resolves column
/// names against that table's schema.
[[nodiscard]] Result<std::string> StatementTableName(std::string_view input);

/// \brief Result of executing a parsed query.
struct QueryResult {
  Query::Kind kind = Query::Kind::kCount;
  double scalar = 0.0;             ///< aggregate value / order statistic
  uint64_t count = 0;              ///< for kCount
  std::vector<uint32_t> row_ids;   ///< for kSelectRows
  std::vector<core::GroupByRow> groups;  ///< for kGroupBy

  /// Filled by EXPLAIN ANALYZE: the rendered operator tree, the run's
  /// simulated cost (PerfModel over the query's counter delta), and the raw
  /// spans for programmatic consumers (tests, trace export).
  bool analyzed = false;
  std::string explain;
  double simulated_total_ms = 0.0;
  gpu::GpuTimeBreakdown breakdown;
  std::vector<FinishedSpan> spans;

  /// Filled by EXPLAIN PROFILE: the query's per-pass profile groups (label,
  /// fragments, kill counts, plane traffic), in first-appearance order, and
  /// their rendered table. Deterministic counters only, so `profile` is
  /// byte-identical across worker-thread counts.
  bool profiled = false;
  std::vector<PassProfileGroup> profile_groups;
  std::string profile;

  /// For kSelectRows through sql::Session: the table the row ids refer to.
  /// System-table snapshots are materialized per query, so the session hands
  /// the snapshot to the caller here (display layers render rows from it);
  /// null for queries against long-lived user tables.
  std::shared_ptr<const db::Table> table_view;

  std::string ToString() const;
};

/// \brief Executes an already-parsed query, filling the plain result fields:
/// the one statement switch, for a bare core::Executor (the GPU operators,
/// no degradation ladder) and for a core::PoolExecutor (the ladder; what
/// sql::Session runs). The EXPLAIN ANALYZE path (sql/explain.h) wraps this
/// in a traced root span.
template <typename Exec>
[[nodiscard]] Status ExecuteParsed(Exec* executor, const Query& query,
                                   QueryResult* result);

}  // namespace sql
}  // namespace gpudb

#endif  // GPUDB_SQL_PARSER_H_
