#ifndef PERFBENCH_SHAPES_H_
#define PERFBENCH_SHAPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/db/catalog.h"
#include "src/db/table.h"
#include "src/sql/parser.h"

namespace perfbench {

/// Shape names. Each doubles as a metric-name suffix, so it uses only
/// [a-z0-9_].
inline constexpr const char* kScanShapes[] = {
    "count_1pred", "count_cnf2", "between",     "attr_compare", "not_or",
    "select_ids",  "median",     "max_between", "q6_sum"};
inline constexpr const char* kSystemTable = "system_table";
inline constexpr const char* kAnalyze = "analyze";

/// \brief The answer a statement must return, computed on the host by the
/// cpu/ baselines from the generated columns.
struct Expected {
  gpudb::sql::Query::Kind kind = gpudb::sql::Query::Kind::kCount;
  uint64_t count = 0;
  double scalar = 0.0;
  std::vector<uint32_t> row_ids;
};

/// \brief One statement shape: its SQL text and reference answer. The
/// system-table read has no fixed answer (it reads the live query log);
/// `live` marks it, and SystemTableAnswer gives its answer at run time.
struct Statement {
  std::string shape;
  std::string sql;
  Expected expected;
  bool live = false;
};

/// Builds every shape over `table` (the TCP/IP flows table registered as
/// "flows"). Predicate constants are quantiles of the generated columns, so
/// every seed gets the same target selectivity.
gpudb::Result<std::vector<Statement>> MakeStatements(
    const gpudb::db::Table& table);

/// The reference answer of the system-table read, from a fresh snapshot of
/// `gpudb_queries`. Exact only while no other statement runs on `catalog`.
gpudb::Result<Expected> SystemTableAnswer(const gpudb::db::Catalog& catalog);

/// True when `result` carries exactly the expected answer.
bool Matches(const Expected& expected, const gpudb::sql::QueryResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SHAPES_H_
