#ifndef GPUDB_COMMON_QUERY_LOG_H_
#define GPUDB_COMMON_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace gpudb {

/// \brief One executed SQL statement as remembered by the query history.
///
/// The sql::Session fills one entry per statement (including failed ones)
/// from the wall clock and the device-counter delta of the execution; the
/// `gpudb_queries` system table (db/catalog) is a relational view of the
/// ring.
struct QueryLogEntry {
  uint64_t id = 0;          ///< 1-based sequence number, assigned by Add.
  std::string sql;          ///< Statement text as submitted.
  std::string kind;         ///< "select", "count", "aggregate", ... / "error".
  bool ok = true;
  bool slow = false;        ///< Crossed the slow-query threshold.
  double wall_ms = 0.0;     ///< Wall-clock execution time on this machine.
  /// Wall split: time spent waiting for the session's executor (statements
  /// queue behind each other on one device) vs. time actually executing.
  /// queue_ms + exec_ms ~= wall_ms. The admission-control baseline signal.
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  double simulated_ms = 0.0;  ///< PerfModel time of the statement's passes.
  uint64_t passes = 0;        ///< Rendering passes the statement issued.
  uint64_t fragments = 0;     ///< Fragments generated across those passes.
  uint64_t rows_out = 0;      ///< Result cardinality (1 for scalar results).
  uint64_t retries = 0;       ///< Device retry attempts this statement made.
  bool fell_back = false;     ///< Answered by the CPU tier after GPU faults.
  uint64_t fused_passes = 0;  ///< Planner-fused passes (DESIGN.md §14).
  uint64_t cache_hits = 0;    ///< Depth-plane cache restores.
  /// Failure-domain attribution (DESIGN.md §15): the tenant that submitted
  /// the statement (empty = anonymous), the pool device that served or
  /// first failed it (-1 = no failure domain, e.g. the single-device path),
  /// and how many shard failovers the statement absorbed.
  std::string tenant;
  int64_t device_id = -1;
  uint64_t failovers = 0;
  std::string error;          ///< Status message when !ok.
};

/// \brief Always-on ring buffer of recent statements plus a slow-query log.
///
/// Add() keeps the newest `capacity` entries, records every statement's wall
/// time in the "sql.query_wall_ms" histogram, and counts via "sql.queries".
/// When a slow threshold is configured (--slow-ms in the shell calls
/// set_slow_threshold_ms) a statement at or above it is flagged, counted in
/// "sql.slow_queries", and echoed to stderr -- the minimal production
/// slow-query log.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit QueryLog(size_t capacity = kDefaultCapacity);
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Shared process-wide log; no slow threshold until one is set.
  static QueryLog& Global();

  /// Threshold in ms at or above which a statement is "slow"; <= 0 disables.
  void set_slow_threshold_ms(double ms);
  double slow_threshold_ms() const;

  /// Records one statement, assigning its id; returns that id.
  uint64_t Add(QueryLogEntry entry);

  /// Entries currently retained, oldest first.
  std::vector<QueryLogEntry> Entries() const;

  size_t size() const;
  uint64_t total_recorded() const;

  /// Drops all retained entries (the id sequence keeps counting).
  void Clear();

 private:
  /// Lock-order level: `querylog` (innermost leaf) -- Add() touches the
  /// metrics registry before taking mu_, never while holding it.
  mutable Mutex mu_;
  /// Oldest entry sits at ring_[head_].
  std::vector<QueryLogEntry> ring_ GUARDED_BY(mu_);
  const size_t capacity_;  // lint: lock-free (const after construction)
  size_t head_ GUARDED_BY(mu_) = 0;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  uint64_t total_recorded_ GUARDED_BY(mu_) = 0;
  double slow_threshold_ms_ GUARDED_BY(mu_) = 0.0;
};

}  // namespace gpudb

#endif  // GPUDB_COMMON_QUERY_LOG_H_
