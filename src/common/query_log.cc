#include "src/common/query_log.h"

#include <cstdio>
#include <utility>

#include "src/common/metrics.h"

namespace gpudb {

QueryLog::QueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

void QueryLog::set_slow_threshold_ms(double ms) {
  MutexLock lock(&mu_);
  slow_threshold_ms_ = ms;
}

double QueryLog::slow_threshold_ms() const {
  MutexLock lock(&mu_);
  return slow_threshold_ms_;
}

uint64_t QueryLog::Add(QueryLogEntry entry) {
  MetricsRegistry::Global().counter("sql.queries").Increment();
  MetricsRegistry::Global()
      .histogram("sql.query_wall_ms")
      .Record(entry.wall_ms);
  MetricsRegistry::Global()
      .histogram("sql.queue_wait_ms")
      .Record(entry.queue_ms);
  MetricsRegistry::Global().histogram("sql.exec_ms").Record(entry.exec_ms);
  MutexLock lock(&mu_);
  entry.id = next_id_++;
  entry.slow =
      slow_threshold_ms_ > 0.0 && entry.wall_ms >= slow_threshold_ms_;
  if (entry.slow) {
    MetricsRegistry::Global().counter("sql.slow_queries").Increment();
    std::fprintf(stderr, "[slow-query] %.3f ms (threshold %.3f): %s\n",
                 entry.wall_ms, slow_threshold_ms_, entry.sql.c_str());
  }
  const uint64_t id = entry.id;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
  } else {
    ring_[head_] = std::move(entry);
    head_ = (head_ + 1) % capacity_;
  }
  ++total_recorded_;
  return id;
}

std::vector<QueryLogEntry> QueryLog::Entries() const {
  MutexLock lock(&mu_);
  std::vector<QueryLogEntry> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

size_t QueryLog::size() const {
  MutexLock lock(&mu_);
  return ring_.size();
}

uint64_t QueryLog::total_recorded() const {
  MutexLock lock(&mu_);
  return total_recorded_;
}

void QueryLog::Clear() {
  MutexLock lock(&mu_);
  ring_.clear();
  head_ = 0;
  total_recorded_ = 0;
}

}  // namespace gpudb
