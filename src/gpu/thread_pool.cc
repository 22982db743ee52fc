#include "src/gpu/thread_pool.h"

#include <chrono>
#include <cstdlib>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace gpudb {
namespace gpu {

ThreadPool::ThreadPool(int threads) {
  // A non-positive count is clamped to the minimum pool (just the calling
  // thread) instead of asserting: a pool always needs at least one engine,
  // and crashing a release build over a config value is worse than running
  // serially.
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<size_t>(threads > 1 ? threads - 1 : 0));
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("GPUDB_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

void ThreadPool::RunJob() {
  // Per-engine busy time (gpuprof): latched with the job, one histogram
  // record per engine per job -- nothing on the per-claim path beyond two
  // clock reads, and nothing at all for unprofiled passes.
  bool profile = false;
  double busy_ms = 0.0;
  bool worked = false;
  // Claim-and-run until this job's indices are exhausted. The lock is only
  // held for the claim and the completion count; task bodies run unlocked.
  // The job-id check keeps a thread that finished job N from claiming
  // indices of a job N+1 posted while it was between iterations (its cached
  // task pointer would be stale); my_job is latched under the same lock
  // acquisition as the first claim.
  uint64_t my_job = 0;
  bool latched = false;
  for (;;) {
    const std::function<void(int)>* task = nullptr;
    int i = 0;
    {
      MutexLock lock(&mu_);
      if (!latched) {
        my_job = job_id_;
        profile = time_engines_;
        latched = true;
      }
      if (task_ == nullptr || job_id_ != my_job || next_index_ >= job_size_) {
        break;
      }
      task = task_;
      i = next_index_++;
    }
    if (profile) {
      const auto start = std::chrono::steady_clock::now();
      (*task)(i);
      busy_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      worked = true;
    } else {
      (*task)(i);
    }
    {
      MutexLock lock(&mu_);
      // The posting thread cannot recycle the job while remaining_ > 0, so
      // this decrement always belongs to my_job.
      if (--remaining_ == 0) work_done_.NotifyAll();
    }
  }
  if (worked) {
    static MetricHistogram& engine_busy =
        MetricsRegistry::Global().histogram("gpu.engine_busy_ms");
    engine_busy.Record(busy_ms);
    Tracer& tracer = Tracer::Current();
    if (tracer.enabled()) tracer.Counter("gpu.engine_busy_ms", busy_ms);
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_job = 0;
  for (;;) {
    {
      MutexLock lock(&mu_);
      // Predicate re-checked inline (not via a wait lambda) so the guarded
      // reads sit lexically inside the MutexLock scope -- the shape the
      // capability analysis verifies.
      while (!shutdown_ && !(task_ != nullptr && job_id_ != seen_job &&
                             next_index_ < job_size_)) {
        work_ready_.Wait(mu_);
      }
      if (shutdown_) return;
      seen_job = job_id_;
    }
    RunJob();
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& task,
                             bool time_engines) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    for (int i = 0; i < n; ++i) task(i);
    return;
  }
  bool in_flight = false;
  {
    MutexLock lock(&mu_);
    if (task_ != nullptr) {
      in_flight = true;
    } else {
      task_ = &task;
      time_engines_ = time_engines;
      job_size_ = n;
      next_index_ = 0;
      remaining_ = n;
      ++job_id_;
    }
  }
  if (in_flight) {
    // A parallel region is already in flight (a task called back into
    // ParallelFor, or two threads share the pool). Degrade to a serial
    // loop on the caller instead of corrupting the active job's state:
    // the invocations still all happen, just without extra parallelism.
    for (int i = 0; i < n; ++i) task(i);
    return;
  }
  work_ready_.NotifyAll();
  RunJob();
  {
    MutexLock lock(&mu_);
    while (remaining_ != 0) work_done_.Wait(mu_);
    task_ = nullptr;
    job_size_ = 0;
  }
}

}  // namespace gpu
}  // namespace gpudb
