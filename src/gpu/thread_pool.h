#ifndef GPUDB_GPU_THREAD_POOL_H_
#define GPUDB_GPU_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace gpudb {
namespace gpu {

/// \brief Persistent worker pool backing the Device's parallel pixel
/// engines (paper Section 3.1: the FX 5900's 8 parallel pixel pipelines).
///
/// The pool models the fixed set of pixel pipelines: it is created once,
/// its workers sleep between passes, and each rendering pass hands every
/// worker a disjoint slice of the screen. There is no task queue -- the
/// only operation is a blocking ParallelFor, which is all a
/// one-pass-at-a-time device needs.
///
/// ParallelFor is NOT re-entrant: the Device issues one pass at a time, so
/// a single in-flight parallel region per pool is the expected regime. A
/// nested or concurrent ParallelFor is handled gracefully by running that
/// region serially on its calling thread (never corrupting the active
/// job), and a thread count below 1 is clamped to 1.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining engine).
  /// A count below 1 is clamped to 1; a pool of 1 has no workers and
  /// ParallelFor degenerates to a serial loop on the caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of engines (workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs task(i) for every i in [0, n), distributing indices across the
  /// engines, and returns when all n invocations have finished. The caller
  /// participates, so a pool of size 1 runs everything inline. A call made
  /// while another region is in flight (nested or from another thread)
  /// runs serially on the calling thread. With `time_engines` (a profiled
  /// pass), every engine that ran part of the region records its busy time
  /// in the "gpu.engine_busy_ms" histogram and counter track.
  void ParallelFor(int n, const std::function<void(int)>& task,
                   bool time_engines = false);

  /// The default engine count: $GPUDB_THREADS when set to a positive
  /// integer, else std::thread::hardware_concurrency() (minimum 1).
  static int DefaultThreads();

 private:
  void WorkerLoop();

  /// Claims indices of the current job until they run out.
  void RunJob();

  // lint: lock-free (written only by the constructor, before any worker
  // can observe it; joined by the destructor after shutdown)
  std::vector<std::thread> workers_;

  /// Lock-order level: `device` (the pool is the innermost engine tier) --
  /// task bodies run with mu_ released, so user code never executes under
  /// the pool lock.
  Mutex mu_;
  CondVar work_ready_;
  CondVar work_done_;
  /// null = no job posted.
  const std::function<void(int)>* task_ GUARDED_BY(mu_) = nullptr;
  int job_size_ GUARDED_BY(mu_) = 0;
  /// Next unclaimed task index.
  int next_index_ GUARDED_BY(mu_) = 0;
  /// Task invocations not yet finished.
  int remaining_ GUARDED_BY(mu_) = 0;
  /// Generation counter so sleepers skip stale jobs.
  uint64_t job_id_ GUARDED_BY(mu_) = 0;
  /// The current job's `time_engines`.
  bool time_engines_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace gpu
}  // namespace gpudb

#endif  // GPUDB_GPU_THREAD_POOL_H_
