// Fixed-size worker pool for embarrassingly parallel work: the engine's
// NS batches and per-class CMN solves, the service's drain workers, the
// benches' per-owner study runs.

#ifndef SIGHT_UTIL_THREAD_POOL_H_
#define SIGHT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sight {

/// Threads are started in the constructor and joined in the destructor.
/// Submitted tasks must not throw (the library is exception-free).
class ThreadPool {
 public:
  /// `num_threads` 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Waits for all pending tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe from any thread, including worker threads
  /// (tasks may submit follow-up tasks).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by
  /// running tasks) has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently running
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0..n-1) across `pool` and blocks until all calls finish.
/// Indices are dispatched as contiguous chunks (several per worker), so
/// within a chunk calls run in ascending order on one thread. Runs inline
/// with a null pool or when the pool cannot help (a single worker, or
/// more workers than the machine has cores counts as the core count — a
/// CPU-bound loop gains nothing from oversubscription); results are
/// identical either way, and any tasks fn submits to `pool` are still
/// awaited. Must not be called from inside a pool task (Wait() from a
/// worker can deadlock once every worker is blocked waiting).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace sight

#endif  // SIGHT_UTIL_THREAD_POOL_H_
