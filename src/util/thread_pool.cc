#include "util/thread_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace sight {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  SIGHT_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SIGHT_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  // Workers beyond the machine's cores cannot speed up a CPU-bound loop;
  // they only add context-switch and cache-migration overhead (measured
  // as a 0.89-0.94x "speedup" on a single-core host).
  size_t hardware = std::thread::hardware_concurrency();
  size_t workers = pool == nullptr ? 1 : pool->num_threads();
  if (hardware > 0) workers = std::min(workers, hardware);
  if (workers <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    // Preserve the parallel path's post-condition that follow-up tasks
    // submitted by fn have finished when ParallelFor returns.
    if (pool != nullptr) pool->Wait();
    return;
  }
  // Contiguous chunks, several per worker: one task per index would pay
  // queue traffic per call, and exactly one chunk per worker would stall
  // on uneven per-index cost.
  size_t chunks = std::min(n, workers * 8);
  size_t base = n / chunks;
  size_t remainder = n % chunks;
  size_t start = 0;
  for (size_t c = 0; c < chunks; ++c) {
    size_t end = start + base + (c < remainder ? 1 : 0);
    pool->Submit([&fn, start, end] {
      for (size_t i = start; i < end; ++i) fn(i);
    });
    start = end;
  }
  pool->Wait();
}

}  // namespace sight
