#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace dhmm::util {

namespace {

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveThreadCount(num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Destruction must not strand an in-flight ParallelFor from another
    // thread: a worker that observed shutdown_ would exit without draining
    // its items, leaving that caller waiting on done_cv_ forever. Let the
    // active round finish (task_ cleared, every worker idle) before the
    // workers are told to exit.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock,
                  [&] { return task_ == nullptr && busy_workers_ == 0; });
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::DrainItems(int worker) {
  // Dynamic scheduling: each worker repeatedly claims the next unclaimed
  // item. Imbalanced item costs (sequences of wildly different lengths)
  // self-balance without any up-front partitioning.
  for (size_t i = next_item_.fetch_add(1, std::memory_order_relaxed);
       i < task_size_;
       i = next_item_.fetch_add(1, std::memory_order_relaxed)) {
    (*task_)(worker, i);
  }
}

void ThreadPool::WorkerLoop(int worker) {
  size_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    DrainItems(worker);
    {
      // notify_all: the owning ParallelFor and a destructor waiting for
      // quiescence may both be parked on done_cv_.
      std::lock_guard<std::mutex> lock(mu_);
      if (--busy_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(int, size_t)>& fn) {
  if (n == 0) return;
  if (num_threads_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DHMM_CHECK_MSG(task_ == nullptr, "ThreadPool::ParallelFor re-entered");
    if (shutdown_) {
      // Destruction already began: the workers are exiting and will never
      // claim another item. Run inline rather than strand the caller.
      run_inline = true;
    } else {
      task_ = &fn;
      task_size_ = n;
      next_item_.store(0, std::memory_order_relaxed);
      busy_workers_ = num_threads_ - 1;
      ++generation_;
    }
  }
  if (run_inline) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  start_cv_.notify_all();
  DrainItems(/*worker=*/0);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return busy_workers_ == 0; });
    task_ = nullptr;
    // Wake a destructor waiting for quiescence (it needs task_ == nullptr,
    // which only this thread publishes) — under mu_, so it cannot destroy
    // done_cv_ mid-broadcast.
    done_cv_.notify_all();
  }
}

}  // namespace dhmm::util
