// Minimal fixed-size thread pool for fanning out independent jobs.
//
// Work items are plain std::function<void()>.  A task that throws does not
// take its worker down -- the pool swallows the exception -- so callers that
// need failures reported capture an exception_ptr inside the task (see
// SweepRunner).  Destruction drains the queue:
// already-submitted tasks run to completion before the workers join.
#ifndef VASIM_COMMON_THREAD_POOL_HPP
#define VASIM_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vasim {

class ThreadPool {
 public:
  /// Ceiling on a requested worker count (VASIM_JOBS, `vasim sweep --jobs`):
  /// thousands of worker threads help nobody.
  static constexpr std::size_t kMaxWorkers = 256;

  /// Spawns `workers` threads (clamped to >= 1).
  explicit ThreadPool(std::size_t workers);

  /// Drains outstanding work, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task; never blocks on task execution.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is mid-task.
  void wait_idle();

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Worker count from `VASIM_JOBS`; falls back to hardware_concurrency()
  /// (itself clamped to >= 1).  `VASIM_JOBS=1` reproduces a sequential run.
  [[nodiscard]] static std::size_t default_worker_count();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals workers: task or shutdown
  std::condition_variable idle_cv_;   ///< signals wait_idle(): all drained
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;  ///< tasks currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vasim

#endif  // VASIM_COMMON_THREAD_POOL_HPP
