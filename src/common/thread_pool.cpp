#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "src/common/env.hpp"

namespace vasim {

ThreadPool::ThreadPool(std::size_t workers) {
  workers = std::max<std::size_t>(1, workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to drain
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    try {
      task();
    } catch (...) {
      // A throwing task must not take its worker down with it; callers that
      // care about failures capture an exception_ptr inside the task (see
      // SweepRunner).
    }
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

std::size_t ThreadPool::default_worker_count() {
  // Validated read: garbage or zero VASIM_JOBS values warn and fall back to
  // hardware_concurrency instead of silently misbehaving; absurdly large
  // values clamp to kMaxWorkers.
  const u64 env = env_count("VASIM_JOBS", 0, kMaxWorkers);
  if (env > 0) return static_cast<std::size_t>(env);
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace vasim
