#include "support/threadpool.h"

#include <chrono>
#include <utility>

#include "support/metrics_registry.h"

namespace daspos {

ThreadPool::ThreadPool(size_t thread_count) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  tasks_total_ = &registry.GetCounter(metric_names::kPoolTasksTotal);
  busy_us_total_ = &registry.GetCounter(metric_names::kPoolBusyUsTotal);
  queue_depth_ = &registry.GetGauge(metric_names::kPoolQueueDepth);
  task_wall_ms_ = &registry.GetHistogram(metric_names::kPoolTaskWallMs);
  if (thread_count == 0) thread_count = 1;
  workers_.reserve(thread_count);
  for (size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  queue_depth_->Add(1);
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (!(queue_.empty() && active_ == 0)) idle_.Wait(mutex_);
}

uint64_t ThreadPool::tasks_executed() const {
  MutexLock lock(mutex_);
  return tasks_executed_;
}

uint64_t ThreadPool::busy_us() const {
  MutexLock lock(mutex_);
  return busy_us_;
}

size_t ThreadPool::DefaultThreadCount() {
  size_t hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

void ThreadPool::WorkerLoop() {
  // Manual Lock/Unlock rather than a scoped lock: the loop releases the
  // mutex around each task body and reacquires it afterwards, and the
  // analysis checks that the lockset is consistent on every path and at
  // the loop back-edge.
  mutex_.Lock();
  for (;;) {
    while (!stopping_ && queue_.empty()) work_available_.Wait(mutex_);
    if (queue_.empty()) {  // stopping_ and drained
      mutex_.Unlock();
      return;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    mutex_.Unlock();
    queue_depth_->Add(-1);
    auto task_start = std::chrono::steady_clock::now();
    task();
    double task_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - task_start)
                         .count();
    const uint64_t whole_us = static_cast<uint64_t>(task_us);
    tasks_total_->Increment();
    busy_us_total_->Increment(whole_us);
    task_wall_ms_->Observe(task_us / 1000.0);
    mutex_.Lock();
    ++tasks_executed_;
    busy_us_ += whole_us;
    --active_;
    if (queue_.empty() && active_ == 0) idle_.NotifyAll();
  }
}

}  // namespace daspos
