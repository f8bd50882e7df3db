// A small fixed-size worker pool draining a FIFO task queue. Built for the
// workflow engine's parallel DAG dispatch but generic: any subsystem that
// needs "run these closures on N threads and wait" can use it.
//
// Each pool counts its own tasks and busy time for the caller that owns it
// (the workflow report's pool block); it also publishes task count, busy
// time, queue depth and per-task latency to MetricsRegistry::Global() for
// export — see docs/OBSERVABILITY.md for the metric names.
#ifndef DASPOS_SUPPORT_THREADPOOL_H_
#define DASPOS_SUPPORT_THREADPOOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/sync.h"

namespace daspos {

class Counter;
class Gauge;
class Histogram;

/// Fixed-size pool of worker threads. Tasks submitted while the pool lives
/// are executed in FIFO order across the workers; the destructor waits for
/// every queued and in-flight task before joining. Tasks may themselves call
/// Submit (the workflow engine schedules newly-ready steps from completing
/// ones), but must not call Wait or destroy the pool.
class ThreadPool {
 public:
  /// Spawns `thread_count` workers (clamped to at least one).
  explicit ThreadPool(size_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe from any thread, including pool workers.
  void Submit(std::function<void()> task) DASPOS_EXCLUDES(mutex_);

  /// Blocks until the queue is empty and no task is running.
  void Wait() DASPOS_EXCLUDES(mutex_);

  size_t thread_count() const { return workers_.size(); }

  /// Tasks this pool has run, and their summed wall time in µs, since
  /// construction. Every task that finished before Wait() returned is in.
  uint64_t tasks_executed() const DASPOS_EXCLUDES(mutex_);
  uint64_t busy_us() const DASPOS_EXCLUDES(mutex_);

  /// One worker per hardware thread, and at least one.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop() DASPOS_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ DASPOS_GUARDED_BY(mutex_);
  size_t active_ DASPOS_GUARDED_BY(mutex_) = 0;
  bool stopping_ DASPOS_GUARDED_BY(mutex_) = false;
  uint64_t tasks_executed_ DASPOS_GUARDED_BY(mutex_) = 0;
  uint64_t busy_us_ DASPOS_GUARDED_BY(mutex_) = 0;
  std::vector<std::thread> workers_;
  // Registry handles resolved once at construction (stable for process life).
  Counter* tasks_total_;
  Counter* busy_us_total_;
  Gauge* queue_depth_;
  Histogram* task_wall_ms_;
};

}  // namespace daspos

#endif  // DASPOS_SUPPORT_THREADPOOL_H_
