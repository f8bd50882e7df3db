#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "support/sync.h"
#include "support/threadpool.h"

namespace daspos {

std::pair<size_t, size_t> ChunkPlan::Bounds(size_t chunk) const {
  size_t base = count / chunk_count;
  size_t remainder = count % chunk_count;
  size_t begin = chunk * base + std::min(chunk, remainder);
  size_t end = begin + base + (chunk < remainder ? 1 : 0);
  return {begin, end};
}

ChunkPlan PlanChunks(size_t count, size_t grain) {
  ChunkPlan plan;
  plan.count = count;
  if (count == 0) return plan;
  if (grain == 0) grain = 1;
  plan.chunk_count = std::min(count / grain, ChunkPlan::kMaxChunks);
  if (plan.chunk_count == 0) plan.chunk_count = 1;
  return plan;
}

namespace {

/// State shared between the caller and pool helpers for one region. Helpers
/// hold a shared_ptr, so a helper that starts after the caller has already
/// returned (every chunk claimed) still finds valid memory, claims nothing,
/// and exits.
struct RegionState {
  explicit RegionState(const std::function<void(size_t, size_t, size_t)>& b)
      : body(b) {}

  const std::function<void(size_t, size_t, size_t)>& body;
  ChunkPlan plan;
  std::atomic<size_t> next_chunk{0};
  Mutex mutex;
  CondVar all_done;
  size_t done DASPOS_GUARDED_BY(mutex) = 0;
};

/// Claims and runs chunks until the cursor is exhausted. Runs on the calling
/// thread and on pool helpers alike.
void DrainChunks(const std::shared_ptr<RegionState>& state) {
  // Dereference once: the analysis tracks capability expressions by base
  // object, so `s.mutex` and `s.done` must share the same base.
  RegionState& s = *state;
  for (;;) {
    size_t chunk = s.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= s.plan.chunk_count) return;
    auto [begin, end] = s.plan.Bounds(chunk);
    s.body(chunk, begin, end);
    MutexLock lock(s.mutex);
    if (++s.done == s.plan.chunk_count) s.all_done.NotifyAll();
  }
}

}  // namespace

void ForEachChunk(ThreadPool* pool, size_t count, size_t grain,
                  const std::function<void(size_t, size_t, size_t)>& body) {
  ChunkPlan plan = PlanChunks(count, grain);
  if (plan.chunk_count == 0) return;
  if (pool == nullptr || pool->thread_count() <= 1 || plan.chunk_count <= 1) {
    for (size_t chunk = 0; chunk < plan.chunk_count; ++chunk) {
      auto [begin, end] = plan.Bounds(chunk);
      body(chunk, begin, end);
    }
    return;
  }

  auto state = std::make_shared<RegionState>(body);
  state->plan = plan;
  // The caller claims chunks too, so at most chunk_count - 1 helpers can
  // ever find work; extra submissions would only queue no-ops.
  size_t helpers =
      std::min(pool->thread_count(), plan.chunk_count) - 1;
  for (size_t i = 0; i < helpers; ++i) {
    pool->Submit([state] { DrainChunks(state); });
  }
  DrainChunks(state);
  RegionState& s = *state;
  MutexLock lock(s.mutex);
  // Explicit predicate loop (not cv.wait(lock, pred)): the analysis treats
  // a predicate lambda as a separate function and cannot see that it runs
  // under the lock.
  while (s.done != s.plan.chunk_count) s.all_done.Wait(s.mutex);
}

}  // namespace daspos
