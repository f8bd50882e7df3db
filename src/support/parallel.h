// Chunked data-parallel helpers over ThreadPool with deterministic, ordered
// merge: a parallel run produces byte-identical output to the serial run at
// every thread count. Chunk boundaries depend only on (count, grain) — never
// on the pool width — so per-chunk accumulators always cover the same ranges,
// and the caller merges them in chunk order.
//
// Deadlock safety: workflow steps already execute ON pool worker threads, so
// a nested parallel region must not block waiting for pool capacity. The
// caller participates: chunks are claimed from a shared atomic cursor by the
// calling thread and by helper tasks submitted to the pool, and the caller
// only sleeps once every chunk is claimed. Progress is guaranteed even when
// no helper ever runs.
#ifndef DASPOS_SUPPORT_PARALLEL_H_
#define DASPOS_SUPPORT_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace daspos {

class ThreadPool;

/// Deterministic partition of [0, count) into near-equal chunks. The chunk
/// count is a pure function of (count, grain): never more than kMaxChunks,
/// never more chunks than items, and each chunk holds at least `grain` items
/// (except when count < grain, which yields a single short chunk).
struct ChunkPlan {
  /// Hard ceiling on chunks per region: bounds accumulator memory and keeps
  /// the plan independent of how many workers happen to be available.
  static constexpr size_t kMaxChunks = 64;

  size_t count = 0;
  size_t chunk_count = 0;

  /// Half-open [begin, end) item range of chunk `chunk`.
  std::pair<size_t, size_t> Bounds(size_t chunk) const;
};

ChunkPlan PlanChunks(size_t count, size_t grain);

/// Runs body(chunk_index, begin, end) for every chunk of PlanChunks(count,
/// grain). With a null pool (or a single chunk) the chunks run serially in
/// order on the calling thread; otherwise the caller and up to
/// thread_count() pool helpers drain chunks concurrently. Returns after
/// every chunk has finished. `body` must be safe to invoke concurrently on
/// distinct chunks.
void ForEachChunk(ThreadPool* pool, size_t count, size_t grain,
                  const std::function<void(size_t, size_t, size_t)>& body);

/// Parallel loop: fn(i) for every i in [0, count). `grain` is the minimum
/// number of items per chunk (use a larger grain for cheap bodies).
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t count, Fn&& fn, size_t grain = 1) {
  ForEachChunk(pool, count, grain,
               [&fn](size_t /*chunk*/, size_t begin, size_t end) {
                 for (size_t i = begin; i < end; ++i) fn(i);
               });
}

/// Parallel map into a pre-sized vector: out[i] = fn(i). T must be default-
/// constructible; element order always matches the serial loop.
template <typename T, typename Fn>
std::vector<T> ParallelMap(ThreadPool* pool, size_t count, Fn&& fn,
                           size_t grain = 1) {
  std::vector<T> out(count);
  ParallelFor(
      pool, count, [&out, &fn](size_t i) { out[i] = fn(i); }, grain);
  return out;
}

/// Parallel map-reduce with ordered merge: map_chunk(begin, end) produces one
/// accumulator per chunk, and reduce(acc, part) folds them IN CHUNK ORDER, so
/// order-sensitive reductions (string concatenation, event streams) match the
/// serial result exactly. Because chunk boundaries are thread-count
/// independent, even boundary-sensitive reductions are reproducible.
template <typename Acc, typename MapChunk, typename Reduce>
Acc ParallelMapReduce(ThreadPool* pool, size_t count, Acc init,
                      MapChunk&& map_chunk, Reduce&& reduce,
                      size_t grain = 1) {
  ChunkPlan plan = PlanChunks(count, grain);
  std::vector<Acc> parts(plan.chunk_count);
  ForEachChunk(pool, count, grain,
               [&parts, &map_chunk](size_t chunk, size_t begin, size_t end) {
                 parts[chunk] = map_chunk(begin, end);
               });
  Acc acc = std::move(init);
  for (Acc& part : parts) reduce(acc, std::move(part));
  return acc;
}

}  // namespace daspos

#endif  // DASPOS_SUPPORT_PARALLEL_H_
