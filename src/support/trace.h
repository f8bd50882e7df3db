// Span-based tracing for the preservation runtime. A Span is an RAII region
// and the stack's one clock: construction stamps the start, ElapsedMillis()
// reads the time so far, and destruction observes the span's latency
// histogram (if it was given one) and, while the tracer is on, appends a
// finished SpanEvent to the recording thread's own buffer — the hot path
// never touches a shared lock, so tracing a wide workflow run does not
// serialize it. Buffers are drained at export into Chrome trace_event JSON
// (loadable in about://tracing and ui.perfetto.dev) via `daspos chain
// --trace-out=FILE`.
//
// Parent/child links are per-thread: the most recent live Span on a thread
// is the parent of the next one constructed there. That matches how the
// stack actually nests — a workflow step span opened on a pool worker
// automatically parents the retry-attempt and archive-operation spans its
// body opens on that worker.
//
// Determinism contract (DESIGN.md §4f): with tracing enabled, the multiset
// of span names, categories, parent links, and attribute keys produced by a
// run is independent of --threads=N; timestamps, durations, and thread
// indices are wall-clock. TraceEventJson(normalize=true) strips the
// wall-clock parts, yielding byte-identical exports for identical runs.
#ifndef DASPOS_SUPPORT_TRACE_H_
#define DASPOS_SUPPORT_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/sync.h"

namespace daspos {

class Histogram;

/// One finished span, as drained from a thread buffer.
struct SpanEvent {
  std::string name;
  std::string category;
  /// Process-unique span id (1-based; assigned at construction order).
  uint64_t id = 0;
  /// Id of the span that was live on the same thread at construction;
  /// 0 for a root span.
  uint64_t parent_id = 0;
  /// Dense index of the recording thread (registration order).
  uint64_t thread_index = 0;
  /// Microseconds since Tracer::Enable.
  double start_us = 0.0;
  double duration_us = 0.0;
  /// key=value annotations (bytes, events, attempt number, ...).
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Process-wide span collector. Disabled by default: a Span constructed
/// while the tracer is disabled records nothing (one relaxed atomic load;
/// it still reads the clock, see Span).
class Tracer {
 public:
  static Tracer& Global();

  /// Starts a fresh trace: clears previously collected spans and resets the
  /// time origin. Safe to call while other threads run (they start
  /// recording from their next span).
  void Enable() DASPOS_EXCLUDES(mutex_);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Collects every finished span from every thread buffer and clears them.
  /// Spans are returned sorted by (start_us, id) — chronological for a
  /// human reading the export.
  std::vector<SpanEvent> Drain() DASPOS_EXCLUDES(mutex_);

 private:
  friend class Span;
  struct ThreadBuffer {
    // Owner thread appends, Drain reads: uncontended in the steady state.
    Mutex mutex;
    std::vector<SpanEvent> events DASPOS_GUARDED_BY(mutex);
    /// Written once at registration (under the tracer mutex, before the
    /// buffer is published) and read only by the owner thread afterwards.
    uint64_t thread_index = 0;
  };

  Tracer() = default;

  /// The calling thread's buffer, registered on first use. The shared_ptr
  /// keeps recorded spans alive after the thread exits.
  ThreadBuffer* BufferForThisThread() DASPOS_EXCLUDES(mutex_);
  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  double MicrosSinceEpoch() const;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  /// Registration lock, ordered before each ThreadBuffer::mutex (Enable and
  /// Drain hold it while visiting every buffer).
  mutable Mutex mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ DASPOS_GUARDED_BY(mutex_);
};

/// RAII timed region. Construct on the stack; the span closes when it goes
/// out of scope. The start is always stamped, so ElapsedMillis() works
/// whether or not the tracer is on. A span given a `histogram` observes its
/// wall time in milliseconds exactly once, at close, on every path out of
/// the scope. Recording to Tracer::Global() happens only while the tracer
/// is enabled; a disabled-tracer span without a histogram costs one clock
/// read.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "daspos",
                Histogram* histogram = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Milliseconds since construction.
  double ElapsedMillis() const;

  void AddAttribute(std::string_view key, std::string_view value);
  void AddAttribute(std::string_view key, uint64_t value);
  void AddAttribute(std::string_view key, double value);

 private:
  bool active_ = false;
  uint64_t prev_current_ = 0;
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  SpanEvent event_;
};

/// Renders spans as a Chrome trace_event JSON document (complete "X" events
/// with ts/dur in microseconds), loadable in about://tracing and Perfetto.
/// With `normalize_timestamps`, wall-clock fields (ts, dur, tid) are zeroed,
/// span ids are renumbered in sorted-by-name order, and events are emitted
/// in that order — byte-identical output for structurally identical runs
/// (golden tests, cross-thread-count diffs).
std::string TraceEventJson(const std::vector<SpanEvent>& spans,
                           bool normalize_timestamps = false);

}  // namespace daspos

#endif  // DASPOS_SUPPORT_TRACE_H_
