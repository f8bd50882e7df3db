#include "support/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "support/metrics_registry.h"

namespace daspos {

namespace {

/// The span id most recently opened (and not yet closed) on this thread —
/// the parent of the next span constructed here. 0 = no live span.
thread_local uint64_t tls_current_span = 0;

/// Minimal JSON string escaper for span names/attributes (the exporter
/// cannot use serialize/ — support sits below it in the layer order).
void AppendEscaped(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Epoch of the current trace, in steady_clock nanoseconds. Atomic so span
/// destructors can timestamp without taking the tracer mutex.
std::atomic<int64_t> g_epoch_ns{0};

}  // namespace

// -------------------------------------------------------------------- Tracer

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  MutexLock lock(mutex_);
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
    // Raw pointer local: the analysis tracks capability expressions by base
    // object, and `raw->mutex` names the same lock as `raw->events`' guard.
    ThreadBuffer* raw = buffer.get();
    MutexLock buffer_lock(raw->mutex);
    raw->events.clear();
  }
  g_epoch_ns.store(NowNs(), std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  // One buffer per thread; the second shared_ptr owner lives in buffers_,
  // so recorded spans survive the thread's exit.
  thread_local std::shared_ptr<ThreadBuffer> tls_buffer;
  if (tls_buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    MutexLock lock(mutex_);
    buffer->thread_index = buffers_.size();
    buffers_.push_back(buffer);
    tls_buffer = std::move(buffer);
  }
  return tls_buffer.get();
}

double Tracer::MicrosSinceEpoch() const {
  return static_cast<double>(NowNs() -
                             g_epoch_ns.load(std::memory_order_relaxed)) /
         1000.0;
}

std::vector<SpanEvent> Tracer::Drain() {
  std::vector<SpanEvent> spans;
  {
    MutexLock lock(mutex_);
    for (const std::shared_ptr<ThreadBuffer>& buffer : buffers_) {
      ThreadBuffer* raw = buffer.get();
      MutexLock buffer_lock(raw->mutex);
      for (SpanEvent& event : raw->events) {
        spans.push_back(std::move(event));
      }
      raw->events.clear();
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.id < b.id;
            });
  return spans;
}

// ---------------------------------------------------------------------- Span

Span::Span(std::string_view name, std::string_view category,
           Histogram* histogram)
    : histogram_(histogram) {
  Tracer& tracer = Tracer::Global();
  if (tracer.enabled()) {
    active_ = true;
    event_.name = std::string(name);
    event_.category = std::string(category);
    event_.id = tracer.NextSpanId();
    event_.parent_id = tls_current_span;
    prev_current_ = tls_current_span;
    tls_current_span = event_.id;
  }
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_ && histogram_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  const std::chrono::duration<double, std::micro> elapsed = end - start_;
  if (histogram_ != nullptr) histogram_->Observe(elapsed.count() / 1000.0);
  if (!active_) return;
  int64_t start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         start_.time_since_epoch())
                         .count();
  event_.start_us =
      static_cast<double>(start_ns -
                          g_epoch_ns.load(std::memory_order_relaxed)) /
      1000.0;
  event_.duration_us = elapsed.count();
  tls_current_span = prev_current_;
  Tracer::ThreadBuffer* buffer = Tracer::Global().BufferForThisThread();
  event_.thread_index = buffer->thread_index;
  MutexLock lock(buffer->mutex);
  buffer->events.push_back(std::move(event_));
}

double Span::ElapsedMillis() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void Span::AddAttribute(std::string_view key, std::string_view value) {
  if (!active_) return;
  event_.attributes.emplace_back(std::string(key), std::string(value));
}

void Span::AddAttribute(std::string_view key, uint64_t value) {
  if (!active_) return;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  event_.attributes.emplace_back(std::string(key), buffer);
}

void Span::AddAttribute(std::string_view key, double value) {
  if (!active_) return;
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  event_.attributes.emplace_back(std::string(key), buffer);
}

// ---------------------------------------------------------------- Exporter

std::string TraceEventJson(const std::vector<SpanEvent>& spans,
                           bool normalize_timestamps) {
  // Export order: chronological for a human-readable file; name order (with
  // renumbered ids) when normalizing, so structurally identical runs export
  // byte-identically regardless of scheduling.
  std::vector<const SpanEvent*> ordered;
  ordered.reserve(spans.size());
  for (const SpanEvent& span : spans) ordered.push_back(&span);
  if (normalize_timestamps) {
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                if (a->name != b->name) return a->name < b->name;
                if (a->category != b->category) {
                  return a->category < b->category;
                }
                return a->id < b->id;
              });
  } else {
    std::sort(ordered.begin(), ordered.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                if (a->start_us != b->start_us) {
                  return a->start_us < b->start_us;
                }
                return a->id < b->id;
              });
  }

  // Renumbered ids keep parent links intact while hiding construction order.
  std::map<uint64_t, uint64_t> renumbered;
  if (normalize_timestamps) {
    uint64_t next = 1;
    for (const SpanEvent* span : ordered) renumbered[span->id] = next++;
  }
  auto map_id = [&](uint64_t id) -> uint64_t {
    if (!normalize_timestamps || id == 0) return id;
    auto it = renumbered.find(id);
    return it == renumbered.end() ? 0 : it->second;
  };

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[96];
  bool first = true;
  for (const SpanEvent* span : ordered) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    AppendEscaped(out, span->name);
    out += ",\"cat\":";
    AppendEscaped(out, span->category);
    double ts = normalize_timestamps ? 0.0 : span->start_us;
    double dur = normalize_timestamps ? 0.0 : span->duration_us;
    uint64_t tid = normalize_timestamps ? 0 : span->thread_index;
    std::snprintf(buffer, sizeof(buffer),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
                  ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  tid, ts, dur);
    out += buffer;
    std::snprintf(buffer, sizeof(buffer),
                  "\"span_id\":\"%" PRIu64 "\",\"parent_id\":\"%" PRIu64
                  "\"",
                  map_id(span->id), map_id(span->parent_id));
    out += buffer;
    for (const auto& [key, value] : span->attributes) {
      out += ',';
      AppendEscaped(out, key);
      out += ':';
      AppendEscaped(out, value);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace daspos
