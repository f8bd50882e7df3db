// Prices the observability layer itself: counter/histogram/span overhead on
// the hot path, the cost of a disabled vs enabled tracer, and the exporter
// render times. The registry and tracer ride inside every instrumented loop
// (workflow engine, pool, object store), so their per-event cost must stay
// in the nanoseconds for the "speed never buys a different answer" story to
// also read "evidence never buys a slowdown".
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "support/metrics_registry.h"
#include "support/trace.h"

using namespace daspos;

namespace {

// One relaxed atomic add: the cost every instrumented event pays.
void BM_CounterIncrement(benchmark::State& state) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("bench_events_total");
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterIncrement);

// Name lookup on every event — the anti-pattern the stable handles avoid.
void BM_CounterLookupAndIncrement(benchmark::State& state) {
  MetricsRegistry registry;
  registry.GetCounter("bench_events_total");
  for (auto _ : state) {
    registry.GetCounter("bench_events_total").Increment();
  }
}
BENCHMARK(BM_CounterLookupAndIncrement);

// Bucket search + two atomics + CAS-loop sum.
void BM_HistogramObserve(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram(
      "bench_wall_ms", Histogram::DefaultLatencyBucketsMs());
  double value = 0.1;
  for (auto _ : state) {
    histogram.Observe(value);
    value += 0.7;
    if (value > 6000.0) value = 0.1;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramObserve);

// A span while the tracer is off: one relaxed load and one clock read, no
// allocation.
void BM_SpanDisabled(benchmark::State& state) {
  Tracer::Global().Disable();
  for (auto _ : state) {
    Span span("bench:disabled", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

// A recorded span: two clock reads plus an append to the thread buffer.
void BM_SpanEnabled(benchmark::State& state) {
  Tracer::Global().Enable();
  for (auto _ : state) {
    Span span("bench:enabled", "bench");
    benchmark::DoNotOptimize(&span);
  }
  Tracer::Global().Disable();
  Tracer::Global().Drain();  // do not let the buffer outlive the benchmark
}
BENCHMARK(BM_SpanEnabled);

// Recorded span with attributes — the shape step/archive spans have.
void BM_SpanWithAttributes(benchmark::State& state) {
  Tracer::Global().Enable();
  for (auto _ : state) {
    Span span("bench:attrs", "bench");
    span.AddAttribute("bytes", static_cast<uint64_t>(4096));
    span.AddAttribute("output", "derived");
  }
  Tracer::Global().Disable();
  Tracer::Global().Drain();
}
BENCHMARK(BM_SpanWithAttributes);

// Prometheus render over the full standard catalogue.
void BM_RenderPrometheus(benchmark::State& state) {
  MetricsRegistry registry;
  RegisterStandardMetrics(registry);
  registry.GetCounter(metric_names::kWorkflowStepsTotal).Increment(5);
  for (int i = 0; i < 64; ++i) {
    registry
        .GetHistogram(metric_names::kWorkflowStepWallMs,
                      Histogram::DefaultLatencyBucketsMs())
        .Observe(0.5 * i);
  }
  for (auto _ : state) {
    std::string text = registry.RenderPrometheus();
    benchmark::DoNotOptimize(text.data());
  }
}
BENCHMARK(BM_RenderPrometheus);

// Trace export at a realistic span count (a 5-step chain emits ~13 spans;
// scale to a journal-sized run).
void BM_TraceEventJson(benchmark::State& state) {
  std::vector<SpanEvent> spans(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < spans.size(); ++i) {
    spans[i].name = "step:bench_" + std::to_string(i % 5);
    spans[i].category = "workflow";
    spans[i].id = i + 1;
    spans[i].parent_id = i > 0 ? (i / 2) + 1 : 0;
    spans[i].start_us = static_cast<double>(i) * 3.0;
    spans[i].duration_us = 2.0;
    spans[i].attributes = {{"output", "derived"},
                           {"bytes", std::to_string(4096 + i)}};
  }
  for (auto _ : state) {
    std::string json = TraceEventJson(spans);
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spans.size()));
}
BENCHMARK(BM_TraceEventJson)->Arg(13)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
