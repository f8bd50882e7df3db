// Tests for the observability layer: the metrics registry (counters,
// gauges, fixed-bucket histograms, Prometheus exposition) and the span
// tracer (nesting, per-thread buffers, Chrome trace_event export).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serialize/json.h"
#include "support/metrics_registry.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace daspos {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterHandleIsStableAndAccumulates) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_events_total", "test events");
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.GetCounter("test_events_total"), &counter);
  EXPECT_EQ(registry.CounterValue("test_events_total"), 42u);
  // Unregistered names read as zero rather than erroring.
  EXPECT_EQ(registry.CounterValue("never_registered"), 0u);
}

TEST(MetricsRegistryTest, GaugeMovesBothDirections) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("test_depth", "queue depth");
  gauge.Add(5);
  gauge.Add(-2);
  EXPECT_EQ(gauge.value(), 3);
  gauge.Set(-7);
  EXPECT_EQ(registry.GaugeValue("test_depth"), -7);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  Histogram& histogram =
      registry.GetHistogram("test_wall_ms", {1.0, 10.0, 100.0}, "latency");
  // le is inclusive: an observation exactly on a bound lands in that bucket.
  histogram.Observe(1.0);
  histogram.Observe(0.5);
  histogram.Observe(10.0);
  histogram.Observe(10.1);
  histogram.Observe(1000.0);  // past the last bound -> +Inf bucket
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1.0 + 0.5 + 10.0 + 10.1 + 1000.0);
  EXPECT_EQ(histogram.bucket_count(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(histogram.bucket_count(1), 1u);  // 10.0
  EXPECT_EQ(histogram.bucket_count(2), 1u);  // 10.1
  EXPECT_EQ(histogram.bucket_count(3), 1u);  // 1000.0 in +Inf
}

TEST(MetricsRegistryTest, DefaultLatencyBucketsAreAscending) {
  const std::vector<double>& bounds = Histogram::DefaultLatencyBucketsMs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  // Base-2 from 1 us to past 8 s, so sub-millisecond Gets resolve.
  EXPECT_DOUBLE_EQ(bounds.front(), 0.001);
  EXPECT_GE(bounds.back(), 8192.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], 2.0 * bounds[i - 1]) << i;
  }
  MetricsRegistry registry;
  registry.GetHistogram("daspos_demo_wall_ms", bounds).Observe(0.0025);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("daspos_demo_wall_ms_bucket{le=\"0.002\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("daspos_demo_wall_ms_bucket{le=\"0.004\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("daspos_demo_wall_ms_bucket{le=\"8388.608\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistryTest, KindMismatchReturnsDetachedDummy) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_mixed", "first registration");
  counter.Increment();
  // Asking for the same name as a gauge must not corrupt the counter.
  Gauge& dummy = registry.GetGauge("test_mixed");
  dummy.Set(99);
  EXPECT_EQ(registry.CounterValue("test_mixed"), 1u);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.gauges.size(), 0u);
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zzz_total").Increment(3);
  registry.GetCounter("aaa_total").Increment(1);
  registry.GetGauge("mmm_depth").Set(2);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "aaa_total");
  EXPECT_EQ(snapshot.counters[1].name, "zzz_total");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].name, "mmm_depth");
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_total");
  Histogram& histogram = registry.GetHistogram("test_ms", {1.0});
  counter.Increment(5);
  histogram.Observe(0.5);
  registry.ResetForTesting();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.bucket_count(0), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  // The handle survives the reset and keeps working.
  counter.Increment();
  EXPECT_EQ(registry.CounterValue("test_total"), 1u);
}

TEST(MetricsRegistryTest, PrometheusGoldenOutput) {
  MetricsRegistry registry;
  registry.GetCounter("daspos_demo_events_total", "events seen").Increment(7);
  registry.GetGauge("daspos_demo_depth", "queue depth").Set(3);
  Histogram& histogram =
      registry.GetHistogram("daspos_demo_wall_ms", {1.0, 10.0}, "latency");
  histogram.Observe(0.5);
  histogram.Observe(5.0);
  histogram.Observe(50.0);

  const std::string expected =
      "# HELP daspos_demo_depth queue depth\n"
      "# TYPE daspos_demo_depth gauge\n"
      "daspos_demo_depth 3\n"
      "# HELP daspos_demo_events_total events seen\n"
      "# TYPE daspos_demo_events_total counter\n"
      "daspos_demo_events_total 7\n"
      "# HELP daspos_demo_wall_ms latency\n"
      "# TYPE daspos_demo_wall_ms histogram\n"
      "daspos_demo_wall_ms_bucket{le=\"1\"} 1\n"
      "daspos_demo_wall_ms_bucket{le=\"10\"} 2\n"
      "daspos_demo_wall_ms_bucket{le=\"+Inf\"} 3\n"
      "daspos_demo_wall_ms_sum 55.5\n"
      "daspos_demo_wall_ms_count 3\n";
  EXPECT_EQ(registry.RenderPrometheus(), expected);
}

TEST(MetricsRegistryTest, RegisterStandardMetricsPreregistersCatalogue) {
  MetricsRegistry registry;
  RegisterStandardMetrics(registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  std::vector<std::string> names;
  for (const auto& c : snapshot.counters) names.push_back(c.name);
  for (const auto& g : snapshot.gauges) names.push_back(g.name);
  for (const auto& h : snapshot.histograms) names.push_back(h.name);
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has(metric_names::kWorkflowStepsTotal));
  EXPECT_TRUE(has(metric_names::kArchiveQuarantinesTotal));
  EXPECT_TRUE(has(metric_names::kArchiveGetWallMs));
  EXPECT_TRUE(has(metric_names::kPoolQueueDepth));
  EXPECT_TRUE(has(metric_names::kPoolTaskWallMs));
  EXPECT_TRUE(has(metric_names::kLintFindingsTotal));
  // Everything starts at zero; the exposition renders without touching
  // any subsystem.
  EXPECT_EQ(registry.CounterValue(metric_names::kArchiveQuarantinesTotal), 0u);
  EXPECT_NE(registry.RenderPrometheus().find(
                "daspos_archive_quarantines_total 0"),
            std::string::npos);
  // Idempotent: a second registration neither throws nor duplicates.
  RegisterStandardMetrics(registry);
  EXPECT_EQ(registry.Snapshot().counters.size(), snapshot.counters.size());
}

TEST(MetricsRegistryTest, CataloguedNameTakesHelpFromTheCatalogue) {
  // No RegisterStandardMetrics: the first Get* alone fixes the HELP, and a
  // stale HELP passed by a later caller changes nothing.
  MetricsRegistry registry;
  registry.GetCounter(metric_names::kArchiveQuarantineErrorsTotal);
  registry.GetCounter(metric_names::kArchiveQuarantineErrorsTotal,
                      "quarantine moves that failed (mkdir or rename error)");
  EXPECT_EQ(registry.RenderPrometheus(),
            "# HELP daspos_archive_quarantine_errors_total quarantine moves "
            "that failed (forensic copy may be lost)\n"
            "# TYPE daspos_archive_quarantine_errors_total counter\n"
            "daspos_archive_quarantine_errors_total 0\n");
}

TEST(MetricsRegistryTest, CataloguedNameKeepsItsCataloguedKind) {
  MetricsRegistry registry;
  // The catalogue says counter: a gauge request gets the detached dummy and
  // registers nothing, so the real counter is still there to be had.
  registry.GetGauge(metric_names::kPoolTasksTotal).Set(9);
  EXPECT_TRUE(registry.Snapshot().gauges.empty());
  registry.GetCounter(metric_names::kPoolTasksTotal).Increment(2);
  EXPECT_EQ(registry.CounterValue(metric_names::kPoolTasksTotal), 2u);
}

TEST(MetricsRegistryTest, ExpositionIndependentOfRegistrationOrder) {
  // Names and kinds come from the catalogue itself, via a registry that
  // holds nothing else.
  MetricsRegistry catalogue;
  RegisterStandardMetrics(catalogue);
  const MetricsSnapshot standard = catalogue.Snapshot();
  ASSERT_FALSE(standard.counters.empty());
  ASSERT_FALSE(standard.gauges.empty());
  ASSERT_FALSE(standard.histograms.empty());
  // What a subsystem does: Get* by name, no HELP, default buckets.
  auto subsystem_gets = [&standard](MetricsRegistry& registry) {
    for (const auto& c : standard.counters) registry.GetCounter(c.name);
    for (const auto& g : standard.gauges) registry.GetGauge(g.name);
    for (const auto& h : standard.histograms) registry.GetHistogram(h.name);
  };
  MetricsRegistry catalogue_first;
  RegisterStandardMetrics(catalogue_first);
  subsystem_gets(catalogue_first);
  MetricsRegistry subsystems_first;
  subsystem_gets(subsystems_first);
  RegisterStandardMetrics(subsystems_first);
  const std::string exposition = catalogue.RenderPrometheus();
  EXPECT_EQ(catalogue_first.RenderPrometheus(), exposition);
  EXPECT_EQ(subsystems_first.RenderPrometheus(), exposition);
  for (const auto& c : standard.counters) {
    EXPECT_FALSE(c.help.empty()) << c.name;
  }
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Resolve through the registry each time to also stress GetCounter.
      Counter& counter = registry.GetCounter("test_concurrent_total");
      Histogram& histogram =
          registry.GetHistogram("test_concurrent_ms", {1.0, 10.0});
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        histogram.Observe(0.5);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry.CounterValue("test_concurrent_total"),
            static_cast<uint64_t>(kThreads) * kIncrements);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count,
            static_cast<uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(snapshot.histograms[0].bucket_counts[0],
            static_cast<uint64_t>(kThreads) * kIncrements);
}

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

// Drains the global tracer and indexes the result by span name.
std::map<std::string, SpanEvent> DrainByName() {
  std::map<std::string, SpanEvent> by_name;
  for (SpanEvent& event : Tracer::Global().Drain()) {
    by_name[event.name] = std::move(event);
  }
  return by_name;
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Disable();
  Tracer::Global().Drain();  // discard anything a previous test recorded
  { Span span("invisible"); }
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

TEST(TracerTest, NestedSpansLinkParentAndChild) {
  Tracer::Global().Enable();
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
      inner.AddAttribute("events", static_cast<uint64_t>(12));
    }
    { Span sibling("sibling", "test"); }
  }
  Tracer::Global().Disable();
  std::map<std::string, SpanEvent> spans = DrainByName();
  ASSERT_EQ(spans.size(), 3u);
  const SpanEvent& outer = spans.at("outer");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(spans.at("inner").parent_id, outer.id);
  EXPECT_EQ(spans.at("sibling").parent_id, outer.id);
  EXPECT_EQ(outer.category, "test");
  ASSERT_EQ(spans.at("inner").attributes.size(), 1u);
  EXPECT_EQ(spans.at("inner").attributes[0].first, "events");
  EXPECT_EQ(spans.at("inner").attributes[0].second, "12");
  // Children close before the parent and start no earlier than it.
  EXPECT_GE(spans.at("inner").start_us, outer.start_us);
  EXPECT_LE(spans.at("inner").duration_us, outer.duration_us);
}

TEST(TracerTest, EnableClearsPreviousSpans) {
  Tracer::Global().Enable();
  { Span span("stale"); }
  Tracer::Global().Enable();  // restart: drops "stale"
  { Span span("fresh"); }
  Tracer::Global().Disable();
  std::map<std::string, SpanEvent> spans = DrainByName();
  EXPECT_EQ(spans.count("stale"), 0u);
  EXPECT_EQ(spans.count("fresh"), 1u);
  // Drain clears: a second drain is empty.
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

TEST(TracerTest, SpansNestPerThreadAcrossPoolWorkers) {
  Tracer::Global().Enable();
  constexpr size_t kTasks = 16;
  {
    Span root("pool_root", "test");
    ThreadPool pool(4);
    for (size_t i = 0; i < kTasks; ++i) {
      pool.Submit([i] {
        Span task("task", "test");
        task.AddAttribute("index", static_cast<uint64_t>(i));
        Span child("task_child", "test");
      });
    }
    pool.Wait();
  }
  Tracer::Global().Disable();
  std::vector<SpanEvent> spans = Tracer::Global().Drain();
  std::map<uint64_t, const SpanEvent*> by_id;
  size_t tasks = 0;
  size_t children = 0;
  for (const SpanEvent& event : spans) by_id[event.id] = &event;
  for (const SpanEvent& event : spans) {
    if (event.name == "task") {
      ++tasks;
      // Pool workers are distinct threads from the root span's thread, so
      // parent links do not cross threads: each task span is a root.
      EXPECT_EQ(event.parent_id, 0u);
    } else if (event.name == "task_child") {
      ++children;
      // Each child's parent is a "task" span recorded on the same thread.
      ASSERT_EQ(by_id.count(event.parent_id), 1u);
      const SpanEvent& parent = *by_id.at(event.parent_id);
      EXPECT_EQ(parent.name, "task");
      EXPECT_EQ(parent.thread_index, event.thread_index);
    }
  }
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(children, kTasks);
  // Drain is sorted chronologically.
  EXPECT_TRUE(std::is_sorted(spans.begin(), spans.end(),
                             [](const SpanEvent& a, const SpanEvent& b) {
                               return a.start_us < b.start_us ||
                                      (a.start_us == b.start_us && a.id < b.id);
                             }));
}

TEST(SpanTest, ElapsedMillisRunsWithTheTracerOff) {
  Tracer::Global().Disable();
  Span span("clock");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double first = span.ElapsedMillis();
  EXPECT_GE(first, 2.0);
  EXPECT_GE(span.ElapsedMillis(), first);
}

TEST(SpanTest, HistogramObservedExactlyOnceAtClose) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test_span_ms");
  for (bool traced : {false, true}) {
    if (traced) {
      Tracer::Global().Enable();
    } else {
      Tracer::Global().Disable();
    }
    const uint64_t before = histogram.count();
    {
      Span span("timed", "test", &histogram);
      span.ElapsedMillis();  // reading the clock observes nothing
      EXPECT_EQ(histogram.count(), before);
    }
    EXPECT_EQ(histogram.count(), before + 1) << "traced=" << traced;
  }
  Tracer::Global().Disable();
  std::vector<SpanEvent> spans = Tracer::Global().Drain();
  ASSERT_EQ(spans.size(), 1u);  // only the traced pass records an event
  EXPECT_EQ(spans[0].name, "timed");
  EXPECT_GE(histogram.sum(), 0.0);
}

TEST(SpanTest, SpansClosingOnPoolWorkersObserveOnceEach) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test_pool_span_ms");
  constexpr size_t kTasks = 64;
  for (bool traced : {false, true}) {
    if (traced) {
      Tracer::Global().Enable();
    } else {
      Tracer::Global().Disable();
    }
    const uint64_t before = histogram.count();
    ThreadPool pool(4);
    for (size_t i = 0; i < kTasks; ++i) {
      pool.Submit([&histogram] { Span span("task", "test", &histogram); });
    }
    pool.Wait();
    EXPECT_EQ(histogram.count(), before + kTasks) << "traced=" << traced;
  }
  Tracer::Global().Disable();
  EXPECT_EQ(Tracer::Global().Drain().size(), kTasks);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(TraceEventJsonTest, NormalizedGoldenOutput) {
  std::vector<SpanEvent> spans(2);
  spans[0].name = "step:reco";
  spans[0].category = "workflow";
  spans[0].id = 7;
  spans[0].parent_id = 0;
  spans[0].thread_index = 2;
  spans[0].start_us = 123.0;
  spans[0].duration_us = 456.0;
  spans[0].attributes = {{"output", "reco_hits"}};
  spans[1].name = "attempt:reco";
  spans[1].category = "workflow";
  spans[1].id = 9;
  spans[1].parent_id = 7;
  spans[1].thread_index = 2;
  spans[1].start_us = 124.0;
  spans[1].duration_us = 400.0;

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"attempt:reco\",\"cat\":\"workflow\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.000,"
      "\"args\":{\"span_id\":\"1\",\"parent_id\":\"2\"}},\n"
      "{\"name\":\"step:reco\",\"cat\":\"workflow\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.000,"
      "\"args\":{\"span_id\":\"2\",\"parent_id\":\"0\","
      "\"output\":\"reco_hits\"}}\n"
      "]}\n";
  EXPECT_EQ(TraceEventJson(spans, /*normalize_timestamps=*/true), expected);
}

TEST(TraceEventJsonTest, EscapesSpecialCharacters) {
  std::vector<SpanEvent> spans(1);
  spans[0].name = "odd \"name\"\n";
  spans[0].category = "test";
  spans[0].id = 1;
  spans[0].attributes = {{"error", "tab\there"}};
  std::string json = TraceEventJson(spans);
  EXPECT_NE(json.find("odd \\\"name\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  Result<Json> parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
}

TEST(TraceEventJsonTest, RealTracerOutputIsValidJson) {
  Tracer::Global().Enable();
  {
    Span outer("workflow:execute", "workflow");
    outer.AddAttribute("steps", static_cast<uint64_t>(2));
    {
      Span step("step:gen", "workflow");
      step.AddAttribute("wall_ms", 1.5);
    }
    { Span step("step:reco", "workflow"); }
  }
  Tracer::Global().Disable();
  std::vector<SpanEvent> spans = Tracer::Global().Drain();
  ASSERT_EQ(spans.size(), 3u);

  std::string json = TraceEventJson(spans);
  Result<Json> parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Get("displayTimeUnit").as_string(), "ms");
  const Json& events = doc.Get("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    EXPECT_EQ(event.Get("ph").as_string(), "X");
    EXPECT_EQ(event.Get("pid").as_int(), 1);
    EXPECT_TRUE(event.Get("args").Has("span_id"));
    EXPECT_TRUE(event.Get("args").Has("parent_id"));
  }
}

}  // namespace
}  // namespace daspos
