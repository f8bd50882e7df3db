// Tests for the intra-step parallelism layer: chunk planning, the
// ParallelFor/Map/MapReduce helpers, nested-region deadlock freedom, and —
// most importantly — byte-identical determinism of every parallelized hot
// loop (reco, derivation, rivet, level2 files, whole workflows) at any
// thread count.
#include "support/parallel.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/store.h"
#include "detsim/simulation.h"
#include "level2/common.h"
#include "level2/files.h"
#include "mc/generator.h"
#include "hist/yoda_io.h"
#include "reco/reconstruction.h"
#include "rivet/analysis.h"
#include "rivet/registry.h"
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"
#include "support/threadpool.h"
#include "tiers/dataset.h"
#include "tiers/skimslim.h"
#include "workflow/engine.h"
#include "workflow/steps.h"

namespace daspos {
namespace {

// ---------------------------------------------------------------------------
// Chunk planning

TEST(ChunkPlanTest, CoversRangeExactlyOnce) {
  for (size_t count : {0u, 1u, 2u, 7u, 63u, 64u, 65u, 1000u, 4096u}) {
    for (size_t grain : {1u, 2u, 8u, 100u}) {
      ChunkPlan plan = PlanChunks(count, grain);
      if (count == 0) {
        EXPECT_EQ(plan.chunk_count, 0u);
        continue;
      }
      ASSERT_GE(plan.chunk_count, 1u);
      ASSERT_LE(plan.chunk_count, ChunkPlan::kMaxChunks);
      size_t expected_begin = 0;
      for (size_t c = 0; c < plan.chunk_count; ++c) {
        auto [begin, end] = plan.Bounds(c);
        EXPECT_EQ(begin, expected_begin) << "count=" << count;
        EXPECT_GT(end, begin);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, count);
    }
  }
}

TEST(ChunkPlanTest, RespectsGrain) {
  // With grain 100 over 250 items at most two chunks are planned, so no
  // chunk drops below ~the grain size.
  ChunkPlan plan = PlanChunks(250, 100);
  EXPECT_EQ(plan.chunk_count, 2u);
}

TEST(ChunkPlanTest, PlanIsIndependentOfThreadCount) {
  // The plan is a pure function of (count, grain); determinism of every
  // parallel merge rests on this.
  ChunkPlan a = PlanChunks(997, 4);
  ChunkPlan b = PlanChunks(997, 4);
  ASSERT_EQ(a.chunk_count, b.chunk_count);
  for (size_t c = 0; c < a.chunk_count; ++c) {
    EXPECT_EQ(a.Bounds(c), b.Bounds(c));
  }
}

// ---------------------------------------------------------------------------
// ParallelFor / ParallelMap / ParallelMapReduce

TEST(ParallelForTest, VisitsEveryIndexOnceSerial) {
  std::vector<int> visits(777, 0);
  ParallelFor(nullptr, visits.size(), [&](size_t i) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, VisitsEveryIndexOnceOnPool) {
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> visits(3001);
    ParallelFor(&pool, visits.size(),
                [&](size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelMapTest, ResultsInIndexOrderAtAnyWidth) {
  auto square = [](size_t i) { return static_cast<uint64_t>(i) * i; };
  std::vector<uint64_t> serial = ParallelMap<uint64_t>(nullptr, 500, square);
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<uint64_t> wide = ParallelMap<uint64_t>(&pool, 500, square);
    EXPECT_EQ(wide, serial) << threads << " threads";
  }
}

TEST(ParallelMapReduceTest, ReducesInChunkOrder) {
  // Concatenation is order-sensitive: the parallel result only matches the
  // serial one if parts are folded in chunk order.
  auto map_chunk = [](size_t begin, size_t end) {
    std::string acc;
    for (size_t i = begin; i < end; ++i) {
      acc.append(std::to_string(i));
      acc.push_back(',');
    }
    return acc;
  };
  auto reduce = [](std::string& into, std::string part) {
    into.append(part);
  };
  std::string serial = ParallelMapReduce<std::string>(
      nullptr, 400, std::string(), map_chunk, reduce, /*grain=*/1);
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::string wide = ParallelMapReduce<std::string>(
        &pool, 400, std::string(), map_chunk, reduce, /*grain=*/1);
    EXPECT_EQ(wide, serial);
  }
}

TEST(ParallelForTest, NestedRegionsOnOnePoolDoNotDeadlock) {
  // Steps running ON pool workers parallelize their own loops over the same
  // pool. Caller participation guarantees progress even when every worker
  // is occupied by an outer-level body.
  ThreadPool pool(2);
  std::atomic<uint64_t> total{0};
  ParallelFor(&pool, 8, [&](size_t) {
    ParallelFor(&pool, 100,
                [&](size_t j) { total.fetch_add(j); });
  });
  EXPECT_EQ(total.load(), 8u * (99u * 100u / 2u));
}

TEST(ThreadPoolTest, RegistryCountsExecutedTasks) {
  const MetricsRegistry& registry = MetricsRegistry::Global();
  uint64_t tasks_before =
      registry.CounterValue(metric_names::kPoolTasksTotal);
  {
    ThreadPool pool(2);
    ParallelFor(&pool, 64, [](size_t) {}, /*grain=*/1);
    pool.Wait();
  }
  // Helpers (up to thread_count-1 per region) ran; the caller's own chunk
  // draining is not a pool task.
  EXPECT_GE(registry.CounterValue(metric_names::kPoolTasksTotal),
            tasks_before + 1);
  // Nothing is left queued once the pool has drained and joined.
  EXPECT_EQ(registry.GaugeValue(metric_names::kPoolQueueDepth), 0);
}

// ---------------------------------------------------------------------------
// Streaming file hash

TEST(StreamingHashTest, MatchesInMemoryHash) {
  std::string payload;
  payload.reserve(600 * 1024);  // spans multiple streaming chunks
  for (size_t i = 0; payload.size() < 600 * 1024; ++i) {
    payload += "block " + std::to_string(i) + "\n";
  }
  std::string path =
      (std::filesystem::temp_directory_path() / "daspos_hash_test.bin")
          .string();
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());

  std::string hex;
  auto contents = ReadFileHashed(path, &hex);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, payload);
  EXPECT_EQ(hex, Sha256::HashHex(payload));

  auto hash_only = HashFileHex(path);
  ASSERT_TRUE(hash_only.ok());
  EXPECT_EQ(*hash_only, hex);
  std::filesystem::remove(path);
}

TEST(StreamingHashTest, MissingFileFails) {
  EXPECT_FALSE(HashFileHex("/nonexistent/daspos/blob").ok());
  std::string hex;
  EXPECT_FALSE(ReadFileHashed("/nonexistent/daspos/blob", &hex).ok());
}

// ---------------------------------------------------------------------------
// Determinism of the parallelized physics loops

std::vector<GenEvent> MakeTruth(size_t count) {
  GeneratorConfig config;
  config.process = Process::kZToLL;
  config.seed = 20260805;
  EventGenerator generator(config);
  return generator.GenerateMany(count);
}

std::vector<RawEvent> MakeRaw(const std::vector<GenEvent>& truth) {
  SimulationConfig config;
  config.seed = 99;
  DetectorSimulation simulation(config);
  std::vector<RawEvent> raw;
  raw.reserve(truth.size());
  for (const GenEvent& event : truth) {
    raw.push_back(simulation.Simulate(event, /*run_number=*/1));
  }
  return raw;
}

TEST(DeterminismTest, ReconstructAllMatchesSerialAtAnyWidth) {
  std::vector<RawEvent> raw = MakeRaw(MakeTruth(200));
  Reconstructor reconstructor{{}};
  std::vector<RecoEvent> serial = reconstructor.ReconstructAll(raw);
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<RecoEvent> wide = reconstructor.ReconstructAll(raw, &pool);
    ASSERT_EQ(wide.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(EncodeRecord(wide[i]), EncodeRecord(serial[i]))
          << "event " << i << " at " << threads << " threads";
    }
  }
}

std::string MakeAodBlob(size_t events) {
  std::vector<RawEvent> raw = MakeRaw(MakeTruth(events));
  Reconstructor reconstructor{{}};
  std::vector<RecoEvent> reco = reconstructor.ReconstructAll(raw);
  std::vector<AodEvent> aod;
  aod.reserve(reco.size());
  for (const RecoEvent& event : reco) aod.push_back(AodEvent::FromReco(event));
  DatasetInfo info;
  info.name = "determinism_aod";
  info.producer = "parallel_test";
  info.tier = DataTier::kAod;
  return WriteAodDataset(info, aod);
}

TEST(DeterminismTest, DeriveDatasetIsByteIdenticalAtAnyWidth) {
  std::string aod = MakeAodBlob(300);
  SkimSpec skim = SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0);
  SlimSpec slim = SlimSpec::LeptonsOnly(10.0);
  DerivationStats serial_stats;
  auto serial = DeriveDataset(aod, "derived", skim, slim, &serial_stats);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    DerivationStats stats;
    auto wide = DeriveDataset(aod, "derived", skim, slim, &stats, &pool);
    ASSERT_TRUE(wide.ok());
    EXPECT_EQ(*wide, *serial) << threads << " threads";
    EXPECT_EQ(stats.output_events, serial_stats.output_events);
    EXPECT_EQ(stats.output_bytes, serial_stats.output_bytes);
  }
}

std::string RunRivet(const std::vector<GenEvent>& events, ThreadPool* pool) {
  rivet::AnalysisHandler handler;
  for (const std::string& name : rivet::AnalysisRegistry::Global().Names()) {
    auto analysis = rivet::AnalysisRegistry::Global().Create(name);
    if (analysis.ok()) handler.Add(std::move(*analysis));
  }
  handler.Run(events, pool);
  return WriteYoda(handler.Finalize());
}

TEST(DeterminismTest, RivetRunIsBitIdenticalAtAnyWidth) {
  // Histogram fills are float accumulation; parallelizing across analyses
  // (never across events) keeps the per-analysis fill order — and thus the
  // YODA output — bit-identical.
  std::vector<GenEvent> events = MakeTruth(400);
  std::string serial = RunRivet(events, nullptr);
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(RunRivet(events, &pool), serial) << threads << " threads";
  }
}

TEST(DeterminismTest, Level2FilesAreByteIdenticalAtAnyWidth) {
  std::vector<RawEvent> raw = MakeRaw(MakeTruth(60));
  Reconstructor reconstructor{{}};
  std::vector<RecoEvent> reco = reconstructor.ReconstructAll(raw);
  std::vector<level2::CommonEvent> events;
  events.reserve(reco.size());
  for (const RecoEvent& event : reco) {
    events.push_back(level2::CommonEvent::FromReco(event));
  }
  for (Experiment experiment : kAllExperiments) {
    std::string serial = level2::WriteEventFile(experiment, events);
    for (size_t threads : {2u, 8u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(level2::WriteEventFile(experiment, events, &pool), serial);
      auto read_back = level2::ReadEventFile(experiment, serial, &pool);
      ASSERT_TRUE(read_back.ok());
      EXPECT_EQ(*read_back, events);
      auto converted = level2::ConvertEventFile(experiment, serial,
                                                Experiment::kAlice, &pool);
      auto converted_serial =
          level2::ConvertEventFile(experiment, serial, Experiment::kAlice);
      ASSERT_TRUE(converted.ok());
      ASSERT_TRUE(converted_serial.ok());
      EXPECT_EQ(*converted, *converted_serial);
    }
  }
}

Result<std::map<std::string, std::string>> RunChain(size_t threads) {
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.seed = 7;
  SimulationConfig sim_config;
  sim_config.seed = 8;

  Workflow workflow;
  DASPOS_RETURN_IF_ERROR(workflow.AddStep(
      std::make_shared<GenerationStep>(gen_config, 120, "gen"), {}, "gen"));
  DASPOS_RETURN_IF_ERROR(workflow.AddStep(
      std::make_shared<SimulationStep>(sim_config, 1, "raw"), {"gen"},
      "raw"));
  DASPOS_RETURN_IF_ERROR(workflow.AddStep(
      std::make_shared<ReconstructionStep>(sim_config.geometry, "reco"),
      {"raw"}, "reco"));
  DASPOS_RETURN_IF_ERROR(workflow.AddStep(
      std::make_shared<AodReductionStep>("aod"), {"reco"}, "aod"));
  DASPOS_RETURN_IF_ERROR(workflow.AddStep(
      std::make_shared<DerivationStep>(
          SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0),
          SlimSpec::LeptonsOnly(10.0), "derived"),
      {"aod"}, "derived"));

  ConditionsDb conditions;
  CalibrationSet calib;
  DASPOS_RETURN_IF_ERROR(
      conditions.Append(kCalibrationTag, 1, calib.ToPayload()));
  WorkflowContext context;
  context.set_conditions(&conditions);
  ExecuteOptions options;
  options.max_threads = threads;
  DASPOS_ASSIGN_OR_RETURN(WorkflowReport report,
                          workflow.Execute(&context, nullptr, options));
  (void)report;
  std::map<std::string, std::string> datasets;
  for (const std::string& name : context.DatasetNames()) {
    DASPOS_ASSIGN_OR_RETURN(std::string_view blob, context.GetDataset(name));
    datasets[name] = std::string(blob);
  }
  return datasets;
}

TEST(DeterminismTest, FullChainIsByteIdenticalAtAnyWidth) {
  auto serial = RunChain(1);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->size(), 5u);
  for (size_t threads : {2u, 4u, 8u}) {
    auto wide = RunChain(threads);
    ASSERT_TRUE(wide.ok());
    EXPECT_EQ(*wide, *serial) << threads << " threads";
  }
}

TEST(WorkflowReportTest, PoolUtilizationIsReported) {
  auto chain = RunChain(4);
  ASSERT_TRUE(chain.ok());
  // Re-run once more for the report itself.
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.seed = 7;
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<GenerationStep>(gen_config, 50,
                                                            "gen"),
                           {}, "gen")
                  .ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.max_threads = 4;
  auto report = workflow.Execute(&context, nullptr, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->threads_used, 4u);
  EXPECT_GE(report->pool.tasks_executed, 1u);
  EXPECT_GT(report->wall_ms, 0.0);
  Json json = report->ToJson();
  ASSERT_TRUE(json.Has("pool"));
  EXPECT_EQ(json.Get("pool").Get("threads").as_int(), 4);
}

/// A step that runs `tasks` no-op tasks on a pool of its own.
class PrivatePoolStep : public WorkflowStep {
 public:
  explicit PrivatePoolStep(size_t tasks) : tasks_(tasks) {}
  std::string name() const override { return "private_pool"; }
  std::string version() const override { return "1"; }
  Json Config() const override { return Json::Object(); }
  Result<StepOutput> Run(std::vector<DatasetInput>,
                         WorkflowContext*) const override {
    ThreadPool pool(2);
    for (size_t i = 0; i < tasks_; ++i) pool.Submit([] {});
    pool.Wait();
    return StepOutput{"done", 0};
  }

 private:
  size_t tasks_;
};

TEST(WorkflowReportTest, PrivatePoolTasksStayOutOfTheReport) {
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<PrivatePoolStep>(50), {},
                           "private_pool_out")
                  .ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.max_threads = 1;
  auto report = workflow.Execute(&context, nullptr, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The engine's pool ran the one step; the step's own 50 tasks belong to
  // its private pool.
  EXPECT_EQ(report->pool.tasks_executed, 1u);
  EXPECT_EQ(report->ToJson().Get("pool").Get("tasks_executed").as_int(), 1);
}

TEST(ThreadPoolTest, EachPoolCountsOnlyItsOwnTasks) {
  ThreadPool a(2);
  ThreadPool b(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) a.Submit([&ran] { ran.fetch_add(1); });
  for (int i = 0; i < 5; ++i) b.Submit([&ran] { ran.fetch_add(1); });
  a.Wait();
  b.Wait();
  EXPECT_EQ(ran.load(), 15);
  EXPECT_EQ(a.tasks_executed(), 10u);
  EXPECT_EQ(b.tasks_executed(), 5u);
}

}  // namespace
}  // namespace daspos
