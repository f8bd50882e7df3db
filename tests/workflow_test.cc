// Tests for the workflow engine and provenance capture: dataflow ordering,
// failure propagation, provenance records/ancestry/gap detection, the full
// standard chain, and reproduction via captured configuration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "conditions/store.h"
#include "event/pdg.h"
#include "serialize/container.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "tiers/dataset.h"
#include "workflow/engine.h"
#include "workflow/journal.h"
#include "workflow/provenance.h"
#include "workflow/steps.h"

namespace daspos {
namespace {

// --------------------------------------------------------------- Provenance

ProvenanceRecord MakeRecord(const std::string& dataset,
                            std::vector<std::string> parents) {
  ProvenanceRecord record;
  record.dataset = dataset;
  record.producer = "step";
  record.producer_version = "1.0";
  record.config = Json::Object();
  record.config_hash = "deadbeef";
  record.parents = std::move(parents);
  return record;
}

TEST(ProvenanceStoreTest, AddGet) {
  ProvenanceStore store;
  ASSERT_TRUE(store.Add(MakeRecord("a", {})).ok());
  ASSERT_TRUE(store.Add(MakeRecord("b", {"a"})).ok());
  auto b = store.Get("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->parents.size(), 1u);
  EXPECT_EQ(b->sequence, 2u);
  EXPECT_TRUE(store.Get("c").status().IsNotFound());
  EXPECT_TRUE(store.Add(MakeRecord("a", {})).IsAlreadyExists());
  EXPECT_TRUE(store.Add(MakeRecord("", {})).IsInvalidArgument());
}

TEST(ProvenanceStoreTest, AncestryWalksTransitively) {
  ProvenanceStore store;
  ASSERT_TRUE(store.Add(MakeRecord("gen", {})).ok());
  ASSERT_TRUE(store.Add(MakeRecord("raw", {"gen"})).ok());
  ASSERT_TRUE(store.Add(MakeRecord("reco", {"raw"})).ok());
  ASSERT_TRUE(store.Add(MakeRecord("aod", {"reco"})).ok());
  auto ancestry = store.Ancestry("aod");
  ASSERT_TRUE(ancestry.ok());
  ASSERT_EQ(ancestry->size(), 3u);
  EXPECT_EQ((*ancestry)[0], "reco");
  EXPECT_EQ((*ancestry)[2], "gen");
  EXPECT_TRUE(store.Ancestry("nope").status().IsNotFound());
}

TEST(ProvenanceStoreTest, GapDetection) {
  ProvenanceStore store;
  // 'derived' references 'aod' which was produced without provenance
  // capture — the §3.2 failure mode.
  ASSERT_TRUE(store.Add(MakeRecord("derived", {"aod"})).ok());
  ASSERT_TRUE(store.Add(MakeRecord("plots", {"derived", "reference"})).ok());
  auto missing = store.MissingParents();
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], "aod");
  EXPECT_EQ(missing[1], "reference");
}

TEST(ProvenanceStoreTest, NoGapsWhenChainComplete) {
  ProvenanceStore store;
  ASSERT_TRUE(store.Add(MakeRecord("gen", {})).ok());
  ASSERT_TRUE(store.Add(MakeRecord("raw", {"gen"})).ok());
  EXPECT_TRUE(store.MissingParents().empty());
}

TEST(ProvenanceStoreTest, SerializeParseRoundTrip) {
  ProvenanceStore store;
  ProvenanceRecord record = MakeRecord("aod", {"reco"});
  record.config = Json::Object();
  record.config["seed"] = 42;
  record.output_bytes = 1000;
  record.output_events = 7;
  ASSERT_TRUE(store.Add(record).ok());
  ASSERT_TRUE(store.Add(MakeRecord("derived", {"aod"})).ok());

  auto parsed = ProvenanceStore::Parse(store.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  auto restored = parsed->Get("aod");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->config.Get("seed").as_int(), 42);
  EXPECT_EQ(restored->output_events, 7u);
  EXPECT_EQ(restored->sequence, 1u);
  EXPECT_EQ(parsed->Datasets().front(), "aod");
}

TEST(ProvenanceStoreTest, ParseErrors) {
  EXPECT_FALSE(ProvenanceStore::Parse("{}").ok());
  EXPECT_FALSE(ProvenanceStore::Parse("[{}]").ok());
  EXPECT_FALSE(ProvenanceStore::Parse("not json").ok());
}

// ------------------------------------------------------------------ Engine

/// Minimal test step: concatenates inputs and appends its tag. An optional
/// sleep perturbs completion order under parallel execution, so the
/// determinism tests exercise real out-of-order completion.
class TagStep : public WorkflowStep {
 public:
  explicit TagStep(std::string tag, bool fail = false, int sleep_ms = 0)
      : tag_(std::move(tag)), fail_(fail), sleep_ms_(sleep_ms) {}
  std::string name() const override { return "tag_" + tag_; }
  std::string version() const override { return "1"; }
  Json Config() const override {
    Json json = Json::Object();
    json["tag"] = tag_;
    return json;
  }
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext*) const override {
    if (sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    if (fail_) return Status::IOError("step failed deliberately");
    std::string out;
    for (const DatasetInput& input : inputs) {
      out += std::string(input.bytes) + "|";
    }
    return StepOutput{out + tag_};
  }

 private:
  std::string tag_;
  bool fail_;
  int sleep_ms_;
};

TEST(WorkflowTest, ExecutesInDataOrder) {
  Workflow workflow;
  // Register out of order: c(b), b(a), a().
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<TagStep>("c"), {"b"}, "c").ok());
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<TagStep>("b"), {"a"}, "b").ok());
  ASSERT_TRUE(workflow.AddStep(std::make_shared<TagStep>("a"), {}, "a").ok());

  WorkflowContext context;
  auto report = workflow.Execute(&context);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->steps.size(), 3u);
  EXPECT_EQ(*context.GetDataset("c"), "a|b|c");
}

TEST(WorkflowTest, DuplicateOutputRejected) {
  Workflow workflow;
  ASSERT_TRUE(workflow.AddStep(std::make_shared<TagStep>("a"), {}, "x").ok());
  EXPECT_TRUE(workflow.AddStep(std::make_shared<TagStep>("b"), {}, "x")
                  .IsAlreadyExists());
}

TEST(WorkflowTest, MissingInputBlocksExecution) {
  Workflow workflow;
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<TagStep>("a"), {"ghost"}, "a").ok());
  WorkflowContext context;
  auto report = workflow.Execute(&context);
  EXPECT_TRUE(report.status().IsFailedPrecondition());
  EXPECT_NE(report.status().message().find("tag_a"), std::string::npos);
}

TEST(WorkflowTest, StepFailurePropagates) {
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("a", /*fail=*/true), {},
                           "a")
                  .ok());
  WorkflowContext context;
  EXPECT_TRUE(workflow.Execute(&context).status().IsIOError());
}

TEST(WorkflowTest, ProvenanceCapturedPerStep) {
  Workflow workflow;
  ASSERT_TRUE(workflow.AddStep(std::make_shared<TagStep>("a"), {}, "a").ok());
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<TagStep>("b"), {"a"}, "b").ok());
  WorkflowContext context;
  ProvenanceStore provenance;
  ASSERT_TRUE(workflow.Execute(&context, &provenance).ok());
  EXPECT_EQ(provenance.size(), 2u);
  auto record = provenance.Get("b");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->producer, "tag_b");
  EXPECT_EQ(record->parents, std::vector<std::string>{"a"});
  EXPECT_EQ(record->config_hash.size(), 64u);
  EXPECT_TRUE(provenance.MissingParents().empty());
}

TEST(WorkflowTest, SelfCycleRejectedAtAddStep) {
  Workflow workflow;
  auto status =
      workflow.AddStep(std::make_shared<TagStep>("a"), {"x", "a"}, "a");
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("self-cycle"), std::string::npos);
  EXPECT_NE(status.message().find("tag_a"), std::string::npos);
  EXPECT_EQ(workflow.step_count(), 0u);
}

TEST(WorkflowTest, BlockedDiagnosticNamesMissingInputs) {
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("a"), {"ghost", "wraith"},
                           "a")
                  .ok());
  // b waits on a, so it is blocked transitively: its missing input is "a".
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<TagStep>("b"), {"a"}, "b").ok());
  WorkflowContext context;
  auto report = workflow.Execute(&context);
  ASSERT_TRUE(report.status().IsFailedPrecondition());
  const std::string& message = report.status().message();
  EXPECT_NE(message.find("tag_a"), std::string::npos);
  EXPECT_NE(message.find("ghost"), std::string::npos);
  EXPECT_NE(message.find("wraith"), std::string::npos);
  EXPECT_NE(message.find("tag_b"), std::string::npos);
  EXPECT_NE(message.find("missing inputs"), std::string::npos);
}

// ------------------------------------------------------- parallel engine

Workflow FanoutWorkflow(int width) {
  Workflow workflow;
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("src"), {}, "src")
                  .ok());
  std::vector<std::string> shards;
  for (int i = 0; i < width; ++i) {
    std::string output = "w" + std::to_string(i);
    // Staggered sleeps: later-registered shards finish first under
    // parallel execution, the worst case for ordering determinism.
    EXPECT_TRUE(workflow
                    .AddStep(std::make_shared<TagStep>(
                                 output, /*fail=*/false,
                                 /*sleep_ms=*/(width - i) % 4),
                             {"src"}, output)
                    .ok());
    shards.push_back(output);
  }
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("join"), shards, "join")
                  .ok());
  return workflow;
}

TEST(WorkflowTest, ParallelFanoutMatchesSerialOrdering) {
  Workflow workflow = FanoutWorkflow(16);

  WorkflowContext serial_context;
  ProvenanceStore serial_provenance;
  ExecuteOptions serial_options;
  serial_options.max_threads = 1;
  auto serial = workflow.Execute(&serial_context, &serial_provenance,
                                 serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(serial->threads_used, 1u);

  WorkflowContext parallel_context;
  ProvenanceStore parallel_provenance;
  ExecuteOptions parallel_options;
  parallel_options.max_threads = 4;
  auto parallel = workflow.Execute(&parallel_context, &parallel_provenance,
                                   parallel_options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(parallel->threads_used, 4u);

  // The report sequence and the serialized provenance chain are
  // byte-identical regardless of thread count.
  ASSERT_EQ(serial->steps.size(), parallel->steps.size());
  for (size_t i = 0; i < serial->steps.size(); ++i) {
    EXPECT_EQ(serial->steps[i].step, parallel->steps[i].step);
    EXPECT_EQ(serial->steps[i].output, parallel->steps[i].output);
    EXPECT_EQ(serial->steps[i].output_bytes, parallel->steps[i].output_bytes);
  }
  EXPECT_EQ(serial_provenance.Serialize(), parallel_provenance.Serialize());
  EXPECT_EQ(*serial_context.GetDataset("join"),
            *parallel_context.GetDataset("join"));
}

TEST(WorkflowTest, MidGraphFailureStopsDispatch) {
  Workflow workflow;
  ASSERT_TRUE(workflow.AddStep(std::make_shared<TagStep>("a"), {}, "a").ok());
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("b", /*fail=*/true),
                           {"a"}, "b")
                  .ok());
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<TagStep>("c"), {"b"}, "c").ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.max_threads = 4;
  auto report = workflow.Execute(&context, nullptr, options);
  EXPECT_TRUE(report.status().IsIOError());
  EXPECT_TRUE(context.HasDataset("a"));
  EXPECT_FALSE(context.HasDataset("b"));
  // Dispatch stopped at the failure: the dependent step never ran.
  EXPECT_FALSE(context.HasDataset("c"));
}

/// Exercises the thread-safe context from inside running steps: every step
/// reads a shared dataset and publishes an extra side dataset while its
/// siblings do the same concurrently.
class SideEffectStep : public WorkflowStep {
 public:
  explicit SideEffectStep(std::string tag) : tag_(std::move(tag)) {}
  std::string name() const override { return "side_" + tag_; }
  std::string version() const override { return "1"; }
  Json Config() const override {
    Json json = Json::Object();
    json["tag"] = tag_;
    return json;
  }
  Result<StepOutput> Run(std::vector<DatasetInput>,
                         WorkflowContext* context) const override {
    auto shared = context->GetDataset("shared");
    if (!shared.ok()) return shared.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto put = context->PutDataset("extra_" + tag_, std::string(*shared));
    if (!put.ok()) return put;
    (void)context->TotalBytes();  // concurrent read-side traversal
    return StepOutput{std::string(*shared) + ":" + tag_};
  }

 private:
  std::string tag_;
};

TEST(WorkflowTest, ConcurrentContextAccessFromSteps) {
  Workflow workflow;
  constexpr int kSteps = 8;
  for (int i = 0; i < kSteps; ++i) {
    std::string tag = std::to_string(i);
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<SideEffectStep>(tag), {},
                             "out_" + tag)
                    .ok());
  }
  WorkflowContext context;
  ASSERT_TRUE(context.PutDataset("shared", "payload").ok());
  ExecuteOptions options;
  options.max_threads = 4;
  auto report = workflow.Execute(&context, nullptr, options);
  ASSERT_TRUE(report.ok()) << report.status();
  for (int i = 0; i < kSteps; ++i) {
    std::string tag = std::to_string(i);
    EXPECT_EQ(*context.GetDataset("out_" + tag), "payload:" + tag);
    EXPECT_EQ(*context.GetDataset("extra_" + tag), "payload");
  }
  EXPECT_EQ(context.DatasetNames().size(), 1u + 2u * kSteps);
}

/// Records the thread it ran on in its own slot of a shared table.
class ThreadRecordingStep : public WorkflowStep {
 public:
  ThreadRecordingStep(size_t slot, std::vector<std::thread::id>* threads)
      : slot_(slot), threads_(threads) {}
  std::string name() const override {
    return "record_" + std::to_string(slot_);
  }
  std::string version() const override { return "1"; }
  Json Config() const override { return Json::Object(); }
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext*) const override {
    (*threads_)[slot_] = std::this_thread::get_id();
    return StepOutput{inputs.empty() ? std::string("x")
                                     : std::string(inputs.front().bytes)};
  }

 private:
  size_t slot_;
  std::vector<std::thread::id>* threads_;
};

TEST(WorkflowTest, LinearChainStaysOnOneWorker) {
  // The worker that finishes a step runs its ready dependent itself, so a
  // chain never hops threads however many workers sit idle.
  constexpr size_t kSteps = 24;
  std::vector<std::thread::id> threads(kSteps);
  Workflow workflow;
  for (size_t i = 0; i < kSteps; ++i) {
    std::vector<std::string> inputs;
    if (i > 0) inputs.push_back("d" + std::to_string(i - 1));
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<ThreadRecordingStep>(i, &threads),
                             inputs, "d" + std::to_string(i))
                    .ok());
  }
  ExecuteOptions options;
  options.max_threads = 4;
  for (int run = 0; run < 20; ++run) {
    WorkflowContext context;
    auto report = workflow.Execute(&context, nullptr, options);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->steps.size(), kSteps);
    for (size_t i = 1; i < kSteps; ++i) {
      ASSERT_EQ(threads[i], threads[0]) << "run " << run << ", step " << i;
    }
  }
}

TEST(WorkflowTest, ReportCarriesMetricsAndJson) {
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("a", /*fail=*/false,
                                                     /*sleep_ms=*/2),
                           {}, "a")
                  .ok());
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<TagStep>("b"), {"a"}, "b").ok());
  WorkflowContext context;
  auto report = workflow.Execute(&context);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->steps.size(), 2u);
  EXPECT_GE(report->steps[0].wall_ms, 1.0);  // slept ~2ms
  EXPECT_GT(report->steps[0].output_bytes, 0u);
  EXPECT_GE(report->wall_ms, report->steps[0].wall_ms);
  EXPECT_GE(report->threads_used, 1u);

  Json json = report->ToJson();
  ASSERT_TRUE(json.is_object());
  EXPECT_EQ(json.Get("steps").size(), 2u);
  EXPECT_EQ(json.Get("steps").at(0).Get("step").as_string(), "tag_a");
  EXPECT_GE(json.Get("steps").at(0).Get("wall_ms").as_number(), 1.0);

  std::string table = report->RenderTimingTable("timing:");
  EXPECT_NE(table.find("tag_a"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(WorkflowContextTest, DatasetStorage) {
  WorkflowContext context;
  ASSERT_TRUE(context.PutDataset("x", "bytes").ok());
  EXPECT_TRUE(context.PutDataset("x", "other").IsAlreadyExists());
  EXPECT_TRUE(context.PutDataset("", "y").IsInvalidArgument());
  EXPECT_TRUE(context.HasDataset("x"));
  EXPECT_EQ(*context.GetDataset("x"), "bytes");
  EXPECT_TRUE(context.GetDataset("y").status().IsNotFound());
  EXPECT_EQ(context.TotalBytes(), 5u);
}

// -------------------------------------------------------- standard chain

ConditionsDb StandardConditions(const CalibrationSet& calib) {
  ConditionsDb db;
  EXPECT_TRUE(db.Append(kCalibrationTag, 1, calib.ToPayload()).ok());
  return db;
}

Workflow StandardChain(uint64_t seed, size_t events) {
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = seed;

  SimulationConfig sim_config;
  sim_config.seed = seed + 1;
  sim_config.noise_cells_mean = 5.0;

  Workflow workflow;
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<GenerationStep>(
                               gen_config, events, "zmm_gen"),
                           {}, "zmm_gen")
                  .ok());
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<SimulationStep>(sim_config, 7,
                                                            "zmm_raw"),
                           {"zmm_gen"}, "zmm_raw")
                  .ok());
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<ReconstructionStep>(
                               sim_config.geometry, "zmm_reco"),
                           {"zmm_raw"}, "zmm_reco")
                  .ok());
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<AodReductionStep>("zmm_aod"),
                           {"zmm_reco"}, "zmm_aod")
                  .ok());
  EXPECT_TRUE(
      workflow
          .AddStep(std::make_shared<DerivationStep>(
                       SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0),
                       SlimSpec::LeptonsOnly(10.0), "zmm_derived"),
                   {"zmm_aod"}, "zmm_derived")
          .ok());
  return workflow;
}

TEST(StandardChainTest, RunsEndToEndWithProvenance) {
  CalibrationSet calib;
  ConditionsDb conditions = StandardConditions(calib);
  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;

  Workflow workflow = StandardChain(81, 40);
  auto report = workflow.Execute(&context, &provenance);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->steps.size(), 5u);

  // Tier sizes decrease monotonically RAW -> RECO -> AOD -> derived.
  uint64_t raw = context.GetDataset("zmm_raw")->size();
  uint64_t reco = context.GetDataset("zmm_reco")->size();
  uint64_t aod = context.GetDataset("zmm_aod")->size();
  uint64_t derived = context.GetDataset("zmm_derived")->size();
  EXPECT_GT(raw, reco);
  EXPECT_GT(reco, aod);
  EXPECT_GT(aod, derived);

  // Provenance chain is complete and walks back to generation.
  EXPECT_TRUE(provenance.MissingParents().empty());
  auto ancestry = provenance.Ancestry("zmm_derived");
  ASSERT_TRUE(ancestry.ok());
  EXPECT_EQ(ancestry->size(), 4u);
  EXPECT_EQ(ancestry->back(), "zmm_gen");

  // The reconstruction consulted the conditions database.
  EXPECT_GT(conditions.lookup_count(), 0u);
}

TEST(WorkflowTest, ConcurrentExecuteOfOneWorkflow) {
  // Execute is const, so two callers may run one Workflow at once; each run
  // must report its own event counts and produce the same bytes.
  const Workflow workflow = StandardChainWorkflow(Process::kZToLL, 50, 7);
  struct Outcome {
    Status status;
    std::vector<uint64_t> events;
    std::string derived_digest;
  };
  auto run = [&workflow](Outcome* out) {
    CalibrationSet calib;
    ConditionsDb conditions = StandardConditions(calib);
    WorkflowContext context;
    context.set_conditions(&conditions);
    ExecuteOptions options;
    options.max_threads = 2;
    auto report = workflow.Execute(&context, nullptr, options);
    if (!report.ok()) {
      out->status = report.status();
      return;
    }
    for (const WorkflowReport::StepResult& step : report->steps) {
      out->events.push_back(step.output_events);
    }
    out->derived_digest = Sha256::HashHex(*context.GetDataset("derived"));
  };
  Outcome first;
  Outcome second;
  std::thread a(run, &first);
  std::thread b(run, &second);
  a.join();
  b.join();
  ASSERT_TRUE(first.status.ok()) << first.status;
  ASSERT_TRUE(second.status.ok()) << second.status;
  ASSERT_EQ(first.events.size(), 5u);
  EXPECT_EQ(first.events.front(), 50u);  // generation
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.derived_digest, second.derived_digest);
}

TEST(StandardChainTest, ReconstructionFailsWithoutConditions) {
  WorkflowContext context;  // no conditions provider
  Workflow workflow = StandardChain(82, 5);
  auto report = workflow.Execute(&context);
  EXPECT_TRUE(report.status().IsFailedPrecondition());
  EXPECT_NE(report.status().message().find("conditions"), std::string::npos);
}

TEST(StandardChainTest, ExecuteChainStopsAtTierAndClearsConditions) {
  WorkflowContext context;
  const Workflow workflow =
      StandardChainWorkflow(Process::kZToLL, 10, 7, DataTier::kAod);
  EXPECT_EQ(workflow.step_count(), 4u);
  auto report = ExecuteChain(workflow, CalibrationSet(), &context);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(context.HasDataset("aod"));
  EXPECT_FALSE(context.HasDataset("derived"));
  // The run's conditions database is gone; the context must not point at it.
  EXPECT_EQ(context.conditions(), nullptr);
}

TEST(StandardChainTest, ReproductionFromCapturedConfig) {
  // Run the chain, capture provenance, then re-run generation from the
  // captured config: byte-identical output (the preservation property).
  CalibrationSet calib;
  ConditionsDb conditions = StandardConditions(calib);
  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;
  Workflow workflow = StandardChain(83, 20);
  ASSERT_TRUE(workflow.Execute(&context, &provenance).ok());

  auto record = provenance.Get("zmm_gen");
  ASSERT_TRUE(record.ok());
  auto config = GeneratorConfigFromJson(record->config.Get("generator"));
  ASSERT_TRUE(config.ok());
  size_t events =
      static_cast<size_t>(record->config.Get("event_count").as_int());

  GenerationStep replay(*config, events, "zmm_gen");
  auto replayed = replay.Run({}, &context);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->blob, *context.GetDataset("zmm_gen"));
}

TEST(MergeStepTest, ConcatenatesSameTierDatasets) {
  // Two generation batches merged into one sample (the §3.1 compile step).
  GeneratorConfig config_a;
  config_a.process = Process::kZToLL;
  config_a.seed = 91;
  GeneratorConfig config_b = config_a;
  config_b.seed = 92;

  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<GenerationStep>(config_a, 10,
                                                            "batch_a"),
                           {}, "batch_a")
                  .ok());
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<GenerationStep>(config_b, 15,
                                                            "batch_b"),
                           {}, "batch_b")
                  .ok());
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<MergeStep>("merged"),
                           {"batch_a", "batch_b"}, "merged")
                  .ok());
  WorkflowContext context;
  ProvenanceStore provenance;
  const auto hashed = [] {
    return MetricsRegistry::Global().CounterValue(
        metric_names::kContainerHashedBytesTotal);
  };
  const uint64_t hashed_before = hashed();
  ASSERT_TRUE(workflow.Execute(&context, &provenance).ok());
  // The merge reads batches sealed in this run: nothing is hashed twice.
  uint64_t sealed = 0;
  for (const std::string& name : context.DatasetNames()) {
    sealed += context.GetDataset(name)->size() - (4 + 8 + 32);
  }
  EXPECT_EQ(hashed() - hashed_before, sealed);

  DatasetInfo info;
  auto merged = ReadGenDataset(*context.GetDataset("merged"), &info);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(merged->size(), 25u);
  ASSERT_EQ(info.parents.size(), 2u);
  EXPECT_EQ(info.parents[0], "batch_a");
  EXPECT_EQ(info.parents[1], "batch_b");
  // Events from both batches survive byte-identically.
  auto batch_a = ReadGenDataset(*context.GetDataset("batch_a"));
  ASSERT_TRUE(batch_a.ok());
  EXPECT_EQ(EncodeRecord((*merged)[0]), EncodeRecord((*batch_a)[0]));
  // Provenance records the two-parent merge.
  auto record = provenance.Get("merged");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->parents.size(), 2u);
  EXPECT_EQ(record->output_events, 25u);
}

TEST(MergeStepTest, RejectsMixedTiersAndEmptyInput) {
  GeneratorConfig config;
  config.seed = 93;
  GenerationStep generate(config, 5, "gen");
  WorkflowContext context;
  auto gen_blob = generate.Run({}, &context);
  ASSERT_TRUE(gen_blob.ok());

  // A RAW dataset to mix in.
  SimulationConfig sim_config;
  SimulationStep simulate(sim_config, 1, "raw");
  auto raw_blob = simulate.Run({DatasetInput{gen_blob->blob}}, &context);
  ASSERT_TRUE(raw_blob.ok());

  MergeStep merge("merged");
  EXPECT_TRUE(merge.Run({}, &context).status().IsInvalidArgument());
  auto mixed = merge.Run(
      {DatasetInput{gen_blob->blob}, DatasetInput{raw_blob->blob}}, &context);
  EXPECT_TRUE(mixed.status().IsInvalidArgument());
  // Single input is a valid (if trivial) merge.
  auto single = merge.Run({DatasetInput{gen_blob->blob}}, &context);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->events, 5u);
  auto events = ReadGenDataset(single->blob);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 5u);
}

// ------------------------------------------------------------------ Replay

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    calib_.version = 5;
    calib_.tracker_phi_offset = 0.001;

    GeneratorConfig gen_config;
    gen_config.process = Process::kZToLL;
    gen_config.lepton_flavor = pdg::kMuon;
    gen_config.seed = 2025;
    SimulationConfig sim_config;
    sim_config.seed = 2026;
    sim_config.calib = calib_;

    Workflow workflow;
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<GenerationStep>(gen_config, 40,
                                                              "r_gen"),
                             {}, "r_gen")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<SimulationStep>(sim_config, 3,
                                                              "r_raw"),
                             {"r_gen"}, "r_raw")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<ReconstructionStep>(
                                 sim_config.geometry, "r_reco"),
                             {"r_raw"}, "r_reco")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<AodReductionStep>("r_aod"),
                             {"r_reco"}, "r_aod")
                    .ok());
    ASSERT_TRUE(
        workflow
            .AddStep(std::make_shared<DerivationStep>(
                         SkimSpec::RequireObjects(ObjectType::kMuon, 2, 15.0),
                         SlimSpec::LeptonsOnly(15.0), "r_derived"),
                     {"r_aod"}, "r_derived")
            .ok());
    ASSERT_TRUE(
        ExecuteChain(workflow, calib_, &original_, &provenance_).ok());
  }

  /// Replays `provenance` into a fresh context and expects every original
  /// dataset back byte for byte.
  void ExpectByteIdenticalReplay(const ProvenanceStore& provenance) {
    auto workflow = ReplayWorkflow(provenance);
    ASSERT_TRUE(workflow.ok()) << workflow.status();
    EXPECT_EQ(workflow->step_count(), 5u);
    WorkflowContext replayed;
    auto report = ExecuteChain(*workflow, calib_, &replayed);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->steps.size(), 5u);
    ASSERT_EQ(replayed.DatasetNames(), original_.DatasetNames());
    for (const std::string& name : original_.DatasetNames()) {
      EXPECT_EQ(*replayed.GetDataset(name), *original_.GetDataset(name))
          << name;
    }
  }

  CalibrationSet calib_;
  WorkflowContext original_;
  ProvenanceStore provenance_;
};

TEST_F(ReplayTest, ChainReplaysByteIdentically) {
  // "Decades later": only provenance + calibration exist; the chain is
  // rebuilt from the records and re-run.
  ExpectByteIdenticalReplay(provenance_);
}

TEST_F(ReplayTest, ReplaySurvivesProvenanceSerialization) {
  // The provenance store itself round-trips through its archival text form
  // and still drives a byte-identical replay.
  auto parsed = ProvenanceStore::Parse(provenance_.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectByteIdenticalReplay(*parsed);
}

TEST_F(ReplayTest, GapBlocksReplay) {
  // Remove the middle of the chain: the engine's lint gate refuses the
  // rebuilt workflow before anything runs, naming the gap.
  ProvenanceStore partial;
  for (const std::string& dataset : provenance_.Datasets()) {
    if (dataset == "r_raw") continue;  // the lost record
    ASSERT_TRUE(partial.Add(*provenance_.Get(dataset)).ok());
  }
  auto workflow = ReplayWorkflow(partial);
  ASSERT_TRUE(workflow.ok()) << workflow.status();
  WorkflowContext replayed;
  auto report = ExecuteChain(*workflow, calib_, &replayed);
  EXPECT_TRUE(report.status().IsFailedPrecondition()) << report.status();
  EXPECT_NE(report.status().message().find("r_raw"), std::string::npos);
  EXPECT_TRUE(replayed.DatasetNames().empty());
}

TEST_F(ReplayTest, ReplayWithoutConditionsFails) {
  auto workflow = ReplayWorkflow(provenance_);
  ASSERT_TRUE(workflow.ok()) << workflow.status();
  WorkflowContext replayed;  // no conditions service
  EXPECT_TRUE(workflow->Execute(&replayed).status().IsFailedPrecondition());
}

TEST_F(ReplayTest, StaleConfigHashIsRefused) {
  // A config edited after capture no longer hashes to its config_hash:
  // replay refuses the record, naming it and the stale hash, instead of
  // running a chain the provenance never recorded.
  const ProvenanceRecord original = *provenance_.Get("r_raw");
  ProvenanceStore edited;
  for (const std::string& dataset : provenance_.Datasets()) {
    ProvenanceRecord record = *provenance_.Get(dataset);
    if (dataset == "r_raw") record.config["run_number"] = 4;
    ASSERT_TRUE(edited.Add(std::move(record)).ok());
  }
  auto workflow = ReplayWorkflow(edited);
  ASSERT_TRUE(workflow.status().IsFailedPrecondition()) << workflow.status();
  const std::string& message = workflow.status().message();
  EXPECT_NE(message.find("'r_raw'"), std::string::npos) << message;
  EXPECT_NE(message.find(original.config_hash), std::string::npos) << message;
  // The untouched record still rebuilds.
  EXPECT_TRUE(RebuildStep(original).ok());
}

TEST_F(ReplayTest, UnknownProducerIsHonestlyUnimplemented) {
  ProvenanceRecord record;
  record.dataset = "plots";
  record.producer = "analyst_macro";  // hand-written final-plot code, §3.2
  record.config = Json::Object();
  EXPECT_TRUE(RebuildStep(record).status().IsUnimplemented());
  ProvenanceStore provenance = provenance_;
  ASSERT_TRUE(provenance.Add(record).ok());
  EXPECT_TRUE(ReplayWorkflow(provenance).status().IsUnimplemented());
}

TEST(StandardChainTest, LargestSeedReplaysFromArchivedProvenance) {
  // Seed 2^64 - 1 is no double, and its simulation seed wraps to 0: the
  // archived provenance text must still rebuild the chain exactly.
  const uint64_t seed = ~uint64_t{0};
  WorkflowContext original;
  ProvenanceStore provenance;
  ASSERT_TRUE(ExecuteChain(StandardChainWorkflow(Process::kZToLL, 20, seed),
                           CalibrationSet(), &original, &provenance)
                  .ok());
  auto parsed = ProvenanceStore::Parse(provenance.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto workflow = ReplayWorkflow(*parsed);
  ASSERT_TRUE(workflow.ok()) << workflow.status();
  WorkflowContext replayed;
  ASSERT_TRUE(ExecuteChain(*workflow, CalibrationSet(), &replayed).ok());
  ASSERT_EQ(replayed.DatasetNames(), original.DatasetNames());
  for (const std::string& name : original.DatasetNames()) {
    EXPECT_EQ(*replayed.GetDataset(name), *original.GetDataset(name))
        << name;
  }
}

TEST(GeneratorConfigJsonTest, RoundTrip) {
  GeneratorConfig config;
  config.process = Process::kZPrimeToLL;
  config.seed = 777;
  config.pileup_mean = 12.5;
  config.zprime_mass = 850.0;
  config.zprime_width = 25.0;
  config.tune_activity = 1.3;
  config.lepton_flavor = pdg::kElectron;
  auto restored = GeneratorConfigFromJson(GeneratorConfigToJson(config));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->process, config.process);
  EXPECT_EQ(restored->seed, config.seed);
  EXPECT_DOUBLE_EQ(restored->zprime_mass, config.zprime_mass);
  EXPECT_EQ(restored->lepton_flavor, config.lepton_flavor);
  EXPECT_TRUE(GeneratorConfigFromJson(Json::Object()).status()
                  .IsInvalidArgument());
}

TEST(GeneratorConfigJsonTest, SeedAbove2To63RoundTrips) {
  // 2^63 + 2048 is an exact double, so it survives the JSON number, but
  // it is past int64's range.
  const uint64_t seed = (uint64_t{1} << 63) + 2048;
  GeneratorConfig generator;
  generator.seed = seed;
  auto restored = GeneratorConfigFromJson(GeneratorConfigToJson(generator));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->seed, seed);
  SimulationConfig simulation;
  simulation.seed = seed;
  auto sim = SimulationConfigFromJson(SimulationConfigToJson(simulation));
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  EXPECT_EQ(sim->seed, seed);
}

TEST(GeneratorConfigJsonTest, SeedsPast2To53StayDistinctAndRoundTrip) {
  // 2^53 and 2^53 + 1 are one double: both seeds used to capture the same
  // configuration, and so the same config hash.
  GeneratorConfig low;
  low.seed = uint64_t{1} << 53;
  GeneratorConfig high = low;
  high.seed = low.seed + 1;
  EXPECT_NE(GenerationStep(low, 10, "gen").Config().Dump(),
            GenerationStep(high, 10, "gen").Config().Dump());
  auto restored = GeneratorConfigFromJson(
      *Json::Parse(GeneratorConfigToJson(high).Dump()));
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->seed, high.seed);
  // The standard chain's simulation seed is the generator seed + 1.
  SimulationConfig simulation;
  simulation.seed = (uint64_t{1} << 63) + 2049;
  auto sim = SimulationConfigFromJson(
      *Json::Parse(SimulationConfigToJson(simulation).Dump()));
  ASSERT_TRUE(sim.ok()) << sim.status();
  EXPECT_EQ(sim->seed, simulation.seed);
}

TEST(GeneratorConfigJsonTest, RejectsWhatItCannotRepresent) {
  const Json good = GeneratorConfigToJson(GeneratorConfig{});
  ASSERT_TRUE(GeneratorConfigFromJson(good).ok());
  auto with = [&good](const char* key, Json value) {
    Json json = good;
    json[key] = std::move(value);
    return GeneratorConfigFromJson(json).status();
  };
  // No catalogued process has id 99.
  EXPECT_TRUE(with("process", 99).IsInvalidArgument());
  EXPECT_TRUE(with("process", 1.5).IsInvalidArgument());
  EXPECT_TRUE(with("seed", -1).IsInvalidArgument());
  EXPECT_TRUE(with("seed", 0.5).IsInvalidArgument());
  EXPECT_TRUE(with("seed", 0x1p64).IsInvalidArgument());
  EXPECT_TRUE(with("seed", "7").IsInvalidArgument());
  EXPECT_TRUE(with("lepton_flavor", 0x1p31).IsInvalidArgument());

  Json geometry = GeometryToJson(DetectorGeometry{});
  geometry["tracker_layers"] = -0x1p40;
  EXPECT_TRUE(GeometryFromJson(geometry).status().IsInvalidArgument());
  Json simulation = SimulationConfigToJson(SimulationConfig{});
  simulation["minbias_prescale"] = 0x1p32;
  EXPECT_TRUE(
      SimulationConfigFromJson(simulation).status().IsInvalidArgument());
}

// ------------------------------------------------ fault tolerance (PR 3)

/// TagStep that counts Run invocations and can fail its first N attempts —
/// the shape of a transient infrastructure hiccup.
class FlakyStep : public WorkflowStep {
 public:
  FlakyStep(std::string tag, std::shared_ptr<std::atomic<int>> runs,
            int failures_before_success = 0)
      : tag_(std::move(tag)),
        runs_(std::move(runs)),
        failures_before_success_(failures_before_success) {}
  std::string name() const override { return "flaky_" + tag_; }
  std::string version() const override { return "1"; }
  Json Config() const override {
    Json json = Json::Object();
    json["tag"] = tag_;
    return json;
  }
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext*) const override {
    int attempt = ++*runs_;
    if (attempt <= failures_before_success_) {
      return Status::IOError("transient hiccup on attempt " +
                             std::to_string(attempt));
    }
    std::string out;
    for (const DatasetInput& input : inputs) {
      out += std::string(input.bytes) + "|";
    }
    return StepOutput{out + tag_};
  }

 private:
  std::string tag_;
  std::shared_ptr<std::atomic<int>> runs_;
  int failures_before_success_;
};

std::string TempRunDir(const std::string& label) {
  return (std::filesystem::temp_directory_path() /
          ("daspos_wf_" + label + "_" + std::to_string(::getpid())))
      .string();
}

TEST(WorkflowTest, DuplicateStepNameRejected) {
  Workflow workflow;
  ASSERT_TRUE(workflow.AddStep(std::make_shared<TagStep>("a"), {}, "x").ok());
  auto status = workflow.AddStep(std::make_shared<TagStep>("a"), {}, "y");
  EXPECT_TRUE(status.IsAlreadyExists());
  EXPECT_NE(status.message().find("tag_a"), std::string::npos);
  EXPECT_EQ(workflow.step_count(), 1u);
}

TEST(WorkflowRetryTest, FlakyStepSucceedsWithinBudget) {
  Workflow workflow;
  auto runs = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<FlakyStep>(
                               "a", runs, /*failures_before_success=*/2),
                           {}, "a")
                  .ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.max_step_retries = 3;
  options.retry_backoff_ms = 0.0;
  auto report = workflow.Execute(&context, nullptr, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(runs->load(), 3);
  ASSERT_EQ(report->steps.size(), 1u);
  EXPECT_EQ(report->steps[0].attempts, 3);
  EXPECT_EQ(*context.GetDataset("a"), "a");
}

TEST(WorkflowRetryTest, RetriesExhaustedPropagatesLastError) {
  Workflow workflow;
  auto runs = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<FlakyStep>(
                               "a", runs, /*failures_before_success=*/10),
                           {}, "a")
                  .ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.max_step_retries = 2;
  options.retry_backoff_ms = 0.0;
  auto report = workflow.Execute(&context, nullptr, options);
  EXPECT_TRUE(report.status().IsIOError());
  EXPECT_EQ(runs->load(), 3);  // first attempt + 2 retries
}

TEST(WorkflowRetryTest, StepTimeoutBecomesDeadlineExceeded) {
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("slow", /*fail=*/false,
                                                     /*sleep_ms=*/40),
                           {}, "slow")
                  .ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.step_timeout_ms = 1.0;  // the 40ms sleep cannot fit
  auto report = workflow.Execute(&context, nullptr, options);
  EXPECT_TRUE(report.status().IsDeadlineExceeded());
  // A timed-out attempt's output is discarded, not half-committed.
  EXPECT_FALSE(context.HasDataset("slow"));
}

TEST(WorkflowKeepGoingTest, IndependentBranchesSurviveAFailure) {
  // doomed -> dependent is one branch; healthy is independent.
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("doomed", /*fail=*/true),
                           {}, "doomed")
                  .ok());
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("dependent"), {"doomed"},
                           "dependent")
                  .ok());
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<TagStep>("healthy"), {}, "healthy")
                  .ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.keep_going = true;
  auto report = workflow.Execute(&context, nullptr, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->fully_succeeded());
  EXPECT_EQ(report->failed_steps,
            std::vector<std::string>{"tag_doomed"});
  EXPECT_EQ(report->skipped_steps,
            std::vector<std::string>{"tag_dependent"});
  // The independent branch completed and is in the report.
  EXPECT_EQ(*context.GetDataset("healthy"), "healthy");
  ASSERT_EQ(report->steps.size(), 1u);
  EXPECT_EQ(report->steps[0].output, "healthy");
  EXPECT_FALSE(context.HasDataset("doomed"));
  EXPECT_FALSE(context.HasDataset("dependent"));
}

TEST(ChaosTest, FanoutUnderInjectedFaultsMatchesFaultFreeRun) {
  Workflow workflow = FanoutWorkflow(16);

  WorkflowContext clean_context;
  ProvenanceStore clean_provenance;
  ExecuteOptions clean_options;
  clean_options.max_threads = 4;
  auto clean = workflow.Execute(&clean_context, &clean_provenance,
                                clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // 30% of step attempts fail at the injection point; with enough retries
  // the run must converge to the byte-identical fault-free result.
  auto spec = FaultSpec::Parse("seed=11,rate=0.3");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  WorkflowContext chaos_context;
  ProvenanceStore chaos_provenance;
  ExecuteOptions chaos_options;
  chaos_options.max_threads = 4;
  chaos_options.max_step_retries = 25;
  chaos_options.retry_backoff_ms = 0.0;
  chaos_options.step_faults = &plan;
  auto chaos = workflow.Execute(&chaos_context, &chaos_provenance,
                                chaos_options);
  ASSERT_TRUE(chaos.ok()) << chaos.status();

  EXPECT_GT(plan.injected(), 0u);
  EXPECT_EQ(chaos_provenance.Serialize(), clean_provenance.Serialize());
  EXPECT_EQ(*chaos_context.GetDataset("join"),
            *clean_context.GetDataset("join"));
  ASSERT_EQ(chaos->steps.size(), clean->steps.size());
  for (size_t i = 0; i < clean->steps.size(); ++i) {
    EXPECT_EQ(chaos->steps[i].step, clean->steps[i].step);
    EXPECT_EQ(chaos->steps[i].output_bytes, clean->steps[i].output_bytes);
  }
}

TEST(JournalTest, ResumeSkipsCheckpointedSteps) {
  std::string dir = TempRunDir("resume");
  std::filesystem::remove_all(dir);
  auto runs_a = std::make_shared<std::atomic<int>>(0);
  auto runs_b = std::make_shared<std::atomic<int>>(0);
  auto runs_c = std::make_shared<std::atomic<int>>(0);

  {
    // First run: b always fails, so only a is checkpointed.
    Workflow workflow;
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("a", runs_a), {}, "a")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("b", runs_b, 100),
                             {"a"}, "b")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("c", runs_c), {"b"},
                             "c")
                    .ok());
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.max_threads = 1;
    options.journal = journal->get();
    auto report = workflow.Execute(&context, nullptr, options);
    EXPECT_TRUE(report.status().IsIOError());  // b took the run down
    EXPECT_EQ(runs_a->load(), 1);
  }

  {
    // Second run, resumed: a restores from its checkpoint without running;
    // b (now healthy) and c execute.
    Workflow workflow;
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("a", runs_a), {}, "a")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("b", runs_b), {"a"},
                             "b")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("c", runs_c), {"b"},
                             "c")
                    .ok());
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.max_threads = 1;
    options.journal = journal->get();
    options.resume = true;
    auto report = workflow.Execute(&context, nullptr, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(runs_a->load(), 1);  // never re-ran
    ASSERT_EQ(report->steps.size(), 3u);
    EXPECT_TRUE(report->steps[0].from_checkpoint);
    EXPECT_EQ(report->steps[0].attempts, 0);
    EXPECT_FALSE(report->steps[1].from_checkpoint);
    EXPECT_EQ(*context.GetDataset("c"), "a|b|c");
  }
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, FullyCheckpointedRunReExecutesNothing) {
  std::string dir = TempRunDir("full");
  std::filesystem::remove_all(dir);
  auto runs_a = std::make_shared<std::atomic<int>>(0);
  auto runs_b = std::make_shared<std::atomic<int>>(0);

  auto build = [&]() {
    Workflow workflow;
    EXPECT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("a", runs_a), {}, "a")
                    .ok());
    EXPECT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("b", runs_b), {"a"},
                             "b")
                    .ok());
    return workflow;
  };

  std::string first_blob;
  {
    Workflow workflow = build();
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.journal = journal->get();
    ASSERT_TRUE(workflow.Execute(&context, nullptr, options).ok());
    first_blob = std::string(*context.GetDataset("b"));
  }
  {
    Workflow workflow = build();
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.journal = journal->get();
    options.resume = true;
    auto report = workflow.Execute(&context, nullptr, options);
    ASSERT_TRUE(report.ok()) << report.status();
    // Zero step re-executions: both counters still read 1.
    EXPECT_EQ(runs_a->load(), 1);
    EXPECT_EQ(runs_b->load(), 1);
    for (const auto& step : report->steps) {
      EXPECT_TRUE(step.from_checkpoint);
    }
    EXPECT_EQ(*context.GetDataset("b"), first_blob);
  }
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, TruncatedJournalLoadsIntactPrefix) {
  std::string dir = TempRunDir("trunc");
  std::filesystem::remove_all(dir);
  auto runs_a = std::make_shared<std::atomic<int>>(0);
  auto runs_b = std::make_shared<std::atomic<int>>(0);
  {
    Workflow workflow;
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("a", runs_a), {}, "a")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("b", runs_b), {"a"},
                             "b")
                    .ok());
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.max_threads = 1;
    options.journal = journal->get();
    ASSERT_TRUE(workflow.Execute(&context, nullptr, options).ok());
  }

  // Simulate a crash mid-append: chop the tail off the last journal line.
  std::string lines_path = RunJournal::LinesPath(dir);
  auto size = std::filesystem::file_size(lines_path);
  std::filesystem::resize_file(lines_path, size - 10);

  {
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    // Only the intact first record survived.
    EXPECT_EQ((*journal)->records().size(), 1u);
    EXPECT_TRUE((*journal)->Find("flaky_a").has_value());
    EXPECT_FALSE((*journal)->Find("flaky_b").has_value());

    // Resume re-runs exactly the truncated step.
    Workflow workflow;
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("a", runs_a), {}, "a")
                    .ok());
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("b", runs_b), {"a"},
                             "b")
                    .ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.max_threads = 1;
    options.journal = journal->get();
    options.resume = true;
    auto report = workflow.Execute(&context, nullptr, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(runs_a->load(), 1);  // checkpoint held
    EXPECT_EQ(runs_b->load(), 2);  // truncated record forced a re-run
    EXPECT_EQ(*context.GetDataset("b"), "a|b");
  }
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, FreshJournalFirstRecordSurvivesReopen) {
  // Regression for the fresh-journal durability gap: the very first Append
  // creates journal.jsonl (a directory-entry mutation), so the record is
  // only checkpointed once the directory itself is synced. Behaviorally:
  // the record and its blob must be fully readable after a cold reopen.
  std::string dir = TempRunDir("fresh_append");
  std::filesystem::remove_all(dir);
  {
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    RunJournal::Record record;
    record.step = "s1";
    record.output = "o1";
    record.config_hash = "h1";
    record.bytes = 3;
    record.events = 1;
    ASSERT_TRUE((*journal)->Append(record, "abc").ok());
  }
  auto reopened = RunJournal::Open(dir);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->records().size(), 1u);
  auto found = (*reopened)->Find("s1");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->bytes, 3u);
  EXPECT_EQ(found->events, 1u);
  auto blob = (*reopened)->LoadBlob(found->digest);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "abc");
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, CorruptedNumericFieldsReadAsTruncatedTail) {
  // bytes/events must be non-negative integers. A bit-rotted line where
  // they decode as a string, a fraction, or a negative number — or vanish —
  // is corruption; treating it as bytes=0 would resume from a lie.
  std::string dir = TempRunDir("bad_numeric");
  std::filesystem::remove_all(dir);
  std::string base;
  {
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    RunJournal::Record record;
    record.step = "s1";
    record.output = "o1";
    record.config_hash = "h1";
    record.bytes = 3;
    record.events = 1;
    ASSERT_TRUE((*journal)->Append(record, "abc").ok());
    std::ifstream in(RunJournal::LinesPath(dir));
    std::getline(in, base);
  }
  const std::string prefix =
      "{\"step\":\"s2\",\"output\":\"o2\",\"digest\":\"d\","
      "\"config_hash\":\"h\",";
  for (const std::string& tail :
       {std::string("\"bytes\":\"12\",\"events\":1}"),   // string-typed
        std::string("\"bytes\":1.5,\"events\":1}"),      // fractional
        std::string("\"bytes\":-3,\"events\":1}"),       // negative
        std::string("\"events\":1}"),                    // bytes missing
        std::string("\"bytes\":2}")}) {                  // events missing
    {
      std::ofstream out(RunJournal::LinesPath(dir), std::ios::trunc);
      out << base << "\n" << prefix << tail << "\n";
    }
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    EXPECT_EQ((*journal)->records().size(), 1u) << tail;
    EXPECT_FALSE((*journal)->Find("s2").has_value()) << tail;
  }
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, ConfigChangeInvalidatesCheckpoint) {
  std::string dir = TempRunDir("config");
  std::filesystem::remove_all(dir);
  auto runs = std::make_shared<std::atomic<int>>(0);
  {
    Workflow workflow;
    // TagStep and FlakyStep share neither name nor config hash, so a
    // checkpoint written by one must not satisfy the other.
    ASSERT_TRUE(
        workflow.AddStep(std::make_shared<TagStep>("a"), {}, "a").ok());
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.journal = journal->get();
    ASSERT_TRUE(workflow.Execute(&context, nullptr, options).ok());
  }
  {
    Workflow workflow;
    ASSERT_TRUE(workflow
                    .AddStep(std::make_shared<FlakyStep>("a", runs), {}, "a")
                    .ok());
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    ExecuteOptions options;
    options.journal = journal->get();
    options.resume = true;
    auto report = workflow.Execute(&context, nullptr, options);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(runs->load(), 1);  // stale checkpoint ignored, step re-ran
    ASSERT_EQ(report->steps.size(), 1u);
    EXPECT_FALSE(report->steps[0].from_checkpoint);
  }
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, RecordsTheFooterDigestOfEveryInput) {
  std::string dir = TempRunDir("inputs");
  std::filesystem::remove_all(dir);
  Workflow workflow = StandardChainWorkflow(Process::kZToLL, 20, 7);
  auto journal = RunJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.journal = journal->get();
  ASSERT_TRUE(
      ExecuteChain(workflow, CalibrationSet(), &context, nullptr, options)
          .ok());
  auto gen = (*journal)->Find("generation[gen]");
  ASSERT_TRUE(gen.has_value());
  ASSERT_TRUE(gen->inputs.has_value());
  EXPECT_TRUE(gen->inputs->empty());
  auto reco = (*journal)->Find("reconstruction[reco]");
  ASSERT_TRUE(reco.has_value());
  ASSERT_TRUE(reco->inputs.has_value());
  std::string raw = std::string(*context.GetDataset("raw"));
  EXPECT_EQ(*reco->inputs,
            (std::map<std::string, std::string>{
                {"raw", HexEncode(raw.substr(raw.size() - 32))}}));
  // The field survives a reopen.
  auto reopened = RunJournal::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Find("reconstruction[reco]")->inputs, reco->inputs);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- in-process handoff

/// Runs a §3.2 chain and returns the SHA-256 of every dataset it left in
/// `context`, by name.
std::map<std::string, std::string> RunChainDigests(
    const Workflow& workflow, size_t threads, WorkflowContext* context,
    RunJournal* journal = nullptr, bool resume = false,
    WorkflowReport* report_out = nullptr) {
  ExecuteOptions options;
  options.max_threads = threads;
  options.journal = journal;
  options.resume = resume;
  auto report =
      ExecuteChain(workflow, CalibrationSet(), context, nullptr, options);
  EXPECT_TRUE(report.ok()) << report.status();
  if (report.ok() && report_out != nullptr) *report_out = *report;
  std::map<std::string, std::string> digests;
  for (const std::string& name : context->DatasetNames()) {
    digests[name] = Sha256::HashHex(*context->GetDataset(name));
  }
  return digests;
}

size_t RestoredSteps(const WorkflowReport& report) {
  size_t restored = 0;
  for (const WorkflowReport::StepResult& step : report.steps) {
    if (step.from_checkpoint) ++restored;
  }
  return restored;
}

constexpr size_t kHandoffEvents = 60;
constexpr uint64_t kHandoffSeed = 11;

TEST(HandoffTest, EveryPathToTheDerivedTierGivesTheSameBytes) {
  // Fresh runs hand events from step to step; a resumed run and a run fed
  // GEN from outside decode (and verify) the bytes they start from.
  WorkflowContext serial_context;
  const auto serial = RunChainDigests(
      StandardChainWorkflow(Process::kZToLL, kHandoffEvents, kHandoffSeed),
      1, &serial_context);
  ASSERT_EQ(serial.size(), 5u);

  WorkflowContext wide_context;
  EXPECT_EQ(RunChainDigests(StandardChainWorkflow(Process::kZToLL,
                                                  kHandoffEvents, kHandoffSeed),
                            4, &wide_context),
            serial);

  // Journal GEN and RAW, then resume the whole chain: reco reads RAW from
  // its checkpoint.
  std::string dir = TempRunDir("handoff");
  std::filesystem::remove_all(dir);
  {
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    RunChainDigests(StandardChainWorkflow(Process::kZToLL, kHandoffEvents,
                                          kHandoffSeed, DataTier::kRaw),
                    2, &context, journal->get());
  }
  {
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    WorkflowReport report;
    EXPECT_EQ(RunChainDigests(StandardChainWorkflow(Process::kZToLL,
                                                    kHandoffEvents,
                                                    kHandoffSeed),
                              2, &context, journal->get(), /*resume=*/true,
                              &report),
              serial);
    EXPECT_EQ(RestoredSteps(report), 2u);
  }
  std::filesystem::remove_all(dir);

  // GEN put into the context from outside; the rest of the chain as
  // StandardChainWorkflow configures it.
  SimulationConfig simulation;
  simulation.seed = kHandoffSeed + 1;
  Workflow from_gen;
  ASSERT_TRUE(from_gen
                  .AddStep(std::make_shared<SimulationStep>(simulation, 1,
                                                            "raw"),
                           {"gen"}, "raw")
                  .ok());
  ASSERT_TRUE(from_gen
                  .AddStep(std::make_shared<ReconstructionStep>(
                               simulation.geometry, "reco"),
                           {"raw"}, "reco")
                  .ok());
  ASSERT_TRUE(from_gen
                  .AddStep(std::make_shared<AodReductionStep>("aod"),
                           {"reco"}, "aod")
                  .ok());
  ASSERT_TRUE(from_gen
                  .AddStep(std::make_shared<DerivationStep>(
                               SkimSpec::RequireObjects(ObjectType::kMuon, 2,
                                                        10.0),
                               SlimSpec::LeptonsOnly(10.0), "derived"),
                           {"aod"}, "derived")
                  .ok());
  WorkflowContext external;
  ASSERT_TRUE(external
                  .PutDataset("gen",
                              std::string(*serial_context.GetDataset("gen")))
                  .ok());
  EXPECT_EQ(RunChainDigests(from_gen, 2, &external), serial);
}

TEST(HandoffTest, FanOutDerivationsMatchTheDecodePath) {
  // Two derivations read one AOD: both take the events AOD handed over.
  Workflow workflow = StandardChainWorkflow(Process::kZToLL, kHandoffEvents,
                                            kHandoffSeed, DataTier::kAod);
  const SkimSpec dimuon = SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0);
  const SlimSpec leptons = SlimSpec::LeptonsOnly(10.0);
  const SkimSpec all = SkimSpec::All();
  const SlimSpec none = SlimSpec::None();
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<DerivationStep>(dimuon, leptons,
                                                            "dimuon"),
                           {"aod"}, "dimuon")
                  .ok());
  ASSERT_TRUE(
      workflow
          .AddStep(std::make_shared<DerivationStep>(all, none, "everything"),
                   {"aod"}, "everything")
          .ok());
  WorkflowContext context;
  RunChainDigests(workflow, 2, &context);
  std::string aod = std::string(*context.GetDataset("aod"));
  auto decoded_dimuon = DeriveDataset(aod, "dimuon", dimuon, leptons);
  auto decoded_all = DeriveDataset(aod, "everything", all, none);
  ASSERT_TRUE(decoded_dimuon.ok()) << decoded_dimuon.status();
  ASSERT_TRUE(decoded_all.ok()) << decoded_all.status();
  EXPECT_EQ(*context.GetDataset("dimuon"), *decoded_dimuon);
  EXPECT_EQ(*context.GetDataset("everything"), *decoded_all);
}

/// Reads its one GEN input through ReadInput and notes whether it was handed
/// the producer's events and whether dropping them released the last hold.
class PayloadProbeStep : public WorkflowStep {
 public:
  struct Seen {
    bool handed = false;
    bool released_in_step = false;
    std::weak_ptr<const DatasetPayload> payload;
  };
  explicit PayloadProbeStep(Seen* seen) : seen_(seen) {}
  std::string name() const override { return "probe"; }
  std::string version() const override { return "1"; }
  Json Config() const override { return Json::Object(); }
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext* context) const override {
    seen_->handed = inputs[0].payload != nullptr;
    seen_->payload = inputs[0].payload;
    DASPOS_ASSIGN_OR_RETURN(
        InputEvents<GenEvent> gen,
        ReadInput<GenEvent>(std::move(inputs[0]), context->worker_pool()));
    const uint64_t events = gen.events->size();
    gen.events.reset();
    seen_->released_in_step = seen_->payload.expired();
    return StepOutput{"probe", events};
  }

 private:
  Seen* seen_;
};

TEST(HandoffTest, InputEventsDoNotOutliveTheirLastReader) {
  Workflow workflow = StandardChainWorkflow(Process::kZToLL, kHandoffEvents,
                                            kHandoffSeed, DataTier::kGen);
  PayloadProbeStep::Seen seen;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<PayloadProbeStep>(&seen), {"gen"},
                           "probe")
                  .ok());
  WorkflowContext context;
  ExecuteOptions options;
  options.max_threads = 2;
  auto report = workflow.Execute(&context, nullptr, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->steps.back().output_events, kHandoffEvents);
  EXPECT_TRUE(seen.handed);
  // The engine let go when it gave the last reader its input, so the
  // reader's own drop freed the events.
  EXPECT_TRUE(seen.released_in_step);
  EXPECT_TRUE(seen.payload.expired());
}

TEST(HandoffTest, CampaignSizeChainIsByteIdenticalAtEveryWidth) {
  // 2000 events: every tier seals 64 chunks, so the chunk buffers and the
  // two-task seal run at full width.
  constexpr size_t kEvents = 2000;
  WorkflowContext serial_context;
  const auto serial = RunChainDigests(
      StandardChainWorkflow(Process::kZToLL, kEvents, kHandoffSeed), 1,
      &serial_context);
  ASSERT_EQ(serial.size(), 5u);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    WorkflowContext context;
    EXPECT_EQ(RunChainDigests(StandardChainWorkflow(Process::kZToLL, kEvents,
                                                    kHandoffSeed),
                              threads, &context),
              serial)
        << threads << " threads";
  }
}

TEST(HandoffTest, JournalFreeChainHashesEachTierByteOnce) {
  // Each container is hashed as it is sealed; a reader of this run's own
  // output verifies nothing again. The footer (magic, count, digest) is
  // not hashed.
  constexpr uint64_t kFooterBytes = 4 + 8 + 32;
  const auto hashed = [] {
    return MetricsRegistry::Global().CounterValue(
        metric_names::kContainerHashedBytesTotal);
  };
  WorkflowContext context;
  const uint64_t before = hashed();
  RunChainDigests(
      StandardChainWorkflow(Process::kZToLL, kHandoffEvents, kHandoffSeed),
      2, &context);
  const uint64_t after = hashed();
  uint64_t sealed = 0;
  for (const std::string& name : context.DatasetNames()) {
    sealed += context.GetDataset(name)->size() - kFooterBytes;
  }
  EXPECT_EQ(context.DatasetNames().size(), 5u);
  EXPECT_EQ(after - before, sealed);
}

TEST(JournalTest, ChangedPlainInputReRunsItsConsumer) {
  // TagStep writes plain strings, not containers. The producer's two
  // outputs differ only in their first byte: once short of a container
  // footer, once longer than one with equal last 32 bytes.
  for (const size_t tail_length : {size_t{0}, size_t{64}}) {
    SCOPED_TRACE(tail_length);
    const std::string tail(tail_length, 't');
    std::string dir = TempRunDir("plain");
    std::filesystem::remove_all(dir);
    auto run = [&](const std::string& producer_tag, bool resume,
                   WorkflowContext* context) {
      Workflow workflow;
      EXPECT_TRUE(workflow
                      .AddStep(std::make_shared<TagStep>(producer_tag), {},
                               "a")
                      .ok());
      EXPECT_TRUE(
          workflow.AddStep(std::make_shared<TagStep>("b"), {"a"}, "b").ok());
      auto journal = RunJournal::Open(dir);
      EXPECT_TRUE(journal.ok());
      ExecuteOptions options;
      options.journal = journal->get();
      options.resume = resume;
      auto report = workflow.Execute(context, nullptr, options);
      EXPECT_TRUE(report.ok()) << report.status();
      return report.ok() ? *report : WorkflowReport{};
    };
    {
      WorkflowContext context;
      run("x" + tail, /*resume=*/false, &context);
      EXPECT_EQ(*context.GetDataset("b"), "x" + tail + "|b");
    }
    WorkflowContext context;
    WorkflowReport report = run("y" + tail, /*resume=*/true, &context);
    EXPECT_EQ(*context.GetDataset("b"), "y" + tail + "|b");
    EXPECT_EQ(RestoredSteps(report), 0u);
    std::filesystem::remove_all(dir);
  }
}

TEST(JournalTest, ResumeReRunsStepsWhoseInputsChanged) {
  // Seed 8 changes gen's and sim's configs but not reco's, aod's or
  // derived's: their checkpoints from seed 7 match by name and config, yet
  // were computed from other inputs.
  std::string dir = TempRunDir("reseed");
  std::filesystem::remove_all(dir);
  constexpr size_t kEvents = 30;
  {
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    RunChainDigests(StandardChainWorkflow(Process::kZToLL, kEvents, 7), 2,
                    &context, journal->get());
  }
  WorkflowContext fresh_context;
  const auto fresh = RunChainDigests(
      StandardChainWorkflow(Process::kZToLL, kEvents, 8), 2, &fresh_context);
  auto journal = RunJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  WorkflowContext context;
  WorkflowReport report;
  EXPECT_EQ(RunChainDigests(StandardChainWorkflow(Process::kZToLL, kEvents, 8),
                            2, &context, journal->get(), /*resume=*/true,
                            &report),
            fresh);
  EXPECT_EQ(RestoredSteps(report), 0u);
  std::filesystem::remove_all(dir);
}

TEST(JournalTest, LineWithoutInputDigestsRestoresOnlyInputlessSteps) {
  std::string dir = TempRunDir("legacy");
  std::filesystem::remove_all(dir);
  constexpr size_t kEvents = 20;
  std::map<std::string, std::string> first;
  {
    auto journal = RunJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    WorkflowContext context;
    first = RunChainDigests(StandardChainWorkflow(Process::kZToLL, kEvents, 7),
                            2, &context, journal->get());
  }
  // Rewrite every line as it was written before input digests existed.
  const std::string lines = RunJournal::LinesPath(dir);
  auto text = ReadFileToString(lines);
  ASSERT_TRUE(text.ok());
  std::string legacy;
  for (const Json& line : ParseJsonLines(*text)) {
    Json old = Json::Object();
    for (const auto& [key, value] : line.members()) {
      if (key != "inputs") old[key] = value;
    }
    legacy += old.Dump() + "\n";
  }
  ASSERT_EQ(legacy.find("inputs"), std::string::npos);
  ASSERT_TRUE(WriteStringToFile(lines, legacy).ok());

  auto journal = RunJournal::Open(dir);
  ASSERT_TRUE(journal.ok());
  WorkflowContext context;
  WorkflowReport report;
  EXPECT_EQ(RunChainDigests(StandardChainWorkflow(Process::kZToLL, kEvents, 7),
                            2, &context, journal->get(), /*resume=*/true,
                            &report),
            first);
  ASSERT_EQ(report.steps.size(), 5u);
  EXPECT_TRUE(report.steps[0].from_checkpoint);  // generation: no inputs
  EXPECT_EQ(RestoredSteps(report), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace daspos
