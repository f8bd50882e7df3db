// E5 — prices provenance capture (§3.2: "an external structure to capture
// that provenance chain will need to be created"): chain execution with vs
// without capture, the size of the captured chain, and the gap-detection
// query that finds derived files with missing parentage.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "conditions/store.h"
#include "event/pdg.h"
#include "support/strings.h"
#include "support/table.h"
#include "workflow/steps.h"

using namespace daspos;

namespace {

constexpr int kEvents = 60;

Workflow BuildChain() {
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 21;
  SimulationConfig sim_config;
  sim_config.seed = 22;

  Workflow workflow;
  (void)workflow.AddStep(
      std::make_shared<GenerationStep>(gen_config, kEvents, "gen"), {},
      "gen");
  (void)workflow.AddStep(
      std::make_shared<SimulationStep>(sim_config, 7, "raw"), {"gen"},
      "raw");
  (void)workflow.AddStep(
      std::make_shared<ReconstructionStep>(sim_config.geometry, "reco"),
      {"raw"}, "reco");
  (void)workflow.AddStep(std::make_shared<AodReductionStep>("aod"), {"reco"},
                         "aod");
  (void)workflow.AddStep(
      std::make_shared<DerivationStep>(
          SkimSpec::RequireObjects(ObjectType::kMuon, 2, 15.0),
          SlimSpec::LeptonsOnly(15.0), "derived"),
      {"aod"}, "derived");
  return workflow;
}

ConditionsDb MakeConditions() {
  ConditionsDb conditions;
  CalibrationSet calib;
  (void)conditions.Append(kCalibrationTag, 1, calib.ToPayload());
  return conditions;
}

void BM_ChainWithoutProvenance(benchmark::State& state) {
  Workflow workflow = BuildChain();
  ConditionsDb conditions = MakeConditions();
  for (auto _ : state) {
    WorkflowContext context;
    context.set_conditions(&conditions);
    auto report = workflow.Execute(&context);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEvents);
}
BENCHMARK(BM_ChainWithoutProvenance)->Unit(benchmark::kMillisecond);

void BM_ChainWithProvenance(benchmark::State& state) {
  Workflow workflow = BuildChain();
  ConditionsDb conditions = MakeConditions();
  for (auto _ : state) {
    WorkflowContext context;
    context.set_conditions(&conditions);
    ProvenanceStore provenance;
    auto report = workflow.Execute(&context, &provenance);
    benchmark::DoNotOptimize(provenance);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEvents);
}
BENCHMARK(BM_ChainWithProvenance)->Unit(benchmark::kMillisecond);

// One shard of a wide skim fan-out: a fixed sleep standing in for I/O-bound
// step latency plus a small checksum pass over the input (the §2.1
// common-format converter fan-out shape).
class ShardStep : public WorkflowStep {
 public:
  explicit ShardStep(int shard, int sleep_ms)
      : shard_(shard), sleep_ms_(sleep_ms) {}
  std::string name() const override {
    return "shard_" + std::to_string(shard_);
  }
  std::string version() const override { return "1"; }
  Json Config() const override {
    Json json = Json::Object();
    json["shard"] = shard_;
    json["sleep_ms"] = sleep_ms_;
    return json;
  }
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext*) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    uint64_t checksum = static_cast<uint64_t>(shard_);
    for (const DatasetInput& input : inputs) {
      for (char c : input.bytes) {
        checksum = checksum * 131 + static_cast<uint8_t>(c);
      }
    }
    return StepOutput{std::to_string(checksum)};
  }

 private:
  int shard_;
  int sleep_ms_;
};

/// Joins every shard output (barrier step closing the fan-out).
class JoinStep : public WorkflowStep {
 public:
  std::string name() const override { return "join"; }
  std::string version() const override { return "1"; }
  Json Config() const override { return Json::Object(); }
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext*) const override {
    std::string out;
    for (const DatasetInput& input : inputs) {
      out += std::string(input.bytes);
      out += '\n';
    }
    return StepOutput{std::move(out)};
  }
};

constexpr int kFanoutWidth = 16;
constexpr int kShardSleepMs = 5;

Workflow BuildFanout() {
  Workflow workflow;
  (void)workflow.AddStep(std::make_shared<ShardStep>(-1, 0), {}, "source");
  std::vector<std::string> shards;
  for (int i = 0; i < kFanoutWidth; ++i) {
    std::string output = "shard" + std::to_string(i);
    (void)workflow.AddStep(std::make_shared<ShardStep>(i, kShardSleepMs),
                           {"source"}, output);
    shards.push_back(output);
  }
  (void)workflow.AddStep(std::make_shared<JoinStep>(), shards, "joined");
  return workflow;
}

// The headline scaling measurement: the same 16-wide fan-out at 1..N worker
// threads. Wall-clock should drop near-linearly until the width or the
// hardware is exhausted (the shards sleep, so this scales even on one core).
void BM_FanoutExecute(benchmark::State& state) {
  Workflow workflow = BuildFanout();
  ExecuteOptions options;
  options.max_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    WorkflowContext context;
    auto report = workflow.Execute(&context, nullptr, options);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kFanoutWidth);
}
BENCHMARK(BM_FanoutExecute)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_AncestryQuery(benchmark::State& state) {
  Workflow workflow = BuildChain();
  ConditionsDb conditions = MakeConditions();
  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;
  (void)workflow.Execute(&context, &provenance);
  for (auto _ : state) {
    auto ancestry = provenance.Ancestry("derived");
    benchmark::DoNotOptimize(ancestry);
  }
}
BENCHMARK(BM_AncestryQuery);

void PrintProvenanceReport() {
  Workflow workflow = BuildChain();
  ConditionsDb conditions = MakeConditions();
  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;
  auto report = workflow.Execute(&context, &provenance);
  if (report.ok()) {
    std::printf("%s\n",
                report->RenderTimingTable("per-step chain timing:").c_str());
  }

  std::string serialized = provenance.Serialize();
  TextTable table;
  table.SetTitle("\nCaptured provenance chain:");
  table.SetHeader({"dataset", "producer", "parents", "events", "bytes"});
  for (const std::string& dataset : provenance.Datasets()) {
    auto record = provenance.Get(dataset);
    table.AddRow({record->dataset, record->producer,
                  Join(record->parents, ","),
                  std::to_string(record->output_events),
                  FormatBytes(record->output_bytes)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("provenance store: %zu records, %s serialized (%.2f%% of the "
              "data volume it describes)\n",
              provenance.size(), FormatBytes(serialized.size()).c_str(),
              100.0 * static_cast<double>(serialized.size()) /
                  static_cast<double>(context.TotalBytes()));

  // Gap detection: simulate a legacy file whose parent was produced
  // without capture.
  ProvenanceStore broken;
  auto derived = provenance.Get("derived");
  ProvenanceRecord orphan = *derived;
  (void)broken.Add(orphan);
  auto missing = broken.MissingParents();
  std::printf("\ngap detection on a partial store: %zu missing parent(s): ",
              missing.size());
  for (const std::string& parent : missing) std::printf("%s ", parent.c_str());
  std::printf("\n(the §3.2 failure mode an external provenance structure "
              "must catch)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== E5: provenance capture cost + gap detection ====\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintProvenanceReport();
  return 0;
}
