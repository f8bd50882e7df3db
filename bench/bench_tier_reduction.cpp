// E2 — the §3.2 tier-reduction narrative: RAW -> RECO -> AOD ->
// skim/slim derived formats. Regenerates the per-tier size table (bytes per
// event, step reduction factor, cumulative reduction) and measures the
// throughput of each processing step.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "conditions/store.h"
#include "event/pdg.h"
#include "support/strings.h"
#include "support/table.h"
#include "tiers/dataset.h"
#include "workflow/steps.h"

using namespace daspos;

namespace {

constexpr int kEvents = 150;
constexpr uint32_t kRun = 7;

struct ChainOutput {
  WorkflowContext context;
  ConditionsDb conditions;
};

/// Runs the full chain once; the context holds every tier's blob.
std::unique_ptr<ChainOutput> RunChain(double pileup) {
  auto out = std::make_unique<ChainOutput>();
  CalibrationSet calib;
  (void)out->conditions.Append(kCalibrationTag, 1, calib.ToPayload());
  out->context.set_conditions(&out->conditions);

  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 11;
  gen_config.pileup_mean = pileup;
  SimulationConfig sim_config;
  sim_config.seed = 12;

  Workflow workflow;
  (void)workflow.AddStep(
      std::make_shared<GenerationStep>(gen_config, kEvents, "gen"), {},
      "gen");
  (void)workflow.AddStep(
      std::make_shared<SimulationStep>(sim_config, kRun, "raw"), {"gen"},
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
  auto report = workflow.Execute(&out->context);
  if (!report.ok()) {
    std::fprintf(stderr, "chain failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return out;
}

void BM_ChainStep(benchmark::State& state) {
  // Times one named step in isolation (inputs prepared once).
  static std::unique_ptr<ChainOutput> chain = RunChain(5.0);
  const char* steps[] = {"generation", "simulation", "reconstruction",
                         "aod_reduction", "derivation"};
  const char* inputs[] = {"", "gen", "raw", "reco", "aod"};
  int index = static_cast<int>(state.range(0));

  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 11;
  gen_config.pileup_mean = 5.0;
  SimulationConfig sim_config;
  sim_config.seed = 12;

  std::shared_ptr<WorkflowStep> step;
  switch (index) {
    case 0:
      step = std::make_shared<GenerationStep>(gen_config, kEvents, "x");
      break;
    case 1:
      step = std::make_shared<SimulationStep>(sim_config, kRun, "x");
      break;
    case 2:
      step = std::make_shared<ReconstructionStep>(sim_config.geometry, "x");
      break;
    case 3:
      step = std::make_shared<AodReductionStep>("x");
      break;
    default:
      step = std::make_shared<DerivationStep>(
          SkimSpec::RequireObjects(ObjectType::kMuon, 2, 15.0),
          SlimSpec::LeptonsOnly(15.0), "x");
  }
  // Bytes only: each iteration reads its input as a resumed run would.
  std::vector<DatasetInput> step_inputs;
  if (index > 0) {
    step_inputs.push_back({*chain->context.GetDataset(inputs[index])});
  }
  for (auto _ : state) {
    auto result = step->Run(step_inputs, &chain->context);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEvents);
  state.SetLabel(steps[index]);
}
BENCHMARK(BM_ChainStep)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void PrintReductionTable(double pileup) {
  auto chain = RunChain(pileup);
  struct TierRow {
    const char* tier;
    const char* dataset;
  };
  TierRow rows[] = {{"GEN", "gen"},
                    {"RAW", "raw"},
                    {"RECO", "reco"},
                    {"AOD", "aod"},
                    {"DERIVED (skim+slim)", "derived"}};
  TextTable table;
  char title[128];
  std::snprintf(title, sizeof(title),
                "\nTier reduction, Z->mumu, %d events, pileup mu=%.0f:",
                kEvents, pileup);
  table.SetTitle(title);
  table.SetHeader({"tier", "total", "bytes/event", "step factor",
                   "cumulative vs RAW"});
  uint64_t raw_size = chain->context.GetDataset("raw")->size();
  uint64_t previous = 0;
  for (const TierRow& row : rows) {
    uint64_t size = chain->context.GetDataset(row.dataset)->size();
    std::string factor = "-";
    if (previous > 0) {
      factor = FormatDouble(static_cast<double>(previous) / static_cast<double>(size), 3) + "x";
    }
    std::string cumulative =
        std::string(row.dataset) == "gen"
            ? "-"
            : FormatDouble(static_cast<double>(raw_size) / static_cast<double>(size), 3) + "x";
    table.AddRow({row.tier, FormatBytes(size),
                  FormatBytes(size / kEvents), factor, cumulative});
    previous = size;
  }
  std::printf("%s\n", table.Render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== E2: data-tier reduction chain (RAW->RECO->AOD->derived) "
              "====\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintReductionTable(/*pileup=*/0.0);
  PrintReductionTable(/*pileup=*/20.0);
  std::printf(
      "Shape to reproduce (§3.2): RAW is the largest tier; AOD keeps only\n"
      "refined objects; skimming+slimming shrink it further; pileup inflates\n"
      "RAW/RECO far more than AOD/derived.\n");
  return 0;
}
