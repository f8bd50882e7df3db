// E2 — the §3.2 tier-reduction narrative: RAW -> RECO -> AOD ->
// skim/slim derived formats. Regenerates the per-tier size table (bytes per
// event, step reduction factor, cumulative reduction) and measures the
// throughput of each processing step.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "conditions/store.h"
#include "event/pdg.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/threadpool.h"
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
  std::vector<std::string_view> step_inputs;
  if (index > 0) {
    step_inputs.push_back(*chain->context.GetDataset(inputs[index]));
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

/// Intra-step parallelism over the reduction pipeline (PR 4): the
/// RAW -> RECO -> AOD -> derived steps re-run against a shared worker pool
/// via the workflow context, timing the pipeline at several widths and
/// digest-checking that every width produces the same derived blob.
bool PrintParallelReduction() {
  int n = daspos_bench::EnvInt("DASPOS_BENCH_EVENTS", 2000);

  // One serial pass prepares the RAW input (generation is stateful RNG and
  // stays serial by design).
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 11;
  gen_config.pileup_mean = 10.0;
  SimulationConfig sim_config;
  sim_config.seed = 12;
  GenerationStep generation(gen_config, static_cast<size_t>(n), "gen");
  SimulationStep simulation(sim_config, kRun, "raw");
  ReconstructionStep reconstruction(sim_config.geometry, "reco");
  AodReductionStep aod_reduction("aod");
  DerivationStep derivation(SkimSpec::RequireObjects(ObjectType::kMuon, 2,
                                                     15.0),
                            SlimSpec::LeptonsOnly(15.0), "derived");

  ConditionsDb conditions;
  CalibrationSet calib;
  (void)conditions.Append(kCalibrationTag, 1, calib.ToPayload());
  WorkflowContext context;
  context.set_conditions(&conditions);
  auto gen_blob = generation.Run({}, &context);
  if (!gen_blob.ok()) return false;
  auto raw_blob = simulation.Run({gen_blob->blob}, &context);
  if (!raw_blob.ok()) return false;

  auto run_pipeline = [&](ThreadPool* pool) {
    context.set_worker_pool(pool);
    double best_ms = 0.0;
    std::string derived;
    for (int rep = 0; rep < 3; ++rep) {
      auto start = std::chrono::steady_clock::now();
      auto reco = reconstruction.Run({raw_blob->blob}, &context);
      if (!reco.ok()) {
        std::fprintf(stderr, "reconstruction failed: %s\n",
                     reco.status().ToString().c_str());
        std::exit(1);
      }
      auto aod = aod_reduction.Run({reco->blob}, &context);
      if (!aod.ok()) {
        std::fprintf(stderr, "aod reduction failed: %s\n",
                     aod.status().ToString().c_str());
        std::exit(1);
      }
      auto result = derivation.Run({aod->blob}, &context);
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      if (!result.ok()) {
        std::fprintf(stderr, "derivation failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      derived = std::move(result->blob);
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    context.set_worker_pool(nullptr);
    return std::make_pair(best_ms, Sha256::HashHex(derived));
  };

  auto [serial_ms, serial_digest] = run_pipeline(nullptr);
  daspos_bench::AppendBenchJson("bench_tier_reduction", "reduction_ms",
                                serial_ms, 1);
  TextTable table;
  table.SetTitle("\nParallel tier reduction (RAW->RECO->AOD->derived, " +
                 std::to_string(n) + " events, byte-identical output):");
  table.SetHeader({"threads", "wall ms", "speedup", "derived digest"});
  table.AddRow({"1 (serial)", FormatDouble(serial_ms, 2), "1.00",
                serial_digest.substr(0, 12)});
  bool deterministic = true;
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    auto [ms, digest] = run_pipeline(&pool);
    double speedup = serial_ms / ms;
    table.AddRow({std::to_string(threads), FormatDouble(ms, 2),
                  FormatDouble(speedup, 2), digest.substr(0, 12)});
    daspos_bench::AppendBenchJson("bench_tier_reduction", "reduction_ms", ms,
                                  static_cast<int>(threads));
    daspos_bench::AppendBenchJson("bench_tier_reduction",
                                  "speedup_vs_serial", speedup,
                                  static_cast<int>(threads));
    if (digest != serial_digest) deterministic = false;
  }
  std::printf("%s\n", table.Render().c_str());
  if (!deterministic) {
    std::fprintf(stderr,
                 "bench_tier_reduction: parallel output diverged!\n");
  }
  return deterministic;
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
  return PrintParallelReduction() ? 0 : 1;
}
