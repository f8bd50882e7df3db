// Quickstart: the complete DASPOS loop in one program.
//
//   1. run the standard HEP processing chain (generate -> simulate ->
//      reconstruct -> AOD -> derive) under the workflow engine, with
//      provenance capture and a conditions database;
//   2. capture the physics analysis (a RIVET-style plugin + its reference
//      histograms) as a preservation package;
//   3. deposit the package in the content-addressed archive;
//   4. retrieve it and RE-EXECUTE the analysis, validating bit-identical
//      reproduction against the preserved reference.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "archive/object_store.h"
#include "conditions/snapshot.h"
#include "conditions/store.h"
#include "core/preserved_analysis.h"
#include "event/pdg.h"
#include "interview/interview.h"
#include "support/strings.h"
#include "workflow/steps.h"

using namespace daspos;

int main() {
  std::printf("=== DASPOS quickstart ===\n\n");

  // --- 1. the standard processing chain --------------------------------
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 2014;
  gen_config.pileup_mean = 5.0;

  SimulationConfig sim_config;
  sim_config.seed = 2015;

  ConditionsDb conditions;
  CalibrationSet calib;
  if (auto s = conditions.Append(kCalibrationTag, 1, calib.ToPayload());
      !s.ok()) {
    std::printf("conditions setup failed: %s\n", s.ToString().c_str());
    return 1;
  }

  Workflow workflow;
  (void)workflow.AddStep(
      std::make_shared<GenerationStep>(gen_config, 200, "zmm_gen"), {},
      "zmm_gen");
  (void)workflow.AddStep(
      std::make_shared<SimulationStep>(sim_config, /*run=*/7, "zmm_raw"),
      {"zmm_gen"}, "zmm_raw");
  (void)workflow.AddStep(
      std::make_shared<ReconstructionStep>(sim_config.geometry, "zmm_reco"),
      {"zmm_raw"}, "zmm_reco");
  (void)workflow.AddStep(std::make_shared<AodReductionStep>("zmm_aod"),
                         {"zmm_reco"}, "zmm_aod");
  (void)workflow.AddStep(
      std::make_shared<DerivationStep>(
          SkimSpec::RequireObjects(ObjectType::kMuon, 2, 15.0),
          SlimSpec::LeptonsOnly(15.0), "zmm_derived"),
      {"zmm_aod"}, "zmm_derived");

  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;
  auto report = workflow.Execute(&context, &provenance);
  if (!report.ok()) {
    std::printf("workflow failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("processing chain (%zu steps):\n", report->steps.size());
  for (const auto& step : report->steps) {
    std::printf("  %-16s -> %-12s %s\n", step.step.c_str(),
                step.output.c_str(), FormatBytes(step.output_bytes).c_str());
  }
  std::printf("conditions lookups served: %llu\n",
              static_cast<unsigned long long>(conditions.lookup_count()));
  std::printf("provenance records: %zu (missing parents: %zu)\n\n",
              provenance.size(), provenance.MissingParents().size());

  // --- 2. capture the analysis -----------------------------------------
  auto analysis =
      CaptureAnalysis("zll-lineshape-2014", "DASPOS_2014_ZLL", gen_config,
                      /*event_count=*/200);
  if (!analysis.ok()) {
    std::printf("capture failed: %s\n", analysis.status().ToString().c_str());
    return 1;
  }
  analysis->physics_summary = "Z -> mu mu line shape (quickstart)";
  analysis->provenance_json = provenance.Serialize();
  auto snapshot =
      ConditionsSnapshot::Capture(conditions, /*run=*/7, {kCalibrationTag});
  if (snapshot.ok()) analysis->conditions_snapshot = snapshot->Serialize();
  analysis->interview = interview::ExampleInterviews()[2].ToJson();
  std::printf("captured analysis '%s' (%zu bytes of reference data)\n",
              analysis->name.c_str(), analysis->reference_yoda.size());

  // --- 3. deposit in the archive ---------------------------------------
  MemoryObjectStore object_store;
  Archive archive(&object_store);
  auto archive_id = DepositAnalysis(&archive, *analysis);
  if (!archive_id.ok()) {
    std::printf("deposit failed: %s\n",
                archive_id.status().ToString().c_str());
    return 1;
  }
  std::printf("deposited as %s\n", archive_id->substr(0, 16).c_str());
  auto audit = ArchiveInventory::Take(object_store).Fixity();
  std::printf("fixity audit: %llu objects checked, clean=%s\n\n",
              static_cast<unsigned long long>(audit.objects_checked),
              audit.clean() ? "yes" : "NO");

  // --- 4. retrieve and re-execute --------------------------------------
  auto restored = RetrieveAnalysis(archive, *archive_id);
  if (!restored.ok()) {
    std::printf("retrieve failed: %s\n",
                restored.status().ToString().c_str());
    return 1;
  }
  auto reexecution = Reexecute(*restored);
  if (!reexecution.ok()) {
    std::printf("re-execution failed: %s\n",
                reexecution.status().ToString().c_str());
    return 1;
  }
  std::printf("re-execution: %d histograms compared, worst chi2/ndof = %g\n",
              reexecution->histograms_compared,
              reexecution->worst_reduced_chi2);
  std::printf("validation %s\n",
              reexecution->validated ? "PASSED (bit-identical reproduction)"
                                     : "FAILED");
  return reexecution->validated ? 0 : 1;
}
