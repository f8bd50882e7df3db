// Concrete workflow steps for the standard HEP chain of §3.2:
//   Generation -> Simulation -> Reconstruction -> AOD -> Derivation.
// Each step captures its full configuration as JSON for provenance, and
// RebuildStep turns that capture back into the step.
#ifndef DASPOS_WORKFLOW_STEPS_H_
#define DASPOS_WORKFLOW_STEPS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "detsim/simulation.h"
#include "mc/generator.h"
#include "reco/reconstruction.h"
#include "tiers/skimslim.h"
#include "tiers/tier.h"
#include "workflow/engine.h"
#include "workflow/provenance.h"

namespace daspos {

/// Conditions tag under which the detector calibration payload lives.
inline constexpr char kCalibrationTag[] = "calib/detector";

/// Produces a GEN dataset from nothing (the "Monte Carlo Generation" step).
class GenerationStep : public WorkflowStep {
 public:
  GenerationStep(GeneratorConfig config, size_t event_count,
                 std::string dataset_name);

  std::string name() const override;
  std::string version() const override { return "1.0"; }
  Json Config() const override;
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext* context) const override;

 private:
  GeneratorConfig config_;
  size_t event_count_;
  std::string dataset_name_;
};

/// GEN -> RAW digitization.
class SimulationStep : public WorkflowStep {
 public:
  SimulationStep(SimulationConfig config, uint32_t run_number,
                 std::string dataset_name);

  std::string name() const override;
  std::string version() const override { return "1.0"; }
  Json Config() const override;
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext* context) const override;

 private:
  SimulationConfig config_;
  uint32_t run_number_;
  std::string dataset_name_;
};

/// RAW -> RECO. Fetches calibration from the context's conditions provider
/// (tag kCalibrationTag) at the run number of the data — the external
/// database dependency §3.2 highlights.
class ReconstructionStep : public WorkflowStep {
 public:
  ReconstructionStep(DetectorGeometry geometry, std::string dataset_name);

  std::string name() const override;
  std::string version() const override { return "1.0"; }
  Json Config() const override;
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext* context) const override;

 private:
  DetectorGeometry geometry_;
  std::string dataset_name_;
};

/// RECO -> AOD: drops basic and intermediate data categories.
class AodReductionStep : public WorkflowStep {
 public:
  explicit AodReductionStep(std::string dataset_name);

  std::string name() const override;
  std::string version() const override { return "1.0"; }
  Json Config() const override;
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext* context) const override;

 private:
  std::string dataset_name_;
};

/// AOD -> derived format (skim + slim).
class DerivationStep : public WorkflowStep {
 public:
  DerivationStep(SkimSpec skim, SlimSpec slim, std::string dataset_name);

  std::string name() const override;
  std::string version() const override { return "1.0"; }
  Json Config() const override;
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext* context) const override;

 private:
  SkimSpec skim_;
  SlimSpec slim_;
  std::string dataset_name_;
};

/// Merges several datasets of the same tier into one (the §3.1 reality
/// that "large samples of events must be compiled": productions run in
/// parallel batches that are merged for analysis). Records are concatenated
/// without re-decoding; the output metadata lists every parent.
class MergeStep : public WorkflowStep {
 public:
  explicit MergeStep(std::string dataset_name);

  std::string name() const override;
  std::string version() const override { return "1.0"; }
  Json Config() const override;
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext* context) const override;

 private:
  std::string dataset_name_;
};

/// The GEN->RAW->RECO->AOD->derived chain of §3.2 over dataset names
/// "gen"/"raw"/"reco"/"aod"/"derived", stopped after `last_tier`:
/// `event_count` events of `generator`, digitized by `simulation` at run 1
/// and reconstructed with its geometry. Reconstruction reads
/// kCalibrationTag from the context's conditions provider at run 1, which
/// ExecuteChain serves.
Workflow ChainWorkflow(const GeneratorConfig& generator,
                       const SimulationConfig& simulation, size_t event_count,
                       DataTier last_tier);

/// The standard chain: `process` at `seed` through the default detector
/// (simulation seed `seed + 1`), stopped after `last_tier`. Shared by the
/// CLI, the service and campaign capture; the validation farm re-executes
/// a captured campaign from its provenance (ReplayWorkflow).
Workflow StandardChainWorkflow(Process process, size_t event_count,
                               uint64_t seed,
                               DataTier last_tier = DataTier::kDerived);

/// Executes a chain with `calib` served under kCalibrationTag at run 1 for
/// exactly the duration of the run; `context` is left with no conditions
/// provider, so it keeps no pointer to the run's conditions database.
Result<WorkflowReport> ExecuteChain(const Workflow& workflow,
                                    const CalibrationSet& calib,
                                    WorkflowContext* context,
                                    ProvenanceStore* provenance = nullptr,
                                    const ExecuteOptions& options = {});

/// Rebuilds the step that produced a provenance record from the
/// configuration it captured; the step keeps the record's step name.
/// Fails with Unimplemented for a producer whose configuration is not
/// machine-reconstructible (hand-written analyst code — §3.2's "direct
/// preservation ... is likely the only way" case).
Result<std::shared_ptr<WorkflowStep>> RebuildStep(
    const ProvenanceRecord& record);

/// The workflow a preserved provenance chain records: one rebuilt step per
/// record, in registration order, reading the record's parents and writing
/// its dataset. This is DASPOS's central claim made executable — the chain
/// IS the workflow. A parent without a record is left to Execute's lint
/// gate, which names the missing input (W002).
Result<Workflow> ReplayWorkflow(const ProvenanceStore& provenance);

/// JSON captures of the substrate configurations (shared with recast/ and
/// the provenance replay above). All are lossless round trips.
Json GeneratorConfigToJson(const GeneratorConfig& config);
Result<GeneratorConfig> GeneratorConfigFromJson(const Json& json);
Json GeometryToJson(const DetectorGeometry& geometry);
Result<DetectorGeometry> GeometryFromJson(const Json& json);
Json SimulationConfigToJson(const SimulationConfig& config);
Result<SimulationConfig> SimulationConfigFromJson(const Json& json);

}  // namespace daspos

#endif  // DASPOS_WORKFLOW_STEPS_H_
