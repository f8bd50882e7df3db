#include "core/replay.h"

#include <algorithm>

#include "workflow/steps.h"

namespace daspos {

Result<std::shared_ptr<WorkflowStep>> RebuildStep(
    const ProvenanceRecord& record) {
  const Json& config = record.config;
  // Standard step names are dataset-qualified ("generation[batch_a]") so a
  // workflow can hold several instances of one kind; dispatch on the kind.
  const std::string kind = record.producer.substr(0, record.producer.find('['));
  if (kind == "generation") {
    DASPOS_ASSIGN_OR_RETURN(GeneratorConfig generator,
                            GeneratorConfigFromJson(config.Get("generator")));
    DASPOS_ASSIGN_OR_RETURN(size_t events,
                            ReadInteger<size_t>(config, "event_count"));
    return std::shared_ptr<WorkflowStep>(
        std::make_shared<GenerationStep>(generator, events, record.dataset));
  }
  if (kind == "simulation") {
    DASPOS_ASSIGN_OR_RETURN(
        SimulationConfig simulation,
        SimulationConfigFromJson(config.Get("simulation")));
    DASPOS_ASSIGN_OR_RETURN(uint32_t run,
                            ReadInteger<uint32_t>(config, "run_number"));
    return std::shared_ptr<WorkflowStep>(
        std::make_shared<SimulationStep>(simulation, run, record.dataset));
  }
  if (kind == "reconstruction") {
    DASPOS_ASSIGN_OR_RETURN(DetectorGeometry geometry,
                            GeometryFromJson(config.Get("geometry")));
    return std::shared_ptr<WorkflowStep>(
        std::make_shared<ReconstructionStep>(geometry, record.dataset));
  }
  if (kind == "aod_reduction") {
    return std::shared_ptr<WorkflowStep>(
        std::make_shared<AodReductionStep>(record.dataset));
  }
  if (kind == "derivation") {
    DASPOS_ASSIGN_OR_RETURN(SkimSpec skim,
                            SkimSpec::FromJson(config.Get("skim")));
    DASPOS_ASSIGN_OR_RETURN(SlimSpec slim,
                            SlimSpec::FromJson(config.Get("slim")));
    return std::shared_ptr<WorkflowStep>(
        std::make_shared<DerivationStep>(skim, slim, record.dataset));
  }
  if (kind == "merge") {
    return std::shared_ptr<WorkflowStep>(
        std::make_shared<MergeStep>(record.dataset));
  }
  return Status::Unimplemented(
      "producer '" + record.producer +
      "' is not machine-reconstructible from provenance; preserve its code "
      "directly");
}

Result<ReplayReport> ReplayChain(const ProvenanceStore& provenance,
                                 const std::string& target,
                                 WorkflowContext* context,
                                 const WorkflowContext* expected) {
  DASPOS_ASSIGN_OR_RETURN(std::vector<std::string> ancestors,
                          provenance.Ancestry(target));
  // Rebuild in production order: ancestors first, target last.
  std::vector<std::string> order = ancestors;
  std::reverse(order.begin(), order.end());
  order.push_back(target);

  Workflow workflow;
  for (const std::string& dataset : order) {
    auto record = provenance.Get(dataset);
    if (!record.ok()) {
      return Status::FailedPrecondition(
          "provenance gap: no record for ancestor '" + dataset +
          "' — chain cannot be replayed (§3.2)");
    }
    DASPOS_ASSIGN_OR_RETURN(std::shared_ptr<WorkflowStep> step,
                            RebuildStep(*record));
    DASPOS_RETURN_IF_ERROR(
        workflow.AddStep(std::move(step), record->parents, dataset));
  }

  DASPOS_ASSIGN_OR_RETURN(WorkflowReport run_report,
                          workflow.Execute(context));
  ReplayReport report;
  for (const auto& step : run_report.steps) {
    report.steps.push_back(step.step + " -> " + step.output);
    if (expected != nullptr) {
      auto original = expected->GetDataset(step.output);
      auto replayed = context->GetDataset(step.output);
      if (original.ok() && replayed.ok() && *original == *replayed) {
        ++report.datasets_identical;
      } else {
        ++report.datasets_differing;
      }
    }
  }
  return report;
}

}  // namespace daspos
