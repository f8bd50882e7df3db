#include "core/preserved_analysis.h"

#include "hist/yoda_io.h"
#include "rivet/analysis.h"
#include "rivet/registry.h"
#include "workflow/steps.h"

namespace daspos {

namespace {

/// Runs the named rivet analysis over a freshly generated sample.
Result<std::vector<Histo1D>> RunAnalysis(const std::string& analysis_name,
                                         const GeneratorConfig& config,
                                         size_t event_count) {
  DASPOS_ASSIGN_OR_RETURN(auto analysis,
                          rivet::AnalysisRegistry::Global().Create(
                              analysis_name));
  rivet::AnalysisHandler handler;
  handler.Add(std::move(analysis));
  EventGenerator generator(config);
  handler.Run(generator.GenerateMany(event_count));
  return handler.Finalize();
}

}  // namespace

SubmissionPackage PreservedAnalysis::ToSubmission() const {
  SubmissionPackage submission;
  submission.title = name;
  submission.creator = "daspos";
  submission.description = physics_summary;
  submission.keywords = {"preserved-analysis", rivet_analysis};

  Json manifest = Json::Object();
  manifest["name"] = name;
  manifest["version"] = version;
  manifest["physics_summary"] = physics_summary;
  manifest["rivet_analysis"] = rivet_analysis;
  manifest["generator"] = GeneratorConfigToJson(generator_config);
  manifest["event_count"] = static_cast<uint64_t>(event_count);
  submission.context = manifest;

  submission.files.push_back({"analysis/manifest.json", "application/json",
                              manifest.Dump(2)});
  submission.files.push_back(
      {"analysis/reference.yoda", "text/plain", reference_yoda});
  if (!provenance_json.empty()) {
    submission.files.push_back(
        {"analysis/provenance.json", "application/json", provenance_json});
  }
  if (!conditions_snapshot.empty()) {
    submission.files.push_back({"analysis/conditions.snapshot", "text/plain",
                                conditions_snapshot});
  }
  if (!interview.is_null()) {
    submission.files.push_back(
        {"analysis/interview.json", "application/json", interview.Dump(2)});
  }
  return submission;
}

Result<PreservedAnalysis> PreservedAnalysis::FromPackage(
    const DisseminationPackage& package) {
  PreservedAnalysis analysis;
  const Json& manifest = package.content.context;
  if (!manifest.Has("rivet_analysis")) {
    return Status::Corruption(
        "package context is not a preserved-analysis manifest");
  }
  analysis.name = manifest.Get("name").as_string();
  analysis.version = manifest.Get("version").as_string();
  analysis.physics_summary = manifest.Get("physics_summary").as_string();
  analysis.rivet_analysis = manifest.Get("rivet_analysis").as_string();
  DASPOS_ASSIGN_OR_RETURN(
      analysis.generator_config,
      GeneratorConfigFromJson(manifest.Get("generator")));
  DASPOS_ASSIGN_OR_RETURN(analysis.event_count,
                          ReadInteger<size_t>(manifest, "event_count"));

  for (const PackageFile& file : package.content.files) {
    if (file.logical_name == "analysis/reference.yoda") {
      analysis.reference_yoda = file.bytes;
    } else if (file.logical_name == "analysis/provenance.json") {
      analysis.provenance_json = file.bytes;
    } else if (file.logical_name == "analysis/conditions.snapshot") {
      analysis.conditions_snapshot = file.bytes;
    } else if (file.logical_name == "analysis/interview.json") {
      DASPOS_ASSIGN_OR_RETURN(analysis.interview,
                              Json::Parse(file.bytes));
    }
  }
  if (analysis.reference_yoda.empty()) {
    return Status::Corruption(
        "preserved analysis package without reference histograms");
  }
  return analysis;
}

Result<PreservedAnalysis> CaptureAnalysis(const std::string& name,
                                          const std::string& rivet_analysis,
                                          const GeneratorConfig& config,
                                          size_t event_count) {
  DASPOS_ASSIGN_OR_RETURN(
      std::vector<Histo1D> histograms,
      RunAnalysis(rivet_analysis, config, event_count));
  PreservedAnalysis analysis;
  analysis.name = name;
  analysis.rivet_analysis = rivet_analysis;
  analysis.generator_config = config;
  analysis.event_count = event_count;
  analysis.reference_yoda = WriteYoda(histograms);
  return analysis;
}

Result<ReexecutionReport> Reexecute(const PreservedAnalysis& analysis,
                                    double max_reduced_chi2) {
  DASPOS_ASSIGN_OR_RETURN(
      std::vector<Histo1D> produced,
      RunAnalysis(analysis.rivet_analysis, analysis.generator_config,
                  analysis.event_count));
  DASPOS_ASSIGN_OR_RETURN(std::vector<Histo1D> reference,
                          ReadYoda(analysis.reference_yoda));
  DASPOS_ASSIGN_OR_RETURN(
      rivet::ValidationResult validation,
      rivet::CompareToReference(produced, reference));
  ReexecutionReport report;
  report.events_generated = analysis.event_count;
  report.histograms_compared = validation.histograms_compared;
  report.worst_reduced_chi2 = validation.worst_reduced_chi2;
  report.validated = validation.Compatible(max_reduced_chi2);
  return report;
}

Result<std::string> DepositAnalysis(Archive* archive,
                                    const PreservedAnalysis& analysis) {
  return archive->Deposit(analysis.ToSubmission());
}

Result<PreservedAnalysis> RetrieveAnalysis(const Archive& archive,
                                           const std::string& archive_id) {
  DASPOS_ASSIGN_OR_RETURN(DisseminationPackage package,
                          archive.Retrieve(archive_id));
  return PreservedAnalysis::FromPackage(package);
}

}  // namespace daspos
