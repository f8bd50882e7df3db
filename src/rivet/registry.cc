#include "rivet/registry.h"

namespace daspos {
namespace rivet {

AnalysisRegistry& AnalysisRegistry::Global() {
  static AnalysisRegistry* registry = [] {
    auto* r = new AnalysisRegistry();
    RegisterBuiltinAnalyses(r);
    return r;
  }();
  return *registry;
}

Status AnalysisRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("analysis name must not be empty");
  }
  auto [it, inserted] = factories_.emplace(name, std::move(factory));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("analysis '" + name + "' already registered");
  }
  return Status::OK();
}

Result<std::unique_ptr<Analysis>> AnalysisRegistry::Create(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound("no analysis '" + name + "' in the repository");
  }
  return it->second();
}

bool AnalysisRegistry::Has(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> AnalysisRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    (void)factory;
    out.push_back(name);
  }
  return out;
}

Status SubmitValidatedAnalysis(AnalysisRegistry* registry,
                               const std::string& name,
                               AnalysisRegistry::Factory factory,
                               const std::vector<GenEvent>& validation_events,
                               const std::vector<Histo1D>& reference,
                               double max_reduced_chi2) {
  if (validation_events.empty()) {
    return Status::InvalidArgument(
        "submission needs validation events to run over");
  }
  if (reference.empty()) {
    return Status::InvalidArgument(
        "submission needs reference histograms to validate against");
  }
  std::unique_ptr<Analysis> candidate = factory();
  if (candidate == nullptr) {
    return Status::InvalidArgument("factory produced no analysis");
  }
  if (candidate->Name() != name) {
    return Status::InvalidArgument("analysis names itself '" +
                                   candidate->Name() + "', submitted as '" +
                                   name + "'");
  }
  AnalysisHandler handler;
  handler.Add(std::move(candidate));
  handler.Run(validation_events);
  std::vector<Histo1D> produced = handler.Finalize();

  DASPOS_ASSIGN_OR_RETURN(ValidationResult validation,
                          CompareToReference(produced, reference));
  if (!validation.Compatible(max_reduced_chi2)) {
    return Status::FailedPrecondition(
        "validation failed: " + std::to_string(validation.histograms_missing) +
        " histogram(s) missing, " +
        std::to_string(validation.histograms_empty_on_one_side) +
        " empty on one side only, worst chi2/ndof " +
        std::to_string(validation.worst_reduced_chi2) +
        " — not admitted to the repository");
  }
  return registry->Register(name, std::move(factory));
}

}  // namespace rivet
}  // namespace daspos
