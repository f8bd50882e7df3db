#include "recast/backend.h"

#include "stats/limits.h"
#include "tiers/dataset.h"
#include "workflow/steps.h"

namespace daspos {
namespace recast {

Status ValidateRequest(const RecastRequest& request) {
  if (request.model_cross_section_pb <= 0.0) {
    return Status::InvalidArgument(
        "request must state the model cross section");
  }
  if (request.event_count == 0) {
    return Status::InvalidArgument("request must ask for at least one event");
  }
  return Status::OK();
}

Result<RecastResult> ResultFromCounts(const RecastRequest& request,
                                      const std::string& search_name,
                                      double luminosity_pb,
                                      const std::vector<RegionCount>& regions) {
  RecastResult result;
  result.search_name = search_name;
  result.events_processed = request.event_count;
  for (const RegionCount& region : regions) {
    RegionResult region_result;
    region_result.region = region.name;
    region_result.efficiency = static_cast<double>(region.passed) /
                               static_cast<double>(request.event_count);
    region_result.signal_per_mu = region_result.efficiency *
                                  request.model_cross_section_pb *
                                  luminosity_pb;
    region_result.observed = region.observed;
    region_result.background = region.background;
    if (region_result.signal_per_mu > 0.0) {
      CountingExperiment experiment;
      experiment.observed = region.observed;
      experiment.background = region.background;
      experiment.signal_per_mu = region_result.signal_per_mu;
      DASPOS_ASSIGN_OR_RETURN(region_result.upper_limit_mu,
                              UpperLimit(experiment));
      DASPOS_ASSIGN_OR_RETURN(region_result.expected_limit_mu,
                              ExpectedLimit(experiment));
    }
    result.regions.push_back(std::move(region_result));
  }
  return result;
}

Status RecastBackEnd::RegisterSearch(PreservedSearch search) {
  if (search.name.empty()) {
    return Status::InvalidArgument("search needs a name");
  }
  if (search.regions.empty()) {
    return Status::InvalidArgument("search '" + search.name +
                                   "' has no signal regions");
  }
  auto [it, inserted] = searches_.emplace(search.name, std::move(search));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("search already registered");
  }
  return Status::OK();
}

std::vector<std::string> RecastBackEnd::SearchNames() const {
  std::vector<std::string> out;
  out.reserve(searches_.size());
  for (const auto& [name, search] : searches_) {
    (void)search;
    out.push_back(name);
  }
  return out;
}

Result<RecastResult> RecastBackEnd::Process(const RecastRequest& request) {
  auto it = searches_.find(request.search_name);
  if (it == searches_.end()) {
    return Status::NotFound("no preserved search '" + request.search_name +
                            "'");
  }
  DASPOS_RETURN_IF_ERROR(ValidateRequest(request));
  const PreservedSearch& search = it->second;

  DASPOS_ASSIGN_OR_RETURN(GeneratorConfig model,
                          GeneratorConfigFromJson(request.model));

  // The encapsulated full chain, exactly as preserved, run to AOD on the
  // workflow engine; the preserved selections then count its events.
  WorkflowContext context;
  DASPOS_RETURN_IF_ERROR(
      ExecuteChain(ChainWorkflow(model, search.sim_config,
                                 request.event_count, DataTier::kAod),
                   search.sim_config.calib, &context)
          .status());
  DASPOS_ASSIGN_OR_RETURN(std::string_view aod, context.GetDataset("aod"));
  DASPOS_ASSIGN_OR_RETURN(std::vector<RegionCount> counts,
                          ProcessDataset(search.name, aod));
  events_simulated_ += request.event_count;
  return ResultFromCounts(request, search.name, search.luminosity_pb, counts);
}

Result<std::vector<RegionCount>> RecastBackEnd::ProcessDataset(
    const std::string& search_name, std::string_view aod_blob) const {
  auto it = searches_.find(search_name);
  if (it == searches_.end()) {
    return Status::NotFound("no preserved search '" + search_name + "'");
  }
  const PreservedSearch& search = it->second;
  DASPOS_ASSIGN_OR_RETURN(std::vector<AodEvent> events,
                          ReadAodDataset(aod_blob));
  std::vector<RegionCount> out;
  out.reserve(search.regions.size());
  for (const SignalRegion& region : search.regions) {
    RegionCount counts{region.name, region.observed, region.background, 0};
    for (const AodEvent& event : events) {
      if (region.selection(event)) ++counts.passed;
    }
    out.push_back(std::move(counts));
  }
  return out;
}

}  // namespace recast
}  // namespace daspos
