#include "core/bridge.h"

#include "event/pdg.h"
#include "mc/generator.h"
#include "rivet/projections.h"
#include "workflow/steps.h"

namespace daspos {

namespace {

/// Truth dimuon mass with the same kinematic cuts as the preserved
/// detector-level search (pt > 25, |eta| < 2.5), or -1.
double TruthDimuonMass(const GenEvent& event) {
  auto pair = rivet::FindDilepton(event, pdg::kMuon, 1000.0, 0.0, 1e9,
                                  rivet::Cuts{25.0, 2.5});
  return pair ? pair->mass : -1.0;
}

}  // namespace

BridgedSearch DileptonResonanceTruthSearch() {
  BridgedSearch search;
  search.name = "DASPOS_EXO_14_001_RIVET";
  search.description =
      "truth-level bridge rendering of the dimuon resonance search";
  search.luminosity_pb = 20000.0;
  search.rivet_analysis = "DASPOS_2014_ZLL";

  BridgedRegion sr_low;
  sr_low.name = "SR_mll_400";
  sr_low.observed = 24.0;
  sr_low.background = 22.5;
  sr_low.truth_selection = [](const GenEvent& event) {
    double mass = TruthDimuonMass(event);
    return mass >= 400.0 && mass < 800.0;
  };
  search.regions.push_back(sr_low);

  BridgedRegion sr_high;
  sr_high.name = "SR_mll_800";
  sr_high.observed = 3.0;
  sr_high.background = 2.4;
  sr_high.truth_selection = [](const GenEvent& event) {
    return TruthDimuonMass(event) >= 800.0;
  };
  search.regions.push_back(sr_high);
  return search;
}

Status RivetBridgeBackEnd::RegisterSearch(BridgedSearch search) {
  if (search.name.empty()) {
    return Status::InvalidArgument("bridged search needs a name");
  }
  if (search.regions.empty()) {
    return Status::InvalidArgument("bridged search '" + search.name +
                                   "' has no regions");
  }
  auto [it, inserted] = searches_.emplace(search.name, std::move(search));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("bridged search already registered");
  }
  return Status::OK();
}

std::vector<std::string> RivetBridgeBackEnd::SearchNames() const {
  std::vector<std::string> out;
  out.reserve(searches_.size());
  for (const auto& [name, search] : searches_) {
    (void)search;
    out.push_back(name);
  }
  return out;
}

Result<recast::RecastResult> RivetBridgeBackEnd::Process(
    const recast::RecastRequest& request) {
  auto it = searches_.find(request.search_name);
  if (it == searches_.end()) {
    return Status::NotFound("no bridged search '" + request.search_name +
                            "'");
  }
  DASPOS_RETURN_IF_ERROR(recast::ValidateRequest(request));
  const BridgedSearch& search = it->second;

  DASPOS_ASSIGN_OR_RETURN(GeneratorConfig model,
                          GeneratorConfigFromJson(request.model));
  EventGenerator generator(model);

  std::vector<recast::RegionCount> counts;
  for (const BridgedRegion& region : search.regions) {
    counts.push_back({region.name, region.observed, region.background, 0});
  }
  for (size_t i = 0; i < request.event_count; ++i) {
    GenEvent truth = generator.Generate();
    for (size_t r = 0; r < search.regions.size(); ++r) {
      if (search.regions[r].truth_selection(truth)) ++counts[r].passed;
    }
  }
  events_generated_ += request.event_count;
  return recast::ResultFromCounts(request, search.name, search.luminosity_pb,
                                  counts);
}

}  // namespace daspos
