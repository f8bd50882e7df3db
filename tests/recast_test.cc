// Tests for the RECAST-analog: preserved search content, back-end
// processing of new-physics requests, the front-end lifecycle with the
// experiment approval gate, and the closed-system properties.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "event/pdg.h"
#include "recast/backend.h"
#include "recast/frontend.h"
#include "recast/scan.h"
#include "recast/search.h"
#include "hist/yoda_io.h"
#include "reco/reconstruction.h"
#include "tiers/dataset.h"
#include "workflow/steps.h"

namespace daspos {
namespace recast {
namespace {

RecastRequest ZPrimeRequest(double mass, double xsec_pb = 0.05,
                            size_t events = 300) {
  GeneratorConfig model;
  model.process = Process::kZPrimeToLL;
  model.zprime_mass = mass;
  model.zprime_width = mass * 0.03;
  model.lepton_flavor = pdg::kMuon;
  model.seed = 4242;

  RecastRequest request;
  request.search_name = "DASPOS_EXO_14_001";
  request.requester = "theorist@pheno.example";
  request.model = GeneratorConfigToJson(model);
  request.model_cross_section_pb = xsec_pb;
  request.event_count = events;
  return request;
}

RecastBackEnd MakeBackEnd() {
  RecastBackEnd backend;
  EXPECT_TRUE(backend.RegisterSearch(DileptonResonanceSearch()).ok());
  return backend;
}

// ----------------------------------------------------------------- Search

TEST(SearchTest, ShippedSearchIsWellFormed) {
  PreservedSearch search = DileptonResonanceSearch();
  EXPECT_FALSE(search.name.empty());
  EXPECT_GT(search.luminosity_pb, 0.0);
  ASSERT_EQ(search.regions.size(), 2u);
  for (const SignalRegion& region : search.regions) {
    EXPECT_GE(region.observed, 0.0);
    EXPECT_GT(region.background, 0.0);
    EXPECT_TRUE(static_cast<bool>(region.selection));
  }
}

// ---------------------------------------------------------------- BackEnd

TEST(BackEndTest, RegistrationValidation) {
  RecastBackEnd backend;
  PreservedSearch unnamed = DileptonResonanceSearch();
  unnamed.name.clear();
  EXPECT_TRUE(backend.RegisterSearch(unnamed).IsInvalidArgument());
  PreservedSearch empty = DileptonResonanceSearch();
  empty.regions.clear();
  EXPECT_TRUE(backend.RegisterSearch(empty).IsInvalidArgument());
  ASSERT_TRUE(backend.RegisterSearch(DileptonResonanceSearch()).ok());
  EXPECT_TRUE(backend.RegisterSearch(DileptonResonanceSearch())
                  .IsAlreadyExists());
  EXPECT_EQ(backend.SearchNames().size(), 1u);
}

TEST(BackEndTest, ProcessValidatesRequest) {
  RecastBackEnd backend = MakeBackEnd();
  RecastRequest bad_search = ZPrimeRequest(600.0);
  bad_search.search_name = "NOPE";
  EXPECT_TRUE(backend.Process(bad_search).status().IsNotFound());

  RecastRequest no_xsec = ZPrimeRequest(600.0);
  no_xsec.model_cross_section_pb = 0.0;
  EXPECT_TRUE(backend.Process(no_xsec).status().IsInvalidArgument());

  RecastRequest no_events = ZPrimeRequest(600.0);
  no_events.event_count = 0;
  EXPECT_TRUE(backend.Process(no_events).status().IsInvalidArgument());

  RecastRequest bad_model = ZPrimeRequest(600.0);
  bad_model.model = Json::Object();
  EXPECT_TRUE(backend.Process(bad_model).status().IsInvalidArgument());
}

TEST(BackEndTest, HeavyResonancePopulatesHighMassRegion) {
  RecastBackEnd backend = MakeBackEnd();
  auto result = backend.Process(ZPrimeRequest(1200.0));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->regions.size(), 2u);
  const RegionResult* high = nullptr;
  const RegionResult* low = nullptr;
  for (const RegionResult& region : result->regions) {
    if (region.region == "SR_mll_800") high = &region;
    if (region.region == "SR_mll_400") low = &region;
  }
  ASSERT_NE(high, nullptr);
  ASSERT_NE(low, nullptr);
  // A 1.2 TeV resonance feeds the high-mass region far more than the low.
  EXPECT_GT(high->efficiency, 0.05);
  EXPECT_GT(high->efficiency, low->efficiency);
  EXPECT_GT(high->signal_per_mu, 0.0);
  EXPECT_GT(high->upper_limit_mu, 0.0);
  EXPECT_EQ(backend.events_simulated(), 300u);
}

/// Events each region selected: efficiency x event count, by region name.
std::map<std::string, uint64_t> PassCounts(const RecastResult& result) {
  std::map<std::string, uint64_t> passed;
  for (const RegionResult& region : result.regions) {
    passed[region.region] = static_cast<uint64_t>(std::llround(
        region.efficiency * static_cast<double>(result.events_processed)));
  }
  return passed;
}

// Exact selections of the full chain for a fixed model and seed, so that a
// change in how the back end runs the chain cannot move them unnoticed.
TEST(BackEndTest, PassCountsArePinned) {
  RecastBackEnd backend = MakeBackEnd();
  auto result = backend.Process(ZPrimeRequest(1200.0));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(PassCounts(*result),
            (std::map<std::string, uint64_t>{{"SR_mll_400", 27},
                                             {"SR_mll_800", 161}}));
}

TEST(BackEndTest, MediumResonancePopulatesLowMassRegion) {
  RecastBackEnd backend = MakeBackEnd();
  auto result = backend.Process(ZPrimeRequest(550.0));
  ASSERT_TRUE(result.ok());
  const RegionResult* low = nullptr;
  for (const RegionResult& region : result->regions) {
    if (region.region == "SR_mll_400") low = &region;
  }
  ASSERT_NE(low, nullptr);
  EXPECT_GT(low->efficiency, 0.05);
}

TEST(BackEndTest, LargerCrossSectionExcludedSmallerNot) {
  RecastBackEnd backend = MakeBackEnd();
  auto big = backend.Process(ZPrimeRequest(1000.0, /*xsec_pb=*/0.5));
  auto tiny = backend.Process(ZPrimeRequest(1000.0, /*xsec_pb=*/1e-5));
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(tiny.ok());
  EXPECT_TRUE(big->Excluded());
  EXPECT_FALSE(tiny->Excluded());
  EXPECT_LT(big->BestUpperLimit(), tiny->BestUpperLimit());
}

TEST(BackEndTest, ResultJsonShape) {
  RecastBackEnd backend = MakeBackEnd();
  auto result = backend.Process(ZPrimeRequest(900.0));
  ASSERT_TRUE(result.ok());
  Json json = result->ToJson();
  EXPECT_EQ(json.Get("search").as_string(), "DASPOS_EXO_14_001");
  EXPECT_EQ(json.Get("regions").size(), 2u);
  EXPECT_TRUE(json.Has("excluded_at_nominal"));
}

TEST(BackEndTest, ExpectedLimitsAccompanyObserved) {
  RecastBackEnd backend = MakeBackEnd();
  auto result = backend.Process(ZPrimeRequest(1000.0));
  ASSERT_TRUE(result.ok());
  for (const RegionResult& region : result->regions) {
    if (region.signal_per_mu <= 0.0) continue;
    EXPECT_GT(region.expected_limit_mu, 0.0) << region.region;
    // The preserved counts have mild excesses (24 vs 22.5, 3 vs 2.4), so
    // observed limits are slightly weaker than expected ones.
    EXPECT_GE(region.upper_limit_mu, region.expected_limit_mu * 0.9)
        << region.region;
  }
}

TEST(RequestJsonTest, RequestRoundTrip) {
  RecastRequest request = ZPrimeRequest(900.0, 0.07, 123);
  auto restored = RecastRequest::FromJson(request.ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->search_name, request.search_name);
  EXPECT_EQ(restored->requester, request.requester);
  EXPECT_DOUBLE_EQ(restored->model_cross_section_pb, 0.07);
  EXPECT_EQ(restored->event_count, 123u);
  // The embedded model survives and still drives the generator.
  auto model = GeneratorConfigFromJson(restored->model);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->zprime_mass, 900.0);
}

TEST(RequestJsonTest, RequestValidation) {
  EXPECT_FALSE(RecastRequest::FromJson(Json::Object()).ok());
  Json wrong_api = Json::Object();
  wrong_api["api"] = "something-else";
  EXPECT_FALSE(RecastRequest::FromJson(wrong_api).ok());
}

TEST(RequestJsonTest, ResultRoundTripThroughWire) {
  // Full wire loop: request JSON -> backend -> result JSON -> parse.
  RecastBackEnd backend = MakeBackEnd();
  Json wire_request = ZPrimeRequest(1000.0).ToJson();
  // Re-parse as the server would.
  auto request = RecastRequest::FromJson(wire_request);
  ASSERT_TRUE(request.ok());
  auto result = backend.Process(*request);
  ASSERT_TRUE(result.ok());
  std::string wire_result = result->ToJson().Dump();
  auto parsed_json = Json::Parse(wire_result);
  ASSERT_TRUE(parsed_json.ok());
  auto restored = RecastResult::FromJson(*parsed_json);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->search_name, result->search_name);
  ASSERT_EQ(restored->regions.size(), result->regions.size());
  EXPECT_DOUBLE_EQ(restored->BestUpperLimit(), result->BestUpperLimit());
  EXPECT_EQ(restored->Excluded(), result->Excluded());
}

TEST(BackEndTest, ProcessDatasetReRunsOnNewData) {
  // The §2.4 extension: apply the preserved selections to a new dataset.
  RecastBackEnd backend = MakeBackEnd();

  // Build a small "new data" AOD set: generate the Z' model through the
  // same preserved chain, so some events land in the signal regions.
  PreservedSearch search = DileptonResonanceSearch();
  GeneratorConfig model;
  model.process = Process::kZPrimeToLL;
  model.zprime_mass = 1000.0;
  model.zprime_width = 30.0;
  model.lepton_flavor = pdg::kMuon;
  model.seed = 555;
  EventGenerator generator(model);
  DetectorSimulation simulation(search.sim_config);
  ReconstructionConfig reco_config;
  reco_config.geometry = search.sim_config.geometry;
  reco_config.calib = search.sim_config.calib;
  Reconstructor reconstructor(reco_config);
  std::vector<AodEvent> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(AodEvent::FromReco(
        reconstructor.Reconstruct(simulation.Simulate(generator.Generate(), 1))));
  }
  DatasetInfo info;
  info.tier = DataTier::kAod;
  info.name = "new_data";
  std::string blob = WriteAodDataset(info, events);

  auto counts = backend.ProcessDataset("DASPOS_EXO_14_001", blob);
  ASSERT_TRUE(counts.ok()) << counts.status();
  ASSERT_EQ(counts->size(), 2u);
  uint64_t total_passed = 0;
  for (const auto& region : *counts) {
    EXPECT_GT(region.background, 0.0);
    total_passed += region.passed;
  }
  EXPECT_GT(total_passed, 10u);  // a 1 TeV signal populates the regions

  EXPECT_TRUE(
      backend.ProcessDataset("NOPE", blob).status().IsNotFound());
  EXPECT_FALSE(backend.ProcessDataset("DASPOS_EXO_14_001", "junk").ok());
}

TEST(GridScanTest, ProducesAcceptanceAndLimitGrids) {
  // The §2.3 SUSY-style grid, on the truth bridge for speed semantics are
  // identical across back ends.
  RecastBackEnd backend = MakeBackEnd();
  GridScanConfig config;
  config.mass_lo = 600.0;
  config.mass_hi = 1400.0;
  config.mass_points = 4;
  config.width_frac_lo = 0.02;
  config.width_frac_hi = 0.06;
  config.width_points = 2;
  config.events_per_point = 80;
  config.region = "SR_mll_800";
  config.seed = 77;

  auto scan = ScanZPrimeGrid(&backend, "DASPOS_EXO_14_001", config);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->events_processed, 80u * 4 * 2);
  EXPECT_EQ(scan->efficiency.xaxis().nbins(), 4);
  EXPECT_EQ(scan->efficiency.yaxis().nbins(), 2);

  // Efficiency into the high-mass region rises from threshold.
  double eff_low = scan->efficiency.BinContent(0, 0);   // ~700 GeV
  double eff_high = scan->efficiency.BinContent(3, 0);  // ~1300 GeV
  EXPECT_GT(eff_high, eff_low);
  EXPECT_GT(eff_high, 0.2);
  // Limits are positive where efficiency is nonzero, and tighter (smaller)
  // at higher efficiency.
  double mu_high = scan->upper_limit.BinContent(3, 0);
  EXPECT_GT(mu_high, 0.0);
  if (eff_low > 0.0) {
    EXPECT_LE(mu_high, scan->upper_limit.BinContent(0, 0));
  }
}

// One grid point through the full chain: model seed 77, mass 1 TeV.
TEST(GridScanTest, PointPassCountIsPinned) {
  RecastBackEnd backend = MakeBackEnd();
  GridScanConfig config;
  config.mass_lo = 900.0;
  config.mass_hi = 1100.0;
  config.mass_points = 1;
  config.width_points = 1;
  config.events_per_point = 120;
  config.region = "SR_mll_800";
  config.seed = 77;
  auto scan = ScanZPrimeGrid(&backend, "DASPOS_EXO_14_001", config);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(std::llround(scan->efficiency.BinContent(0, 0) * 120.0), 46);
}

TEST(GridScanTest, Validation) {
  RecastBackEnd backend = MakeBackEnd();
  GridScanConfig config;
  config.region = "";
  EXPECT_TRUE(ScanZPrimeGrid(&backend, "DASPOS_EXO_14_001", config)
                  .status()
                  .IsInvalidArgument());
  config.region = "NOPE";
  config.mass_points = 1;
  config.width_points = 1;
  config.events_per_point = 5;
  EXPECT_TRUE(ScanZPrimeGrid(&backend, "DASPOS_EXO_14_001", config)
                  .status()
                  .IsNotFound());
  config.region = "SR_mll_800";
  config.mass_hi = config.mass_lo;
  EXPECT_TRUE(ScanZPrimeGrid(&backend, "DASPOS_EXO_14_001", config)
                  .status()
                  .IsInvalidArgument());
}

TEST(GridScanTest, GridSurvivesYodaPreservation) {
  // The grid is preservable as a YODA document — the §2.3 "information
  // needed to replicate a new particle search" travelling as plain text.
  RecastBackEnd backend = MakeBackEnd();
  GridScanConfig config;
  config.mass_points = 2;
  config.width_points = 1;
  config.events_per_point = 40;
  config.region = "SR_mll_800";
  auto scan = ScanZPrimeGrid(&backend, "DASPOS_EXO_14_001", config);
  ASSERT_TRUE(scan.ok());

  YodaDocument document;
  document.histos2d.push_back(scan->efficiency);
  document.histos2d.push_back(scan->upper_limit);
  auto restored = ReadYodaDocument(WriteYodaDocument(document));
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->histos2d.size(), 2u);
  EXPECT_DOUBLE_EQ(restored->histos2d[0].BinContent(1, 0),
                   scan->efficiency.BinContent(1, 0));
}

// --------------------------------------------------------------- FrontEnd

TEST(FrontEndTest, FullLifecycleWithApproval) {
  RecastBackEnd backend = MakeBackEnd();
  RecastFrontEnd frontend(&backend);

  EXPECT_EQ(frontend.Catalog().size(), 1u);
  auto id = frontend.Submit(ZPrimeRequest(800.0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*frontend.GetState(*id), RequestState::kQueued);

  // Results are withheld until processed AND approved.
  EXPECT_TRUE(frontend.GetResult(*id).status().IsPermissionDenied());
  ASSERT_TRUE(frontend.ProcessQueue().ok());
  EXPECT_EQ(*frontend.GetState(*id), RequestState::kProcessed);
  EXPECT_TRUE(frontend.GetResult(*id).status().IsPermissionDenied());

  ASSERT_TRUE(frontend.Approve(*id).ok());
  auto result = frontend.GetResult(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->search_name, "DASPOS_EXO_14_001");
}

TEST(FrontEndTest, RejectionWithholdsResult) {
  RecastBackEnd backend = MakeBackEnd();
  RecastFrontEnd frontend(&backend);
  auto id = frontend.Submit(ZPrimeRequest(800.0));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(frontend.ProcessQueue().ok());
  ASSERT_TRUE(frontend.Reject(*id, "request conflicts with ongoing analysis")
                  .ok());
  EXPECT_TRUE(frontend.GetResult(*id).status().IsPermissionDenied());
  auto reason = frontend.GetRejectionReason(*id);
  ASSERT_TRUE(reason.ok());
  EXPECT_NE(reason->find("conflicts"), std::string::npos);
}

TEST(FrontEndTest, SubmitValidation) {
  RecastBackEnd backend = MakeBackEnd();
  RecastFrontEnd frontend(&backend);
  RecastRequest unknown = ZPrimeRequest(800.0);
  unknown.search_name = "NOPE";
  EXPECT_TRUE(frontend.Submit(unknown).status().IsNotFound());
  RecastRequest anonymous = ZPrimeRequest(800.0);
  anonymous.requester.clear();
  EXPECT_TRUE(frontend.Submit(anonymous).status().IsInvalidArgument());
}

TEST(FrontEndTest, ProcessingFailureBecomesRejection) {
  RecastBackEnd backend = MakeBackEnd();
  RecastFrontEnd frontend(&backend);
  RecastRequest bad_model = ZPrimeRequest(800.0);
  bad_model.model = Json::Object();  // unparseable model
  auto id = frontend.Submit(bad_model);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(frontend.ProcessQueue().ok());
  EXPECT_EQ(*frontend.GetState(*id), RequestState::kRejected);
  auto reason = frontend.GetRejectionReason(*id);
  ASSERT_TRUE(reason.ok());
  EXPECT_NE(reason->find("processing failed"), std::string::npos);
}

TEST(FrontEndTest, ApprovalStateMachine) {
  RecastBackEnd backend = MakeBackEnd();
  RecastFrontEnd frontend(&backend);
  auto id = frontend.Submit(ZPrimeRequest(800.0));
  ASSERT_TRUE(id.ok());
  // Cannot approve an unprocessed request.
  EXPECT_TRUE(frontend.Approve(*id).IsFailedPrecondition());
  ASSERT_TRUE(frontend.ProcessQueue().ok());
  ASSERT_TRUE(frontend.Approve(*id).ok());
  // Cannot reject a released result.
  EXPECT_TRUE(frontend.Reject(*id, "too late").IsFailedPrecondition());
  EXPECT_TRUE(frontend.Approve("REQ-999").IsNotFound());
  EXPECT_TRUE(frontend.GetState("REQ-999").status().IsNotFound());
}

TEST(FrontEndTest, MultipleRequestsIndependent) {
  RecastBackEnd backend = MakeBackEnd();
  RecastFrontEnd frontend(&backend);
  auto id1 = frontend.Submit(ZPrimeRequest(600.0, 0.05, 100));
  auto id2 = frontend.Submit(ZPrimeRequest(1200.0, 0.05, 100));
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(*id1, *id2);
  ASSERT_TRUE(frontend.ProcessQueue().ok());
  ASSERT_TRUE(frontend.Approve(*id1).ok());
  EXPECT_TRUE(frontend.GetResult(*id1).ok());
  EXPECT_TRUE(frontend.GetResult(*id2).status().IsPermissionDenied());
  EXPECT_EQ(frontend.RequestIds().size(), 2u);
}

}  // namespace
}  // namespace recast
}  // namespace daspos
