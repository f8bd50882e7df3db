// Tests for the DASPOS core: preserved-analysis capture, archive deposit/
// retrieve, re-execution validation, and the RECAST<->RIVET bridge serving
// the shared front end.
#include <gtest/gtest.h>

#include "archive/object_store.h"
#include "core/bridge.h"
#include "core/preserved_analysis.h"
#include "event/pdg.h"
#include "hist/yoda_io.h"
#include "interview/interview.h"
#include "recast/frontend.h"
#include "workflow/steps.h"

namespace daspos {
namespace {

GeneratorConfig ZConfig(uint64_t seed = 101) {
  GeneratorConfig config;
  config.process = Process::kZToLL;
  config.lepton_flavor = pdg::kMuon;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------ PreservedAnalysis

TEST(PreservedAnalysisTest, CaptureStoresReference) {
  auto analysis =
      CaptureAnalysis("zll-lineshape", "DASPOS_2014_ZLL", ZConfig(), 300);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_FALSE(analysis->reference_yoda.empty());
  EXPECT_NE(analysis->reference_yoda.find("BEGIN HISTO1D"),
            std::string::npos);
}

TEST(PreservedAnalysisTest, CaptureUnknownAnalysisFails) {
  EXPECT_TRUE(
      CaptureAnalysis("x", "NOPE", ZConfig(), 10).status().IsNotFound());
}

TEST(PreservedAnalysisTest, ReexecutionIsBitIdentical) {
  auto analysis =
      CaptureAnalysis("zll-lineshape", "DASPOS_2014_ZLL", ZConfig(), 300);
  ASSERT_TRUE(analysis.ok());
  auto report = Reexecute(*analysis);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->validated);
  // Same seed, same generator: exact reproduction.
  EXPECT_DOUBLE_EQ(report->worst_reduced_chi2, 0.0);
  EXPECT_EQ(report->events_generated, 300u);
  EXPECT_EQ(report->histograms_compared, 3);
}

TEST(PreservedAnalysisTest, TamperedReferenceDetected) {
  auto analysis =
      CaptureAnalysis("zll-lineshape", "DASPOS_2014_ZLL", ZConfig(), 300);
  ASSERT_TRUE(analysis.ok());
  // Corrupt the preserved physics: different seed changes the sample.
  analysis->generator_config.seed += 1;
  auto report = Reexecute(*analysis, /*max_reduced_chi2=*/0.0001);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->validated);
  EXPECT_GT(report->worst_reduced_chi2, 0.0);
}

TEST(PreservedAnalysisTest, EmptyReExecutionIsNotValidated) {
  // W charge asymmetry over Z events fills nothing; against a reference
  // with one entry per bin its chi2 is small, but an empty re-run
  // reproduces nothing.
  auto analysis = CaptureAnalysis("wasym-on-z", "DASPOS_2014_WASYM",
                                  ZConfig(), 100);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  auto reference = ReadYoda(analysis->reference_yoda);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (Histo1D& histogram : *reference) {
    ASSERT_EQ(histogram.Integral(), 0.0) << histogram.path();
    for (int i = 0; i < histogram.axis().nbins(); ++i) {
      histogram.Fill(histogram.BinCenter(i));
    }
  }
  analysis->reference_yoda = WriteYoda(*reference);
  auto report = Reexecute(*analysis);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LE(report->worst_reduced_chi2, 3.0);
  EXPECT_FALSE(report->validated);
}

TEST(PreservedAnalysisTest, ArchiveRoundTrip) {
  auto analysis =
      CaptureAnalysis("zll-lineshape", "DASPOS_2014_ZLL", ZConfig(), 200);
  ASSERT_TRUE(analysis.ok());
  analysis->physics_summary = "Z line shape preservation";
  analysis->provenance_json = "[]";
  analysis->conditions_snapshot = "# snapshot\nrun: 1\n";
  analysis->interview = interview::ExampleInterviews()[2].ToJson();

  MemoryObjectStore store;
  Archive archive(&store);
  auto id = DepositAnalysis(&archive, *analysis);
  ASSERT_TRUE(id.ok()) << id.status();

  auto restored = RetrieveAnalysis(archive, *id);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->name, "zll-lineshape");
  EXPECT_EQ(restored->rivet_analysis, "DASPOS_2014_ZLL");
  EXPECT_EQ(restored->event_count, 200u);
  EXPECT_EQ(restored->generator_config.seed, analysis->generator_config.seed);
  EXPECT_EQ(restored->reference_yoda, analysis->reference_yoda);
  EXPECT_EQ(restored->conditions_snapshot, analysis->conditions_snapshot);
  EXPECT_FALSE(restored->interview.is_null());

  // And the retrieved package still re-executes identically: the full
  // preservation loop (capture -> deposit -> retrieve -> re-run).
  auto report = Reexecute(*restored);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->validated);
}

TEST(PreservedAnalysisTest, ForeignPackageRejected) {
  MemoryObjectStore store;
  Archive archive(&store);
  SubmissionPackage foreign;
  foreign.title = "not an analysis";
  foreign.files.push_back({"readme.txt", "text/plain", "hello"});
  auto id = archive.Deposit(foreign);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(RetrieveAnalysis(archive, *id).status().IsCorruption());
}

TEST(SkimSpecJsonTest, FactorySkimsRoundTrip) {
  for (const SkimSpec& original :
       {SkimSpec::All(),
        SkimSpec::RequireObjects(ObjectType::kElectron, 2, 27.5),
        SkimSpec::RequireTrigger(5)}) {
    auto restored = SkimSpec::FromJson(original.ToJson());
    ASSERT_TRUE(restored.ok()) << original.name;
    EXPECT_EQ(restored->name, original.name);
    // Behavioural equality on a probe event.
    AodEvent event;
    PhysicsObject electron;
    electron.type = ObjectType::kElectron;
    electron.momentum = FourVector::FromPtEtaPhiM(30.0, 0.1, 0.2, 0.0);
    event.objects = {electron, electron};
    event.trigger_bits = 5;
    EXPECT_EQ(restored->predicate(event), original.predicate(event));
  }
  // Hand-written skims are not reconstructible.
  SkimSpec handwritten;
  handwritten.predicate = [](const AodEvent&) { return false; };
  handwritten.descriptor = Json();
  EXPECT_TRUE(
      SkimSpec::FromJson(handwritten.ToJson()).status().IsUnimplemented());
}

TEST(SlimSpecJsonTest, RoundTrip) {
  SlimSpec original = SlimSpec::Objects(
      {ObjectType::kJet, ObjectType::kPhoton}, 22.0, "jets_photons");
  auto restored = SlimSpec::FromJson(original.ToJson());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->name, "jets_photons");
  EXPECT_EQ(restored->keep_types, original.keep_types);
  EXPECT_DOUBLE_EQ(restored->min_object_pt, 22.0);
  EXPECT_FALSE(SlimSpec::FromJson(Json::Object()).ok());
}

// ------------------------------------------------------------------ Bridge

recast::RecastRequest BridgeRequest(double mass, size_t events = 400) {
  GeneratorConfig model;
  model.process = Process::kZPrimeToLL;
  model.zprime_mass = mass;
  model.zprime_width = mass * 0.03;
  model.lepton_flavor = pdg::kMuon;
  model.seed = 777;

  recast::RecastRequest request;
  request.search_name = "DASPOS_EXO_14_001_RIVET";
  request.requester = "theorist@pheno.example";
  request.model = GeneratorConfigToJson(model);
  request.model_cross_section_pb = 0.05;
  request.event_count = events;
  return request;
}

TEST(BridgeTest, RegistrationAndValidation) {
  RivetBridgeBackEnd bridge;
  ASSERT_TRUE(bridge.RegisterSearch(DileptonResonanceTruthSearch()).ok());
  EXPECT_TRUE(bridge.RegisterSearch(DileptonResonanceTruthSearch())
                  .IsAlreadyExists());
  BridgedSearch empty;
  empty.name = "X";
  EXPECT_TRUE(bridge.RegisterSearch(empty).IsInvalidArgument());
  EXPECT_EQ(bridge.SearchNames().size(), 1u);
}

TEST(BridgeTest, ProcessesThroughSameFrontEnd) {
  RivetBridgeBackEnd bridge;
  ASSERT_TRUE(bridge.RegisterSearch(DileptonResonanceTruthSearch()).ok());
  recast::RecastFrontEnd frontend(&bridge);

  auto id = frontend.Submit(BridgeRequest(1200.0));
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(frontend.ProcessQueue().ok());
  ASSERT_TRUE(frontend.Approve(*id).ok());
  auto result = frontend.GetResult(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->regions.size(), 2u);
  EXPECT_EQ(bridge.events_generated(), 400u);
}

TEST(BridgeTest, TruthEfficiencyExceedsFullSim) {
  // The E3 structure: truth-level selections see no detector losses, so
  // the bridge efficiency bounds the full-simulation efficiency from
  // above.
  RivetBridgeBackEnd bridge;
  ASSERT_TRUE(bridge.RegisterSearch(DileptonResonanceTruthSearch()).ok());
  recast::RecastBackEnd full_sim;
  ASSERT_TRUE(full_sim.RegisterSearch(recast::DileptonResonanceSearch()).ok());

  recast::RecastRequest truth_request = BridgeRequest(1200.0, 400);
  recast::RecastRequest sim_request = truth_request;
  sim_request.search_name = "DASPOS_EXO_14_001";

  auto truth_result = bridge.Process(truth_request);
  auto sim_result = full_sim.Process(sim_request);
  ASSERT_TRUE(truth_result.ok()) << truth_result.status();
  ASSERT_TRUE(sim_result.ok()) << sim_result.status();

  double truth_eff = 0.0;
  double sim_eff = 0.0;
  for (const auto& region : truth_result->regions) {
    if (region.region == "SR_mll_800") truth_eff = region.efficiency;
  }
  for (const auto& region : sim_result->regions) {
    if (region.region == "SR_mll_800") sim_eff = region.efficiency;
  }
  EXPECT_GT(truth_eff, 0.3);
  EXPECT_GT(sim_eff, 0.0);
  EXPECT_GT(truth_eff, sim_eff);
}

TEST(BridgeTest, RequestValidation) {
  RivetBridgeBackEnd bridge;
  ASSERT_TRUE(bridge.RegisterSearch(DileptonResonanceTruthSearch()).ok());
  recast::RecastRequest unknown = BridgeRequest(800.0);
  unknown.search_name = "NOPE";
  EXPECT_TRUE(bridge.Process(unknown).status().IsNotFound());
  recast::RecastRequest no_xsec = BridgeRequest(800.0);
  no_xsec.model_cross_section_pb = 0.0;
  EXPECT_TRUE(bridge.Process(no_xsec).status().IsInvalidArgument());
}

}  // namespace
}  // namespace daspos
