// Integration tests across the whole stack: the full preservation
// lifecycle on a disk-backed archive ("decades later" reprocessing from a
// conditions snapshot), cross-framework reinterpretation feeding HepData,
// and the outreach pipeline over every dialect.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "archive/archive.h"
#include "archive/object_store.h"
#include "conditions/snapshot.h"
#include "conditions/store.h"
#include "core/bridge.h"
#include "core/preserved_analysis.h"
#include "event/pdg.h"
#include "hepdata/record.h"
#include "interview/interview.h"
#include "level2/dialects.h"
#include "level2/masterclass.h"
#include "lhada/database.h"
#include "recast/frontend.h"
#include "reco/reconstruction.h"
#include "tiers/dataset.h"
#include "workflow/steps.h"

namespace daspos {
namespace {

constexpr char kLhadaDimuon[] =
    "analysis preserved_dimuon\n"
    "object muons\n"
    "  take muon\n"
    "  select pt > 15\n"
    "cut dimuon\n"
    "  select count(muons) >= 2\n";

/// The "experiment era": run everything, preserve everything, deposit on
/// disk. Returns the archive root and ids.
struct PreservationEra {
  std::string root;
  std::string analysis_id;
  std::string data_id;
  uint64_t derived_events = 0;
  std::string lhada_document;
  uint64_t lhada_passed = 0;
};

PreservationEra RunEra() {
  PreservationEra era;
  era.root = (std::filesystem::temp_directory_path() /
              ("daspos_integration_" + std::to_string(::getpid())))
                 .string();

  // Conditions service with a calibrated, misaligned detector.
  ConditionsDb conditions;
  CalibrationSet calib;
  calib.version = 3;
  calib.tracker_phi_offset = 0.002;
  EXPECT_TRUE(conditions.Append(kCalibrationTag, 1, calib.ToPayload()).ok());

  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 1234;
  SimulationConfig sim_config;
  sim_config.seed = 1235;
  sim_config.calib = calib;  // digitize with the same constants

  Workflow workflow;
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<GenerationStep>(gen_config, 80,
                                                            "era_gen"),
                           {}, "era_gen")
                  .ok());
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<SimulationStep>(sim_config, 7,
                                                            "era_raw"),
                           {"era_gen"}, "era_raw")
                  .ok());
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<ReconstructionStep>(
                               sim_config.geometry, "era_reco"),
                           {"era_raw"}, "era_reco")
                  .ok());
  EXPECT_TRUE(workflow
                  .AddStep(std::make_shared<AodReductionStep>("era_aod"),
                           {"era_reco"}, "era_aod")
                  .ok());
  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;
  auto report = workflow.Execute(&context, &provenance);
  EXPECT_TRUE(report.ok()) << report.status();

  // The preserved physics analysis + documentation.
  auto analysis =
      CaptureAnalysis("era-zll", "DASPOS_2014_ZLL", gen_config, 80);
  EXPECT_TRUE(analysis.ok());
  analysis->physics_summary = "era Z->mumu";
  analysis->provenance_json = provenance.Serialize();
  auto snapshot = ConditionsSnapshot::Capture(conditions, 7, {kCalibrationTag});
  EXPECT_TRUE(snapshot.ok());
  analysis->conditions_snapshot = snapshot->Serialize();
  analysis->interview = interview::ExampleInterviews()[1].ToJson();

  // The Les Houches description + its cutflow on the era's AOD.
  lhada::AnalysisDatabase lhada_db;
  auto lhada_name = lhada_db.Submit(kLhadaDimuon);
  EXPECT_TRUE(lhada_name.ok());
  era.lhada_document = *lhada_db.GetDocument(*lhada_name);
  auto description = lhada_db.GetAnalysis(*lhada_name);
  EXPECT_TRUE(description.ok());
  auto aod_events = ReadAodDataset(*context.GetDataset("era_aod"));
  EXPECT_TRUE(aod_events.ok());
  lhada::Cutflow cutflow = description->Run(*aod_events);
  era.lhada_passed = cutflow.passed_counts.back();
  era.derived_events = aod_events->size();

  // Deposit the analysis package and the RAW data on disk.
  FileObjectStore store(era.root);
  Archive archive(&store);
  auto analysis_id = DepositAnalysis(&archive, *analysis);
  EXPECT_TRUE(analysis_id.ok());
  era.analysis_id = *analysis_id;

  SubmissionPackage data_sip;
  data_sip.title = "era RAW + lhada description";
  data_sip.creator = "integration";
  data_sip.files.push_back({"data/era_raw.dspc",
                            "application/x-daspos-container",
                            std::string(*context.GetDataset("era_raw"))});
  data_sip.files.push_back(
      {"analysis/dimuon.lhada", "text/plain", era.lhada_document});
  auto data_id = archive.Deposit(data_sip);
  EXPECT_TRUE(data_id.ok());
  era.data_id = *data_id;
  return era;
}

TEST(IntegrationTest, DecadesLaterReprocessingFromDiskArchive) {
  PreservationEra era = RunEra();

  // ---- decades later: a fresh process, only the archive directory ----
  FileObjectStore store(era.root);
  Archive archive(&store);

  // Re-adopt the long-lived archive and audit everything on disk.
  const ArchiveInventory inventory = ArchiveInventory::Take(store);
  auto recovered = archive.RecoverCatalog(inventory);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 2u);  // analysis package + data package
  FixityReport audit = inventory.Fixity();
  EXPECT_TRUE(audit.clean());
  EXPECT_GT(audit.objects_checked, 4u);

  // 1. Re-execute the preserved physics analysis: bit-identical.
  auto analysis = RetrieveAnalysis(archive, era.analysis_id);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  auto reexecution = Reexecute(*analysis);
  ASSERT_TRUE(reexecution.ok());
  EXPECT_TRUE(reexecution->validated);
  EXPECT_DOUBLE_EQ(reexecution->worst_reduced_chi2, 0.0);

  // 2. Reprocess the preserved RAW data using ONLY the conditions snapshot
  //    (no conditions database service exists anymore).
  auto data_package = archive.Retrieve(era.data_id);
  ASSERT_TRUE(data_package.ok());
  std::string raw_blob;
  std::string lhada_document;
  for (const PackageFile& file : data_package->content.files) {
    if (file.logical_name == "data/era_raw.dspc") raw_blob = file.bytes;
    if (file.logical_name == "analysis/dimuon.lhada") {
      lhada_document = file.bytes;
    }
  }
  ASSERT_FALSE(raw_blob.empty());
  ASSERT_FALSE(lhada_document.empty());

  auto snapshot = ConditionsSnapshot::Parse(analysis->conditions_snapshot);
  ASSERT_TRUE(snapshot.ok());
  auto payload = snapshot->GetPayload(kCalibrationTag, 7);
  ASSERT_TRUE(payload.ok());
  auto calib = CalibrationSet::FromPayload(*payload);
  ASSERT_TRUE(calib.ok());
  EXPECT_EQ(calib->version, 3u);
  EXPECT_DOUBLE_EQ(calib->tracker_phi_offset, 0.002);

  auto raw_events = ReadRawDataset(raw_blob);
  ASSERT_TRUE(raw_events.ok());
  SimulationConfig default_geometry;
  ReconstructionConfig reco_config;
  reco_config.geometry = default_geometry.geometry;
  reco_config.calib = *calib;
  Reconstructor reconstructor(reco_config);
  std::vector<AodEvent> reprocessed;
  for (const RawEvent& raw : *raw_events) {
    reprocessed.push_back(AodEvent::FromReco(reconstructor.Reconstruct(raw)));
  }
  EXPECT_EQ(reprocessed.size(), era.derived_events);

  // 3. Run the preserved Les Houches description on the reprocessed data:
  //    identical cutflow (deterministic chain + same constants).
  auto description = lhada::AnalysisDescription::Parse(lhada_document);
  ASSERT_TRUE(description.ok());
  lhada::Cutflow cutflow = description->Run(reprocessed);
  EXPECT_EQ(cutflow.passed_counts.back(), era.lhada_passed);

  std::filesystem::remove_all(era.root);
}

TEST(IntegrationTest, ReinterpretationResultsFlowIntoHepData) {
  // RECAST result -> HepData record with the limit table, linked from an
  // INSPIRE id, searchable — the §2.3 information flow end-to-end.
  recast::RecastBackEnd backend;
  ASSERT_TRUE(
      backend.RegisterSearch(recast::DileptonResonanceSearch()).ok());
  recast::RecastFrontEnd frontend(&backend);

  Histo1D limits("/limits/zprime", 3, 700.0, 1300.0);
  int bin = 0;
  for (double mass : {800.0, 1000.0, 1200.0}) {
    GeneratorConfig model;
    model.process = Process::kZPrimeToLL;
    model.zprime_mass = mass;
    model.zprime_width = 0.03 * mass;
    model.lepton_flavor = pdg::kMuon;
    model.seed = 999;
    recast::RecastRequest request;
    request.search_name = "DASPOS_EXO_14_001";
    request.requester = "integration";
    request.model = GeneratorConfigToJson(model);
    request.model_cross_section_pb = 0.05;
    request.event_count = 150;
    auto id = frontend.Submit(request);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(frontend.ProcessQueue().ok());
    ASSERT_TRUE(frontend.Approve(*id).ok());
    auto result = frontend.GetResult(*id);
    ASSERT_TRUE(result.ok());
    limits.SetBin(bin++, result->BestUpperLimit(), 0.0);
  }

  hepdata::HepDataArchive hepdata_archive;
  hepdata::HepDataRecord record;
  record.id = "ins_recast_zprime";
  record.title = "Upper limits on Z' production from RECAST";
  record.experiment = "DASPOS";
  record.year = 2014;
  record.reaction = "P P --> Z' < MU+ MU- > X";
  record.keywords = {"upper limit", "reinterpretation"};
  record.tables.push_back(hepdata::DataTable::FromHistogram(
      limits, "mu95 vs mass", "m(Z') [GeV]", "95% CL limit on mu"));
  ASSERT_TRUE(hepdata_archive.Submit(record).ok());
  ASSERT_TRUE(
      hepdata_archive.LinkInspire("1300000", "ins_recast_zprime").ok());
  EXPECT_EQ(hepdata_archive.Search("reinterpretation").size(), 1u);
  auto restored = hepdata_archive.Get("ins_recast_zprime");
  ASSERT_TRUE(restored.ok());
  auto table = restored->tables[0].ToHistogram("/restored");
  ASSERT_TRUE(table.ok());
  // Limits are positive and finite.
  for (int i = 0; i < 3; ++i) EXPECT_GT(table->BinContent(i), 0.0);
}

TEST(IntegrationTest, OutreachPipelineIsDialectInvariant) {
  // The same Z sample routed through all four dialects gives the exact
  // same master-class measurement — the common-format promise of §2.1.
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 777;
  EventGenerator generator(gen_config);
  SimulationConfig sim_config;
  sim_config.seed = 778;
  DetectorSimulation simulation(sim_config);
  ReconstructionConfig reco_config;
  reco_config.geometry = sim_config.geometry;
  reco_config.calib = sim_config.calib;
  Reconstructor reconstructor(reco_config);

  std::vector<level2::CommonEvent> events;
  for (int i = 0; i < 250; ++i) {
    events.push_back(level2::CommonEvent::FromReco(
        reconstructor.Reconstruct(simulation.Simulate(generator.Generate(), 1))));
  }
  auto baseline = level2::ZMassExercise(events);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  for (Experiment experiment : kAllExperiments) {
    std::vector<level2::CommonEvent> converted;
    for (const level2::CommonEvent& event : events) {
      std::string encoded = level2::CodecFor(experiment).Encode(event);
      auto decoded = level2::CodecFor(experiment).Decode(encoded);
      ASSERT_TRUE(decoded.ok());
      converted.push_back(*decoded);
    }
    auto result = level2::ZMassExercise(converted);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->measured, baseline->measured)
        << "dialect " << ExperimentName(experiment);
  }
}

}  // namespace
}  // namespace daspos
