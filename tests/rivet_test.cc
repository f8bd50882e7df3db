// Tests for the RIVET-analog: projections, analysis lifecycle, the
// repository registry, built-in analyses, and reference-data validation.
#include <gtest/gtest.h>

#include <cmath>

#include "event/pdg.h"
#include "hist/yoda_io.h"
#include "mc/generator.h"
#include "rivet/analysis.h"
#include "rivet/projections.h"
#include "rivet/registry.h"

namespace daspos {
namespace rivet {
namespace {

GenEvent ZEvent(uint64_t seed = 1) {
  GeneratorConfig config;
  config.process = Process::kZToLL;
  config.lepton_flavor = pdg::kMuon;
  config.seed = seed;
  EventGenerator generator(config);
  return generator.Generate();
}

// ------------------------------------------------------------- Projections

TEST(ProjectionsTest, FinalStateRespectsCuts) {
  GenEvent event = ZEvent();
  auto all = FinalState(event, Cuts{});
  auto hard = FinalState(event, Cuts{20.0, 2.5});
  EXPECT_GT(all.size(), hard.size());
  for (const GenParticle& particle : hard) {
    EXPECT_GE(particle.momentum.Pt(), 20.0);
    EXPECT_LE(std::fabs(particle.momentum.Eta()), 2.5);
    EXPECT_TRUE(particle.IsFinalState());
  }
}

TEST(ProjectionsTest, ChargedFinalStateExcludesNeutrals) {
  GenEvent event = ZEvent(2);
  for (const GenParticle& particle : ChargedFinalState(event, Cuts{})) {
    EXPECT_GT(std::fabs(pdg::Charge(particle.pdg_id)), 0.3);
  }
}

TEST(ProjectionsTest, IdentifiedFinalState) {
  GenEvent event = ZEvent(3);
  auto muons = IdentifiedFinalState(event, {pdg::kMuon}, Cuts{});
  ASSERT_GE(muons.size(), 2u);
  for (const GenParticle& muon : muons) {
    EXPECT_EQ(std::abs(muon.pdg_id), pdg::kMuon);
  }
}

TEST(ProjectionsTest, FindDileptonReturnsZCandidate) {
  GenEvent event = ZEvent(4);
  auto pair = FindDilepton(event, pdg::kMuon, 91.2, 60.0, 120.0, Cuts{});
  ASSERT_TRUE(pair.has_value());
  EXPECT_GT(pair->mass, 60.0);
  EXPECT_LT(pair->mass, 120.0);
  EXPECT_EQ(pair->lepton_minus.pdg_id, pdg::kMuon);
  EXPECT_EQ(pair->lepton_plus.pdg_id, -pdg::kMuon);
  EXPECT_NEAR(pair->mass, pair->momentum.Mass(), 1e-9);
}

TEST(ProjectionsTest, FindDileptonWrongFlavorEmpty) {
  GenEvent event = ZEvent(5);  // muon channel
  EXPECT_FALSE(
      FindDilepton(event, pdg::kElectron, 91.2, 60.0, 120.0, Cuts{})
          .has_value());
}

TEST(ProjectionsTest, TruthJetsFromDijets) {
  GeneratorConfig config;
  config.process = Process::kQcdDijet;
  config.seed = 6;
  EventGenerator generator(config);
  int events_with_two_jets = 0;
  for (int i = 0; i < 20; ++i) {
    auto jets = TruthJets(generator.Generate(), 0.4, 15.0, Cuts{0.2, 5.0});
    if (jets.size() >= 2) {
      ++events_with_two_jets;
      // pT ordering.
      EXPECT_GE(jets[0].momentum.Pt(), jets[1].momentum.Pt());
      EXPECT_GT(jets[0].constituent_count, 0);
    }
  }
  EXPECT_GT(events_with_two_jets, 10);
}

TEST(ProjectionsTest, TruthJetsExcludeNeutrinos) {
  GenEvent event;
  GenParticle nu;
  nu.pdg_id = pdg::kNuMu;
  nu.status = 1;
  nu.momentum = FourVector::FromPtEtaPhiM(100.0, 0.0, 1.0, 0.0);
  event.particles.push_back(nu);
  EXPECT_TRUE(TruthJets(event, 0.4, 10.0, Cuts{}).empty());
}

// ---------------------------------------------------------------- Registry

TEST(RegistryTest, BuiltinsRegistered) {
  auto names = AnalysisRegistry::Global().Names();
  EXPECT_GE(names.size(), 4u);
  EXPECT_TRUE(AnalysisRegistry::Global().Has("DASPOS_2014_ZLL"));
  EXPECT_TRUE(AnalysisRegistry::Global().Has("DASPOS_2014_DIJET"));
  EXPECT_TRUE(AnalysisRegistry::Global().Has("DASPOS_2014_WASYM"));
  EXPECT_TRUE(AnalysisRegistry::Global().Has("DASPOS_2014_CHARGED"));
}

TEST(RegistryTest, CreateAndErrors) {
  auto analysis = AnalysisRegistry::Global().Create("DASPOS_2014_ZLL");
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ((*analysis)->Name(), "DASPOS_2014_ZLL");
  EXPECT_FALSE((*analysis)->Summary().empty());
  EXPECT_TRUE(
      AnalysisRegistry::Global().Create("NOPE").status().IsNotFound());
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  AnalysisRegistry registry;
  auto factory = [] {
    return AnalysisRegistry::Global().Create("DASPOS_2014_ZLL").value();
  };
  ASSERT_TRUE(registry.Register("X", factory).ok());
  EXPECT_TRUE(registry.Register("X", factory).IsAlreadyExists());
  EXPECT_TRUE(registry.Register("", factory).IsInvalidArgument());
}

TEST(RegistryTest, ValidatedSubmissionFlow) {
  // "Once validated, the analysis 'code' can be included" (§2.3): the
  // submitter provides the analysis and the reference it claims to
  // reproduce; the repository runs it before admitting it.
  GeneratorConfig config;
  config.process = Process::kZToLL;
  config.lepton_flavor = pdg::kMuon;
  config.seed = 313;
  EventGenerator generator(config);
  std::vector<GenEvent> validation_events = generator.GenerateMany(300);

  auto factory = [] {
    return AnalysisRegistry::Global().Create("DASPOS_2014_ZLL").value();
  };
  // Build the honest reference by running the analysis once.
  AnalysisHandler handler;
  handler.Add(factory());
  handler.Run(validation_events);
  std::vector<Histo1D> reference = handler.Finalize();

  AnalysisRegistry repository;
  ASSERT_TRUE(SubmitValidatedAnalysis(&repository, "DASPOS_2014_ZLL",
                                      factory, validation_events, reference)
                  .ok());
  EXPECT_TRUE(repository.Has("DASPOS_2014_ZLL"));

  // A reference the analysis does NOT reproduce is rejected.
  std::vector<Histo1D> wrong_reference = reference;
  for (Histo1D& histogram : wrong_reference) {
    histogram.Scale(1.0);
    for (int i = 0; i < histogram.axis().nbins(); ++i) {
      histogram.SetBin(i, histogram.BinContent(i) + 5.0, 25.0);
    }
  }
  AnalysisRegistry strict;
  auto rejected =
      SubmitValidatedAnalysis(&strict, "DASPOS_2014_ZLL", factory,
                              validation_events, wrong_reference, 0.5);
  EXPECT_TRUE(rejected.IsFailedPrecondition());
  EXPECT_FALSE(strict.Has("DASPOS_2014_ZLL"));
}

TEST(RegistryTest, SubmissionValidation) {
  AnalysisRegistry repository;
  auto factory = [] {
    return AnalysisRegistry::Global().Create("DASPOS_2014_ZLL").value();
  };
  Histo1D reference("/x", 2, 0.0, 1.0);
  EXPECT_TRUE(SubmitValidatedAnalysis(&repository, "DASPOS_2014_ZLL",
                                      factory, {}, {reference})
                  .IsInvalidArgument());
  GenEvent event;
  EXPECT_TRUE(SubmitValidatedAnalysis(&repository, "DASPOS_2014_ZLL",
                                      factory, {event}, {})
                  .IsInvalidArgument());
  // Name mismatch.
  EXPECT_TRUE(SubmitValidatedAnalysis(&repository, "WRONG_NAME", factory,
                                      {event}, {reference})
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------- Handler

std::vector<GenEvent> Sample(Process process, int n, uint64_t seed) {
  GeneratorConfig config;
  config.process = process;
  config.lepton_flavor = pdg::kMuon;
  config.seed = seed;
  EventGenerator generator(config);
  return generator.GenerateMany(static_cast<size_t>(n));
}

TEST(HandlerTest, ZllAnalysisProducesPeak) {
  AnalysisHandler handler;
  handler.Add(AnalysisRegistry::Global().Create("DASPOS_2014_ZLL").value());
  handler.Run(Sample(Process::kZToLL, 800, 7));
  auto histograms = handler.Finalize();
  ASSERT_EQ(histograms.size(), 3u);
  const Histo1D* mass = nullptr;
  for (const Histo1D& histogram : histograms) {
    if (histogram.path() == "/DASPOS_2014_ZLL/mll") mass = &histogram;
  }
  ASSERT_NE(mass, nullptr);
  EXPECT_GT(mass->entries(), 400u);
  EXPECT_NEAR(mass->Mean(), 91.2, 1.0);
  EXPECT_EQ(handler.events_processed(), 800u);
}

TEST(HandlerTest, WAsymmetryPositive) {
  AnalysisHandler handler;
  handler.Add(AnalysisRegistry::Global().Create("DASPOS_2014_WASYM").value());
  handler.Run(Sample(Process::kWToLNu, 3000, 8));
  auto histograms = handler.Finalize();
  const Histo1D* asymmetry = nullptr;
  for (const Histo1D& histogram : histograms) {
    if (histogram.path() == "/DASPOS_2014_WASYM/charge_asymmetry") {
      asymmetry = &histogram;
    }
  }
  ASSERT_NE(asymmetry, nullptr);
  // W+ excess -> positive asymmetry in most bins.
  int positive_bins = 0;
  int filled_bins = 0;
  for (int i = 0; i < asymmetry->axis().nbins(); ++i) {
    if (asymmetry->BinError(i) > 0.0) {
      ++filled_bins;
      if (asymmetry->BinContent(i) > 0.0) ++positive_bins;
    }
  }
  ASSERT_GT(filled_bins, 5);
  EXPECT_GT(positive_bins, filled_bins * 2 / 3);
}

TEST(HandlerTest, MultipleAnalysesShareEvents) {
  AnalysisHandler handler;
  handler.Add(AnalysisRegistry::Global().Create("DASPOS_2014_ZLL").value());
  handler.Add(
      AnalysisRegistry::Global().Create("DASPOS_2014_CHARGED").value());
  handler.Run(Sample(Process::kZToLL, 100, 9));
  auto histograms = handler.Finalize();
  EXPECT_EQ(histograms.size(), 3u + 2u);
  EXPECT_EQ(handler.analysis_count(), 2u);
}

TEST(HandlerTest, DMesonLifetimeObservables) {
  AnalysisHandler handler;
  handler.Add(
      AnalysisRegistry::Global().Create("DASPOS_2014_DMESON").value());
  handler.Run(Sample(Process::kDMeson, 1000, 15));
  auto histograms = handler.Finalize();
  const Histo1D* flight = nullptr;
  const Histo1D* mass = nullptr;
  for (const Histo1D& histogram : histograms) {
    if (histogram.path() == "/DASPOS_2014_DMESON/flight_mm") {
      flight = &histogram;
    }
    if (histogram.path() == "/DASPOS_2014_DMESON/kpi_mass") {
      mass = &histogram;
    }
  }
  ASSERT_NE(flight, nullptr);
  ASSERT_NE(mass, nullptr);
  EXPECT_GT(flight->entries(), 800u);
  // Exponential-ish flight length: mean well above zero.
  EXPECT_GT(flight->Mean(), 0.1);
  // K-pi mass pins the D0.
  EXPECT_NEAR(mass->Mean(), 1.865, 0.01);
}

// -------------------------------------------------------------- Validation

TEST(ValidationTest, SameTuneReproduces) {
  // Produce reference and candidate from different seeds of the same
  // configuration: shape-compatible.
  auto run = [](uint64_t seed) {
    AnalysisHandler handler;
    handler.Add(
        AnalysisRegistry::Global().Create("DASPOS_2014_CHARGED").value());
    handler.Run(Sample(Process::kMinimumBias, 3000, seed));
    return handler.Finalize();
  };
  auto reference = run(10);
  auto candidate = run(11);
  auto validation = CompareToReference(candidate, reference);
  ASSERT_TRUE(validation.ok());
  EXPECT_EQ(validation->histograms_missing, 0);
  EXPECT_EQ(validation->histograms_compared, 2);
  EXPECT_TRUE(validation->Compatible(3.0))
      << "worst chi2/ndof " << validation->worst_reduced_chi2;
}

TEST(ValidationTest, DifferentTuneDetected) {
  auto run = [](double activity, uint64_t seed) {
    GeneratorConfig config;
    config.process = Process::kMinimumBias;
    config.tune_activity = activity;
    config.seed = seed;
    EventGenerator generator(config);
    AnalysisHandler handler;
    handler.Add(
        AnalysisRegistry::Global().Create("DASPOS_2014_CHARGED").value());
    handler.Run(generator.GenerateMany(3000));
    return handler.Finalize();
  };
  auto reference = run(1.0, 12);
  auto candidate = run(2.0, 13);  // double the soft activity
  auto validation = CompareToReference(candidate, reference);
  ASSERT_TRUE(validation.ok());
  EXPECT_FALSE(validation->Compatible(3.0));
}

TEST(ValidationTest, WorstKolmogorovDistanceIsReported) {
  Histo1D reference("/X/obs", 10, 0.0, 1.0);
  Histo1D shifted("/X/obs", 10, 0.0, 1.0);
  Histo1D same("/Y/obs", 10, 0.0, 1.0);
  for (int i = 0; i < 10; ++i) {
    reference.Fill(0.05 + 0.1 * i);
    shifted.Fill(0.05 + 0.1 * (i / 2));
    same.Fill(0.05 + 0.1 * i);
  }
  auto expected = KolmogorovDistance(shifted, reference);
  ASSERT_TRUE(expected.ok());
  EXPECT_GT(*expected, 0.0);
  Histo1D same_reference = same;
  auto validation =
      CompareToReference({shifted, same}, {reference, same_reference});
  ASSERT_TRUE(validation.ok());
  EXPECT_EQ(validation->histograms_compared, 2);
  EXPECT_DOUBLE_EQ(validation->worst_ks, *expected);
  // An empty histogram against a filled reference is as far apart as KS
  // can tell; reproduced empty, it matches.
  Histo1D empty("/X/obs", 10, 0.0, 1.0);
  auto one_empty = CompareToReference({empty}, {reference});
  ASSERT_TRUE(one_empty.ok()) << one_empty.status();
  EXPECT_EQ(one_empty->worst_ks, 1.0);
  EXPECT_EQ(one_empty->histograms_empty_on_one_side, 1);
  EXPECT_FALSE(one_empty->Compatible());
  auto both_empty = CompareToReference({empty}, {empty});
  ASSERT_TRUE(both_empty.ok()) << both_empty.status();
  EXPECT_EQ(both_empty->worst_ks, 0.0);
  EXPECT_EQ(both_empty->histograms_empty_on_one_side, 0);
  EXPECT_TRUE(both_empty->Compatible());
  // Filled histograms sharing no bin are also KS 1 apart, but neither is
  // empty: the chi2 threshold decides them.
  Histo1D low("/X/obs", 10, 0.0, 1.0);
  Histo1D high("/X/obs", 10, 0.0, 1.0);
  low.Fill(0.05);
  high.Fill(0.95);
  auto disjoint = CompareToReference({low}, {high});
  ASSERT_TRUE(disjoint.ok()) << disjoint.status();
  EXPECT_EQ(disjoint->worst_ks, 1.0);
  EXPECT_EQ(disjoint->histograms_empty_on_one_side, 0);
}

/// Each histogram's binning with one entry per bin: a sparse reference
/// that an empty re-run scores a reduced chi2 of about 1 against.
std::vector<Histo1D> OneEntryPerBin(std::vector<Histo1D> histograms) {
  for (Histo1D& histogram : histograms) {
    histogram.Reset();
    for (int i = 0; i < histogram.axis().nbins(); ++i) {
      histogram.Fill(histogram.BinCenter(i));
    }
  }
  return histograms;
}

TEST(RegistryTest, EmptyReRunIsNotAdmitted) {
  // W charge asymmetry over Z events fills nothing.
  GeneratorConfig config;
  config.process = Process::kZToLL;
  config.lepton_flavor = pdg::kMuon;
  config.seed = 313;
  std::vector<GenEvent> events = EventGenerator(config).GenerateMany(100);
  auto factory = [] {
    return AnalysisRegistry::Global().Create("DASPOS_2014_WASYM").value();
  };
  AnalysisHandler handler;
  handler.Add(factory());
  handler.Run(events);
  std::vector<Histo1D> produced = handler.Finalize();
  ASSERT_FALSE(produced.empty());
  for (const Histo1D& histogram : produced) {
    ASSERT_EQ(histogram.Integral(), 0.0) << histogram.path();
  }
  const std::vector<Histo1D> reference = OneEntryPerBin(produced);

  // The chi2 alone would pass this pair; the empty side fails it.
  auto validation = CompareToReference(produced, reference);
  ASSERT_TRUE(validation.ok()) << validation.status();
  EXPECT_LE(validation->worst_reduced_chi2, 3.0);
  EXPECT_EQ(validation->histograms_empty_on_one_side,
            static_cast<int>(produced.size()));
  EXPECT_FALSE(validation->Compatible(3.0));

  AnalysisRegistry repository;
  Status admitted = SubmitValidatedAnalysis(
      &repository, "DASPOS_2014_WASYM", factory, events, reference);
  EXPECT_TRUE(admitted.IsFailedPrecondition()) << admitted;
  EXPECT_FALSE(repository.Has("DASPOS_2014_WASYM"));
}

TEST(ValidationTest, MissingHistogramCounted) {
  Histo1D reference("/X/obs", 10, 0.0, 1.0);
  reference.Fill(0.5);
  auto validation = CompareToReference({}, {reference});
  ASSERT_TRUE(validation.ok());
  EXPECT_EQ(validation->histograms_missing, 1);
  EXPECT_FALSE(validation->Compatible());
}

TEST(ValidationTest, YodaRoundTripPreservesValidation) {
  // Preserved reference written to YODA text and read back must still
  // validate against the original run (the preservation path of §2.3).
  AnalysisHandler handler;
  handler.Add(AnalysisRegistry::Global().Create("DASPOS_2014_ZLL").value());
  handler.Run(Sample(Process::kZToLL, 500, 14));
  auto histograms = handler.Finalize();
  auto restored = ReadYoda(WriteYoda(histograms));
  ASSERT_TRUE(restored.ok());
  auto validation = CompareToReference(histograms, *restored);
  ASSERT_TRUE(validation.ok());
  EXPECT_DOUBLE_EQ(validation->worst_reduced_chi2, 0.0);
  EXPECT_TRUE(validation->Compatible());
}

}  // namespace
}  // namespace rivet
}  // namespace daspos
