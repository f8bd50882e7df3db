// Tests for reconstruction: track finding (efficiency, charge, momentum
// resolution), calorimeter clustering, candidate building, and the
// end-to-end physics sanity of the full gen -> sim -> reco chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "detsim/simulation.h"
#include "event/pdg.h"
#include "hist/histo1d.h"
#include "mc/generator.h"
#include "reco/clustering.h"
#include "reco/reconstruction.h"
#include "reco/tracking.h"
#include "serialize/binary.h"
#include "serialize/json.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "support/threadpool.h"
#include "toolchain_fingerprint.h"

namespace daspos {
namespace {

SimulationConfig QuietSim() {
  SimulationConfig config;
  config.seed = 31;
  config.noise_cells_mean = 0.0;
  return config;
}

GenEvent SingleParticle(int pdg_id, double pt, double eta, double phi,
                        uint64_t event_number = 1) {
  GenEvent truth;
  truth.event_number = event_number;
  GenParticle particle;
  particle.pdg_id = pdg_id;
  particle.status = 1;
  particle.momentum = FourVector::FromPtEtaPhiM(pt, eta, phi,
                                                pdg::Mass(pdg_id));
  truth.particles.push_back(particle);
  return truth;
}

// ---------------------------------------------------------------- Tracking

TEST(TrackingTest, SingleMuonReconstructs) {
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  TrackFinder finder(sim_config.geometry, sim_config.calib);

  int found = 0;
  double sum_rel_dpt = 0.0;
  int charge_correct = 0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    double pt = 10.0 + i * 0.5;
    GenEvent truth = SingleParticle(pdg::kMuon, pt, 0.3, 1.0, 100 + static_cast<uint64_t>(i));
    RawEvent raw = sim.Simulate(truth, 1);
    auto tracks = finder.FindTracks(raw);
    if (tracks.empty()) continue;
    ++found;
    const Track& track = tracks.front();
    sum_rel_dpt += std::fabs(track.momentum.Pt() - pt) / pt;
    if (track.charge == -1) ++charge_correct;  // mu- bends one way
  }
  EXPECT_GT(found, 90);
  EXPECT_LT(sum_rel_dpt / found, 0.10);          // few-% pt resolution
  EXPECT_GT(charge_correct, found * 9 / 10);     // charge from bend sign
}

TEST(TrackingTest, OppositeChargesBendOppositely) {
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  TrackFinder finder(sim_config.geometry, sim_config.calib);

  GenEvent plus = SingleParticle(-pdg::kMuon, 30.0, 0.5, 0.0, 11);
  GenEvent minus = SingleParticle(pdg::kMuon, 30.0, 0.5, 0.0, 12);
  auto t_plus = finder.FindTracks(sim.Simulate(plus, 1));
  auto t_minus = finder.FindTracks(sim.Simulate(minus, 1));
  ASSERT_FALSE(t_plus.empty());
  ASSERT_FALSE(t_minus.empty());
  EXPECT_EQ(t_plus.front().charge, 1);
  EXPECT_EQ(t_minus.front().charge, -1);
}

TEST(TrackingTest, NeutralParticleLeavesNoTrack) {
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  TrackFinder finder(sim_config.geometry, sim_config.calib);
  GenEvent truth = SingleParticle(pdg::kPhoton, 50.0, 0.0, 0.5, 13);
  EXPECT_TRUE(finder.FindTracks(sim.Simulate(truth, 1)).empty());
}

TEST(TrackingTest, WrongAlignmentConstantsDegradeResolution) {
  // Simulate with a misaligned detector; reconstruct once with the matching
  // constants and once with defaults. §3.2's conditions dependency.
  SimulationConfig sim_config = QuietSim();
  sim_config.calib.tracker_phi_offset = 0.004;
  DetectorSimulation sim(sim_config);

  CalibrationSet right = sim_config.calib;
  CalibrationSet wrong = sim_config.calib;
  wrong.tracker_phi_offset = 0.0;

  TrackFinder with_right(sim_config.geometry, right);
  TrackFinder with_wrong(sim_config.geometry, wrong);

  double err_right = 0.0;
  double err_wrong = 0.0;
  int n_right = 0;
  int n_wrong = 0;
  for (int i = 0; i < 50; ++i) {
    GenEvent truth = SingleParticle(pdg::kMuon, 25.0, 0.2, 0.8, 200 + static_cast<uint64_t>(i));
    RawEvent raw = sim.Simulate(truth, 1);
    auto tr = with_right.FindTracks(raw);
    auto tw = with_wrong.FindTracks(raw);
    if (!tr.empty()) {
      err_right += std::fabs(tr.front().momentum.Phi() - 0.8);
      ++n_right;
    }
    if (!tw.empty()) {
      err_wrong += std::fabs(tw.front().momentum.Phi() - 0.8);
      ++n_wrong;
    }
  }
  ASSERT_GT(n_right, 0);
  ASSERT_GT(n_wrong, 0);
  // The wrong constants shift phi0 by about the misalignment.
  EXPECT_LT(err_right / n_right, 0.002);
  EXPECT_GT(err_wrong / n_wrong, 0.003);
}

TEST(TrackingTest, DisplacedTrackHasLargerD0) {
  SimulationConfig sim_config = QuietSim();
  sim_config.geometry.tracker_hit_efficiency = 1.0;
  DetectorSimulation sim(sim_config);
  TrackFinder finder(sim_config.geometry, sim_config.calib);

  auto event_with_displacement = [&](double vertex_mm, uint64_t num) {
    GenEvent truth;
    truth.event_number = num;
    GenParticle mother;
    mother.pdg_id = pdg::kD0;
    mother.status = 2;
    mother.momentum = FourVector(6.0, 0.0, 0.0, std::sqrt(36.0 + 3.48));
    truth.particles.push_back(mother);
    GenParticle pi;
    pi.pdg_id = pdg::kPiPlus;
    pi.status = 1;
    pi.mother = 0;
    pi.momentum = FourVector::FromPtEtaPhiM(4.0, 0.0, 0.4, 0.14);
    pi.vertex_mm = vertex_mm;
    truth.particles.push_back(pi);
    return truth;
  };

  double sum_d0_prompt = 0.0;
  double sum_d0_displaced = 0.0;
  int n = 0;
  for (int i = 0; i < 40; ++i) {
    auto tp = finder.FindTracks(
        sim.Simulate(event_with_displacement(0.0, 300 + static_cast<uint64_t>(i)), 1));
    auto td = finder.FindTracks(
        sim.Simulate(event_with_displacement(4.0, 400 + static_cast<uint64_t>(i)), 1));
    if (tp.empty() || td.empty()) continue;
    sum_d0_prompt += std::fabs(tp.front().d0_mm);
    sum_d0_displaced += std::fabs(td.front().d0_mm);
    ++n;
  }
  ASSERT_GT(n, 20);
  EXPECT_GT(sum_d0_displaced / n, 2.0 * (sum_d0_prompt / n));
}

// -------------------------------------------------------------- Clustering

TEST(ClusteringTest, PhotonMakesEmRichCluster) {
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  CaloClusterer clusterer(sim_config.geometry, sim_config.calib);

  GenEvent truth = SingleParticle(pdg::kPhoton, 60.0, 0.3, -0.5, 21);
  auto clusters = clusterer.Cluster(sim.Simulate(truth, 1));
  ASSERT_FALSE(clusters.empty());
  const CaloCluster& leading = clusters.front();
  EXPECT_NEAR(leading.energy, truth.particles[0].momentum.e(),
              0.25 * truth.particles[0].momentum.e());
  EXPECT_GT(leading.em_fraction, 0.9);
  EXPECT_NEAR(leading.eta, 0.3, 0.1);
}

TEST(ClusteringTest, ChargedPionMakesHadronicCluster) {
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  CaloClusterer clusterer(sim_config.geometry, sim_config.calib);

  GenEvent truth = SingleParticle(pdg::kPiPlus, 40.0, -0.4, 2.0, 22);
  auto clusters = clusterer.Cluster(sim.Simulate(truth, 1));
  ASSERT_FALSE(clusters.empty());
  EXPECT_LT(clusters.front().em_fraction, 0.5);
}

TEST(ClusteringTest, TwoSeparatedPhotonsMakeTwoClusters) {
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  CaloClusterer clusterer(sim_config.geometry, sim_config.calib);

  GenEvent truth;
  truth.event_number = 23;
  for (double phi : {0.0, 3.0}) {
    GenParticle gamma;
    gamma.pdg_id = pdg::kPhoton;
    gamma.status = 1;
    gamma.momentum = FourVector::FromPtEtaPhiM(40.0, 0.0, phi, 0.0);
    truth.particles.push_back(gamma);
  }
  auto clusters = clusterer.Cluster(sim.Simulate(truth, 1));
  int energetic = 0;
  for (const CaloCluster& c : clusters) {
    if (c.energy > 20.0) ++energetic;
  }
  EXPECT_EQ(energetic, 2);
}

TEST(ClusteringTest, MuonSegmentsRequireTwoLayers) {
  SimulationConfig sim_config = QuietSim();
  sim_config.geometry.muon_hit_efficiency = 1.0;
  DetectorSimulation sim(sim_config);
  CaloClusterer clusterer(sim_config.geometry, sim_config.calib);

  GenEvent truth = SingleParticle(pdg::kMuon, 30.0, 0.6, 0.2, 24);
  auto segments = clusterer.MuonSegments(sim.Simulate(truth, 1));
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].layer_count, sim_config.geometry.muon_layers);
  EXPECT_NEAR(segments[0].eta, 0.6, 0.1);
}

// ---------------------------------------------------------- Reconstruction

ReconstructionConfig MatchingReco(const SimulationConfig& sim_config) {
  ReconstructionConfig config;
  config.geometry = sim_config.geometry;
  config.calib = sim_config.calib;
  return config;
}

TEST(ReconstructionTest, ZToMuMuMassPeak) {
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 41;
  EventGenerator gen(gen_config);

  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  Reconstructor reco(MatchingReco(sim_config));

  Histo1D mass("/reco_mll", 40, 71.0, 111.0);
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    RecoEvent event = reco.Reconstruct(sim.Simulate(gen.Generate(), 1));
    std::vector<const PhysicsObject*> muons;
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == ObjectType::kMuon) muons.push_back(&obj);
    }
    if (muons.size() < 2) continue;
    if (muons[0]->charge * muons[1]->charge != -1) continue;
    mass.Fill(InvariantMass(muons[0]->momentum, muons[1]->momentum));
  }
  // Acceptance x efficiency leaves a solid fraction of dimuon events, and
  // the peak sits at the Z pole within resolution.
  EXPECT_GT(mass.entries(), static_cast<uint64_t>(n / 4));
  EXPECT_NEAR(mass.Mean(), 91.2, 3.0);
}

TEST(ReconstructionTest, HiggsPhotonPairReconstructs) {
  GeneratorConfig gen_config;
  gen_config.process = Process::kHiggsToGammaGamma;
  gen_config.seed = 42;
  EventGenerator gen(gen_config);

  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  Reconstructor reco(MatchingReco(sim_config));

  Histo1D mass("/reco_mgg", 40, 105.0, 145.0);
  for (int i = 0; i < 300; ++i) {
    RecoEvent event = reco.Reconstruct(sim.Simulate(gen.Generate(), 1));
    std::vector<const PhysicsObject*> photons;
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == ObjectType::kPhoton && obj.momentum.Pt() > 20.0) {
        photons.push_back(&obj);
      }
    }
    if (photons.size() < 2) continue;
    mass.Fill(InvariantMass(photons[0]->momentum, photons[1]->momentum));
  }
  EXPECT_GT(mass.entries(), 50u);
  EXPECT_NEAR(mass.Mean(), 125.25, 4.0);
  // Detector resolution dominates: reconstructed width >> natural 4 MeV.
  EXPECT_GT(mass.StdDev(), 0.5);
}

TEST(ReconstructionTest, DijetEventYieldsJets) {
  GeneratorConfig gen_config;
  gen_config.process = Process::kQcdDijet;
  gen_config.seed = 43;
  EventGenerator gen(gen_config);

  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  Reconstructor reco(MatchingReco(sim_config));

  int events_with_jets = 0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    RecoEvent event = reco.Reconstruct(sim.Simulate(gen.Generate(), 1));
    int jets = 0;
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == ObjectType::kJet) ++jets;
    }
    if (jets >= 1) ++events_with_jets;
  }
  EXPECT_GT(events_with_jets, n / 2);
}

TEST(ReconstructionTest, WEventHasMet) {
  GeneratorConfig gen_config;
  gen_config.process = Process::kWToLNu;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.seed = 44;
  EventGenerator gen(gen_config);

  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  Reconstructor reco(MatchingReco(sim_config));

  double sum_met_w = 0.0;
  int n_w = 0;
  for (int i = 0; i < 100; ++i) {
    RecoEvent event = reco.Reconstruct(sim.Simulate(gen.Generate(), 1));
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == ObjectType::kMet) {
        sum_met_w += obj.momentum.Pt();
        ++n_w;
      }
    }
  }
  ASSERT_GT(n_w, 0);
  // The escaping neutrino produces sizable MET on average.
  EXPECT_GT(sum_met_w / n_w, 15.0);
}

TEST(ReconstructionTest, EveryEventHasExactlyOneMet) {
  GeneratorConfig gen_config;
  gen_config.process = Process::kMinimumBias;
  EventGenerator gen(gen_config);
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  Reconstructor reco(MatchingReco(sim_config));
  for (int i = 0; i < 20; ++i) {
    RecoEvent event = reco.Reconstruct(sim.Simulate(gen.Generate(), 1));
    int met = 0;
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == ObjectType::kMet) ++met;
    }
    EXPECT_EQ(met, 1);
  }
}

TEST(ReconstructionTest, ElectronGetsChargeAndIsolation) {
  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  Reconstructor reco(MatchingReco(sim_config));

  GenEvent truth = SingleParticle(pdg::kElectron, 45.0, 0.1, 0.3, 51);
  RecoEvent event = reco.Reconstruct(sim.Simulate(truth, 1));
  const PhysicsObject* electron = nullptr;
  for (const PhysicsObject& obj : event.objects) {
    if (obj.type == ObjectType::kElectron) electron = &obj;
  }
  ASSERT_NE(electron, nullptr);
  EXPECT_EQ(electron->charge, -1);
  EXPECT_LT(electron->isolation, 1.0);  // nothing else in the event
  EXPECT_NEAR(electron->momentum.e(), 45.0 * std::cosh(0.1), 10.0);
}

TEST(ReconstructionTest, PileupRaisesVertexCount) {
  GeneratorConfig no_pu;
  no_pu.process = Process::kZToLL;
  no_pu.seed = 45;
  GeneratorConfig with_pu = no_pu;
  with_pu.pileup_mean = 30.0;

  SimulationConfig sim_config = QuietSim();
  DetectorSimulation sim(sim_config);
  Reconstructor reco(MatchingReco(sim_config));

  EventGenerator g0(no_pu);
  EventGenerator g30(with_pu);
  int v0 = 0;
  int v30 = 0;
  for (int i = 0; i < 20; ++i) {
    v0 += reco.Reconstruct(sim.Simulate(g0.Generate(), 1)).vertex_count;
    v30 += reco.Reconstruct(sim.Simulate(g30.Generate(), 1)).vertex_count;
  }
  EXPECT_GT(v30, 2 * v0);
}

// ------------------------------------------------------------------- Pins
//
// SHA-256 of the serialized RecoEvents (plus the muon segments, which only
// reach a RecoEvent through a track match) for hand-built raw events that
// reach the corners of clustering and tracking, for random raw events with
// channels over the whole uint32 range (the RAW decoder accepts any
// channel), and for pileup-20 physics through ReconstructAll at 1 and 4
// threads. A rewrite of reco that changes a summation order, a tie order or
// an iteration order moves one of these digests. Reconstruction calls libm,
// so the pins hold on the golden manifest's toolchain and skip elsewhere,
// printing the digest they computed.

/// True when this build's toolchain is the one the golden manifest records.
bool OnPinnedToolchain() {
  auto text = ReadFileToString(std::string(DASPOS_GOLDEN_DIR) +
                               "/chain_z_ll_50_seed7.json");
  if (!text.ok()) return false;
  auto manifest = Json::Parse(*text);
  return manifest.ok() && ToolchainFingerprint() == manifest->Get("toolchain");
}

void SerializeSegments(const std::vector<MuonSegment>& segments,
                       BinaryWriter* writer) {
  writer->PutVarint(segments.size());
  for (const MuonSegment& segment : segments) {
    writer->PutDouble(segment.eta);
    writer->PutDouble(segment.phi);
    writer->PutSVarint(segment.layer_count);
  }
}

/// Digest of each event's RecoEvent followed by its muon segments.
std::string PinDigest(const ReconstructionConfig& config,
                      const std::vector<RawEvent>& raw) {
  Reconstructor reco(config);
  CaloClusterer clusterer(config.geometry, config.calib, config.clustering);
  BinaryWriter writer;
  for (const RawEvent& event : raw) {
    EncodeRecord(reco.Reconstruct(event), &writer);
    SerializeSegments(clusterer.MuonSegments(event), &writer);
  }
  return Sha256::HashHex(writer.buffer());
}

RawHit Hit(SubDetector detector, uint32_t channel, uint16_t adc) {
  RawHit hit;
  hit.detector = detector;
  hit.channel = channel;
  hit.adc = adc;
  return hit;
}

RawEvent EventOf(uint64_t number, std::vector<RawHit> hits) {
  RawEvent raw;
  raw.run_number = 1;
  raw.event_number = number;
  raw.hits = std::move(hits);
  return raw;
}

/// A simulated single muon (tracker, calorimeter and chamber hits), the base
/// of the tracking and muon-tower cases.
RawEvent SimulatedMuon() {
  DetectorSimulation sim(QuietSim());
  return sim.Simulate(SingleParticle(pdg::kMuon, 40.0, 0.3, 1.0, 61), 1);
}

/// `raw` keeping only the muon-chamber hits on the given layers.
RawEvent KeepMuonLayers(RawEvent raw, const DetectorGeometry& geometry,
                        std::vector<int> layers) {
  std::vector<RawHit> kept;
  for (const RawHit& hit : raw.hits) {
    if (hit.detector == SubDetector::kMuon) {
      int layer, eta_cell, phi_cell;
      geometry.DecodeMuonChannel(hit.channel, &layer, &eta_cell, &phi_cell);
      if (std::find(layers.begin(), layers.end(), layer) == layers.end()) {
        continue;
      }
    }
    kept.push_back(hit);
  }
  raw.hits = std::move(kept);
  return raw;
}

struct PinCase {
  const char* name;
  RawEvent raw;
  const char* sha256;
};

std::vector<PinCase> HandBuiltCases(const DetectorGeometry& g) {
  using D = SubDetector;
  const int ecal_last_phi = g.ecal_phi_cells - 1;
  const int hcal_last_phi = g.hcal_phi_cells - 1;
  std::vector<PinCase> cases;

  // Several hits per cell, interleaved across cells and calorimeters: the
  // per-cell sums depend on the order the hits are added in.
  cases.push_back({"duplicate_calo_channels",
                   EventOf(1, {Hit(D::kEcal, g.EcalChannel(50, 10), 100),
                               Hit(D::kHcal, g.HcalChannel(30, 5), 40),
                               Hit(D::kEcal, g.EcalChannel(50, 11), 61),
                               Hit(D::kEcal, g.EcalChannel(50, 10), 37),
                               Hit(D::kHcal, g.HcalChannel(30, 6), 29),
                               Hit(D::kEcal, g.EcalChannel(50, 11), 3),
                               Hit(D::kHcal, g.HcalChannel(30, 5), 33),
                               Hit(D::kEcal, g.EcalChannel(50, 10), 211),
                               Hit(D::kEcal, g.EcalChannel(51, 10), 7),
                               Hit(D::kHcal, g.HcalChannel(30, 5), 1),
                               Hit(D::kEcal, g.EcalChannel(50, 11), 19)}),
       "640d15c80b353153d0ea4bb6cd1ee9af907c043a51a40f7b9096798460687915"});

  // Equal-energy cells, adjacent and apart: the seed order among ties
  // decides which cell absorbs which.
  cases.push_back({"equal_energy_cells",
                   EventOf(2, {Hit(D::kEcal, g.EcalChannel(20, 31), 80),
                               Hit(D::kEcal, g.EcalChannel(20, 30), 80),
                               Hit(D::kEcal, g.EcalChannel(22, 30), 80),
                               Hit(D::kEcal, g.EcalChannel(21, 32), 80),
                               Hit(D::kEcal, g.EcalChannel(40, 102), 80),
                               Hit(D::kEcal, g.EcalChannel(40, 100), 80),
                               Hit(D::kHcal, g.HcalChannel(10, 11), 50),
                               Hit(D::kHcal, g.HcalChannel(10, 10), 50),
                               Hit(D::kHcal, g.HcalChannel(12, 10), 50),
                               Hit(D::kHcal, g.HcalChannel(11, 12), 50)}),
       "0160cc5dd4a6318fc168fb7864ca04dd17e86936b4f6d386ebd6804470a76507"});

  // 3x3 neighbourhoods that wrap in phi, from cell 0 and from the last cell.
  cases.push_back(
      {"phi_wrap_neighbours",
       EventOf(3, {Hit(D::kEcal, g.EcalChannel(60, 0), 200),
                   Hit(D::kEcal, g.EcalChannel(60, ecal_last_phi), 90),
                   Hit(D::kEcal, g.EcalChannel(61, ecal_last_phi), 40),
                   Hit(D::kEcal, g.EcalChannel(70, ecal_last_phi), 300),
                   Hit(D::kEcal, g.EcalChannel(70, 0), 50),
                   Hit(D::kEcal, g.EcalChannel(69, 0), 20),
                   Hit(D::kHcal, g.HcalChannel(20, 0), 100),
                   Hit(D::kHcal, g.HcalChannel(20, hcal_last_phi), 60),
                   Hit(D::kHcal, g.HcalChannel(21, 1), 30)}),
       "a0c41ff912e1e228149082e544f3c3f418a0e4907dd15006c13c11281bc742c2"});

  // The first and last eta rows, and channels past eta_cells x phi_cells
  // (they decode to eta cells beyond the grid), up to the largest uint32.
  cases.push_back(
      {"eta_edges_and_channels_beyond_grid",
       EventOf(4, {Hit(D::kEcal, g.EcalChannel(0, 5), 150),
                   Hit(D::kEcal, g.EcalChannel(0, 6), 60),
                   Hit(D::kEcal, g.EcalChannel(1, 5), 10),
                   Hit(D::kEcal, g.EcalChannel(g.ecal_eta_cells - 1, 7), 150),
                   Hit(D::kEcal, g.EcalChannel(g.ecal_eta_cells - 1, 0), 70),
                   Hit(D::kEcal, g.EcalChannel(g.ecal_eta_cells, 0), 120),
                   Hit(D::kEcal, g.EcalChannel(g.ecal_eta_cells, 1), 30),
                   Hit(D::kEcal, 0xFFFFFFFFu, 500),
                   Hit(D::kEcal, 0xFFFFFFFFu - g.EcalChannel(1, 0), 90),
                   Hit(D::kEcal, 0xFFFFFFFFu - 1, 45),
                   Hit(D::kHcal, g.HcalChannel(0, 0), 80),
                   Hit(D::kHcal, g.HcalChannel(g.hcal_eta_cells - 1,
                                               hcal_last_phi), 80),
                   Hit(D::kHcal, g.HcalChannel(g.hcal_eta_cells, 0), 90),
                   Hit(D::kHcal, g.HcalChannel(g.hcal_eta_cells, hcal_last_phi),
                       25),
                   Hit(D::kHcal, 0xFFFFFFFEu, 70)}),
       "d65cdb1b0e5b06a7162ebe57f6049e71e29ee6ecccac93bc10995b8426812139"});

  // A real track's road with a second hit on one layer (the closer one to
  // the prediction wins), a hit on a layer past tracker_layers in the same
  // road, and the largest tracker channel.
  RawEvent road = SimulatedMuon();
  int layer3_eta = -1;
  int layer3_phi = -1;
  for (const RawHit& hit : road.hits) {
    if (hit.detector != SubDetector::kTracker) continue;
    int layer, eta_cell, phi_cell;
    g.DecodeTrackerChannel(hit.channel, &layer, &eta_cell, &phi_cell);
    if (layer == 3) {
      layer3_eta = eta_cell;
      layer3_phi = phi_cell;
    }
  }
  road.hits.push_back(
      Hit(D::kTracker, g.TrackerChannel(3, layer3_eta, layer3_phi + 2), 9));
  road.hits.push_back(Hit(D::kTracker,
                          g.TrackerChannel(g.tracker_layers + 2, layer3_eta,
                                           layer3_phi),
                          9));
  road.hits.push_back(Hit(D::kTracker, 0xFFFFFFFFu, 9));
  cases.push_back({"tracker_road_duplicate_layer_and_layer_beyond",
                   std::move(road),
       "29ef26d528c0a878c557a961c1885a30772e6bf971761bdaf3f08d0eaa897349"});

  // The simulated muon's chamber hits cut to one layer (no segment at the
  // track, so no muon) and to two layers (a segment matched to the track),
  // plus stand-alone towers: one layer hit twice, a layer past muon_layers
  // beside layer 0, three layers, and the largest channel.
  RawEvent muon = SimulatedMuon();
  std::vector<RawHit> towers = {
      Hit(D::kMuon, g.MuonChannel(0, 10, 10), 5),
      Hit(D::kMuon, g.MuonChannel(1, 30, 30), 5),
      Hit(D::kMuon, g.MuonChannel(1, 30, 30), 5),
      Hit(D::kMuon, g.MuonChannel(g.muon_layers + 1, 10, 10), 5),
      Hit(D::kMuon, g.MuonChannel(0, 40, 0), 5),
      Hit(D::kMuon, g.MuonChannel(2, 40, 0), 5),
      Hit(D::kMuon, g.MuonChannel(3, 40, 0), 5),
      Hit(D::kMuon, 0xFFFFFFFFu, 5)};
  RawEvent one_layer = KeepMuonLayers(muon, g, {0});
  one_layer.hits.insert(one_layer.hits.end(), towers.begin(), towers.end());
  cases.push_back(
      {"muon_tower_one_layer", std::move(one_layer),
       "f98e3b9c221578a1b23d79d8c1669eddc7f37bc3aac5b10d386196c32584879e"});
  RawEvent two_layers = KeepMuonLayers(muon, g, {0, 2});
  two_layers.hits.insert(two_layers.hits.end(), towers.begin(), towers.end());
  cases.push_back(
      {"muon_tower_two_layers", std::move(two_layers),
       "329a9ac0e96ec5993872d88f13fea473b75ccf8a95ef767f3a41dc9a56c82443"});
  return cases;
}

TEST(ReconstructionPinTest, HandBuiltEdgeCases) {
  const ReconstructionConfig config = MatchingReco(QuietSim());
  const bool pinned = OnPinnedToolchain();
  std::string computed;
  for (PinCase& pin : HandBuiltCases(config.geometry)) {
    const std::string digest = PinDigest(config, {pin.raw});
    computed += std::string(pin.name) + " " + digest + "\n";
    if (pinned) {
      EXPECT_EQ(digest, pin.sha256) << pin.name;
    }
  }
  if (!pinned) {
    GTEST_SKIP() << "not the golden toolchain; digests:\n" << computed;
  }
}

/// A raw event of random hits. Half the channels are uniform over uint32;
/// the other half fall in a narrow band at the grid's far eta edge and its
/// phi seam, so channels repeat, cells have neighbours and roads fill.
RawEvent RandomRawEvent(const DetectorGeometry& g, uint64_t number,
                        Rng* rng) {
  auto pick = [rng](int n) {
    return static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
  };
  auto seam = [&pick](int cells) { return (cells - 4 + pick(8)) % cells; };
  RawEvent raw = EventOf(number, {});
  raw.trigger_bits = static_cast<uint32_t>(rng->NextU64());
  const uint64_t hits = 1 + rng->UniformInt(300);
  for (uint64_t i = 0; i < hits; ++i) {
    RawHit hit;
    hit.detector = static_cast<SubDetector>(rng->UniformInt(4));
    hit.adc = static_cast<uint16_t>(rng->UniformInt(2000));
    hit.time_ns = static_cast<float>(rng->Uniform(-5.0, 5.0));
    if (rng->Accept(0.5)) {
      hit.channel = static_cast<uint32_t>(rng->NextU64());
    } else if (hit.detector == SubDetector::kTracker) {
      hit.channel = g.TrackerChannel(pick(g.tracker_layers + 2), pick(2),
                                     seam(g.tracker_phi_cells));
    } else if (hit.detector == SubDetector::kEcal) {
      hit.channel = g.EcalChannel(g.ecal_eta_cells - 2 + pick(4),
                                  seam(g.ecal_phi_cells));
    } else if (hit.detector == SubDetector::kHcal) {
      hit.channel = g.HcalChannel(g.hcal_eta_cells - 2 + pick(4),
                                  seam(g.hcal_phi_cells));
    } else {
      hit.channel = g.MuonChannel(pick(g.muon_layers + 2), pick(2),
                                  seam(g.muon_phi_cells));
    }
    raw.hits.push_back(hit);
  }
  return raw;
}

TEST(ReconstructionPinTest, RandomChannelsOverFullRange) {
  const ReconstructionConfig config = MatchingReco(QuietSim());
  Rng rng(20260501);
  std::vector<RawEvent> raw;
  for (uint64_t i = 0; i < 64; ++i) {
    raw.push_back(RandomRawEvent(config.geometry, i, &rng));
  }
  const std::string digest = PinDigest(config, raw);
  if (!OnPinnedToolchain()) GTEST_SKIP() << "digest: " << digest;
  EXPECT_EQ(digest,
            "f8772094464dcb3cdcbc0011134624829e9b99811dc498df55d0af7ab9b3d7c5");
}

/// Digest of ReconstructAll over 200 simulated events of `process` at
/// pileup 20, on a pool of `threads` workers.
std::string PileupDigest(Process process, size_t threads) {
  GeneratorConfig gen_config;
  gen_config.process = process;
  gen_config.pileup_mean = 20.0;
  gen_config.seed = 7;
  EventGenerator gen(gen_config);
  SimulationConfig sim_config;
  sim_config.seed = 7;
  DetectorSimulation sim(sim_config);
  std::vector<RawEvent> raw;
  for (int i = 0; i < 200; ++i) raw.push_back(sim.Simulate(gen.Generate(), 1));

  ThreadPool pool(threads);
  Reconstructor reco(MatchingReco(sim_config));
  BinaryWriter writer;
  for (const RecoEvent& event : reco.ReconstructAll(raw, &pool)) {
    EncodeRecord(event, &writer);
  }
  return Sha256::HashHex(writer.buffer());
}

void ExpectPileupPinned(Process process, const char* pinned) {
  const std::string serial = PileupDigest(process, 1);
  EXPECT_EQ(PileupDigest(process, 4), serial);
  if (!OnPinnedToolchain()) GTEST_SKIP() << "digest: " << serial;
  EXPECT_EQ(serial, pinned);
}

TEST(ReconstructionPinTest, QcdDijetPileup20) {
  ExpectPileupPinned(
      Process::kQcdDijet,
      "aa104866b7f47344c370d1bd32681d8d4b83d65a143109bc6c0923df598cbe8c");
}

TEST(ReconstructionPinTest, HiggsGammaGammaPileup20) {
  ExpectPileupPinned(
      Process::kHiggsToGammaGamma,
      "f632f8dd7938a26f2cd074f7b5fc854be8348990151b2ddd8f52cb31478d7c4a");
}

}  // namespace
}  // namespace daspos
