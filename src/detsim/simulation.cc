#include "detsim/simulation.h"

#include <algorithm>
#include <cmath>

#include "event/pdg.h"

namespace daspos {

namespace {

/// Azimuthal drift per unit radius for unit charge: phi(r) = phi0 +
/// q * kCurvature * B[T] * r[m] / pt[GeV]. Shared constant between
/// digitization here and the track fit in reco/tracking.cc.
constexpr double kCurvature = 0.15;

uint16_t ClampAdc(double counts) {
  if (counts <= 0.0) return 0;
  if (counts >= 65535.0) return 65535;
  return static_cast<uint16_t>(counts);
}

}  // namespace

RawEvent DetectorSimulation::Simulate(const GenEvent& truth,
                                      uint32_t run_number) const {
  // Event-local stream: deterministic in (seed, event number) only.
  Rng rng(config_.seed ^ (truth.event_number * 0x9e3779b97f4a7c15ull));

  RawEvent raw;
  raw.run_number = run_number;
  raw.event_number = truth.event_number;
  SimulateTracker(truth, &rng, &raw);
  SimulateCalorimeters(truth, &rng, &raw);
  SimulateMuonSystem(truth, &rng, &raw);
  AddNoise(&rng, &raw);
  raw.trigger_bits = ComputeTrigger(truth, &rng);
  // The hits were appended one by one, and the event goes to reconstruction
  // as built rather than decoded at its exact size: drop the spare capacity
  // instead of carrying it into the next step.
  raw.hits.shrink_to_fit();
  return raw;
}

double DetectorSimulation::ImpactParameter(
    const GenEvent& truth, const GenParticle& particle) const {
  if (particle.vertex_mm == 0.0 || particle.mother < 0 ||
      particle.mother >= static_cast<int>(truth.particles.size())) {
    return 0.0;
  }
  const FourVector& mother =
      truth.particles[static_cast<size_t>(particle.mother)].momentum;
  double mother_p = mother.P();
  if (mother_p <= 0.0) return 0.0;
  double length_m = particle.vertex_mm / 1000.0;
  double x0 = length_m * mother.px() / mother_p;
  double y0 = length_m * mother.py() / mother_p;
  double pt = particle.momentum.Pt();
  if (pt <= 0.0) return 0.0;
  return (x0 * particle.momentum.py() - y0 * particle.momentum.px()) / pt;
}

void DetectorSimulation::SimulateTracker(const GenEvent& truth, Rng* rng,
                                         RawEvent* raw) const {
  const DetectorGeometry& geo = config_.geometry;
  for (const GenParticle& particle : truth.particles) {
    if (!particle.IsFinalState()) continue;
    double charge = pdg::Charge(particle.pdg_id);
    if (std::fabs(charge) < 0.3) continue;
    double pt = particle.momentum.Pt();
    double eta = particle.momentum.Eta();
    if (pt < 0.2 || std::fabs(eta) > geo.tracker_eta_max) continue;

    double phi0 = particle.momentum.Phi();
    double d0_m = ImpactParameter(truth, particle);
    int eta_cell = geo.TrackerEtaCell(eta);

    for (int layer = 0; layer < geo.tracker_layers; ++layer) {
      if (!rng->Accept(geo.tracker_hit_efficiency)) continue;
      double r = geo.TrackerLayerRadius(layer);
      // Helix drift + impact-parameter term + (mis)alignment.
      double phi = phi0 + charge * kCurvature * geo.field_tesla * r / pt +
                   d0_m / r + config_.calib.tracker_phi_offset;
      int phi_cell = geo.TrackerPhiCell(phi);
      RawHit hit;
      hit.detector = SubDetector::kTracker;
      hit.channel = geo.TrackerChannel(layer, eta_cell, phi_cell);
      // Landau-like ionization pulse.
      hit.adc = ClampAdc(30.0 + rng->Exponential(20.0));
      hit.time_ns = static_cast<float>(rng->Gauss(0.0, 1.5));
      raw->hits.push_back(hit);
    }
  }
}

void DetectorSimulation::SimulateCalorimeters(const GenEvent& truth, Rng* rng,
                                              RawEvent* raw) const {
  const DetectorGeometry& geo = config_.geometry;
  const CalibrationSet& calib = config_.calib;

  auto deposit_ecal = [&](double eta, double phi, double energy) {
    if (energy <= 0.0 || std::fabs(eta) > geo.ecal_eta_max) return;
    // Shower spread: 70% in the seed cell, 30% over the 3x3 neighbourhood.
    int eta_cell = geo.EcalEtaCell(eta);
    int phi_cell = geo.EcalPhiCell(phi);
    struct Share {
      int deta, dphi;
      double frac;
    };
    static constexpr Share kShares[] = {
        {0, 0, 0.70},  {1, 0, 0.08},  {-1, 0, 0.08},
        {0, 1, 0.07},  {0, -1, 0.07},
    };
    for (const Share& share : kShares) {
      int ec = eta_cell + share.deta;
      int pc = phi_cell + share.dphi;
      if (ec < 0 || ec >= geo.ecal_eta_cells) continue;
      if (pc < 0) pc += geo.ecal_phi_cells;
      if (pc >= geo.ecal_phi_cells) pc -= geo.ecal_phi_cells;
      double counts = energy * share.frac / calib.ecal_gain;
      uint16_t adc = ClampAdc(counts);
      if (adc < calib.ecal_zs_threshold) continue;
      RawHit hit;
      hit.detector = SubDetector::kEcal;
      hit.channel = geo.EcalChannel(ec, pc);
      hit.adc = adc;
      hit.time_ns = static_cast<float>(rng->Gauss(0.0, 0.5));
      raw->hits.push_back(hit);
    }
  };

  auto deposit_hcal = [&](double eta, double phi, double energy) {
    if (energy <= 0.0 || std::fabs(eta) > geo.hcal_eta_max) return;
    uint16_t adc = ClampAdc(energy / calib.hcal_gain);
    if (adc == 0) return;
    RawHit hit;
    hit.detector = SubDetector::kHcal;
    hit.channel = geo.HcalChannel(geo.HcalEtaCell(eta), geo.HcalPhiCell(phi));
    hit.adc = adc;
    hit.time_ns = static_cast<float>(rng->Gauss(0.0, 1.0));
    raw->hits.push_back(hit);
  };

  for (const GenParticle& particle : truth.particles) {
    if (!particle.IsFinalState()) continue;
    if (pdg::IsInvisible(particle.pdg_id)) continue;
    int a = std::abs(particle.pdg_id);
    double e = particle.momentum.e();
    double eta = particle.momentum.Eta();
    double phi = particle.momentum.Phi();
    if (e < 0.1) continue;

    if (a == pdg::kElectron || a == pdg::kPhoton || a == pdg::kPiZero) {
      // Electromagnetic shower: full energy in ECAL with EM resolution.
      double sigma = std::sqrt(geo.ecal_stochastic * geo.ecal_stochastic * e +
                               geo.ecal_constant * geo.ecal_constant * e * e);
      deposit_ecal(eta, phi, std::max(0.0, rng->Gauss(e, sigma)));
    } else if (a == pdg::kMuon) {
      // Minimum-ionizing deposits only.
      deposit_ecal(eta, phi, 0.3);
      deposit_hcal(eta, phi, 2.0);
    } else {
      // Hadron: small EM component, the rest in HCAL with hadronic
      // resolution.
      double em_fraction = rng->Uniform(0.05, 0.30);
      double sigma = std::sqrt(geo.hcal_stochastic * geo.hcal_stochastic * e +
                               geo.hcal_constant * geo.hcal_constant * e * e);
      double smeared = std::max(0.0, rng->Gauss(e, sigma));
      deposit_ecal(eta, phi, smeared * em_fraction);
      deposit_hcal(eta, phi, smeared * (1.0 - em_fraction));
    }
  }
}

void DetectorSimulation::SimulateMuonSystem(const GenEvent& truth, Rng* rng,
                                            RawEvent* raw) const {
  const DetectorGeometry& geo = config_.geometry;
  for (const GenParticle& particle : truth.particles) {
    if (!particle.IsFinalState()) continue;
    if (std::abs(particle.pdg_id) != pdg::kMuon) continue;
    double pt = particle.momentum.Pt();
    double eta = particle.momentum.Eta();
    if (pt < 2.0 || std::fabs(eta) > geo.muon_eta_max) continue;
    int eta_cell = geo.MuonEtaCell(eta);
    int phi_cell = geo.MuonPhiCell(particle.momentum.Phi());
    for (int layer = 0; layer < geo.muon_layers; ++layer) {
      if (!rng->Accept(geo.muon_hit_efficiency)) continue;
      RawHit hit;
      hit.detector = SubDetector::kMuon;
      hit.channel = geo.MuonChannel(layer, eta_cell, phi_cell);
      hit.adc = ClampAdc(40.0 + rng->Exponential(10.0));
      hit.time_ns = static_cast<float>(rng->Gauss(15.0, 2.0));  // drift time
      raw->hits.push_back(hit);
    }
  }
}

void DetectorSimulation::AddNoise(Rng* rng, RawEvent* raw) const {
  const DetectorGeometry& geo = config_.geometry;
  uint64_t cells = rng->Poisson(config_.noise_cells_mean);
  uint32_t total_cells = static_cast<uint32_t>(geo.ecal_eta_cells) *
                         static_cast<uint32_t>(geo.ecal_phi_cells);
  for (uint64_t i = 0; i < cells; ++i) {
    double counts = config_.calib.ecal_zs_threshold +
                    rng->Exponential(config_.calib.ecal_noise_adc);
    RawHit hit;
    hit.detector = SubDetector::kEcal;
    hit.channel = static_cast<uint32_t>(rng->UniformInt(total_cells));
    hit.adc = ClampAdc(counts);
    hit.time_ns = static_cast<float>(rng->Uniform(-12.5, 12.5));
    raw->hits.push_back(hit);
  }
}

uint32_t DetectorSimulation::ComputeTrigger(const GenEvent& truth,
                                            Rng* rng) const {
  const DetectorGeometry& geo = config_.geometry;
  uint32_t bits = 0;
  double ht = 0.0;
  for (const GenParticle& particle : truth.particles) {
    if (!particle.IsFinalState()) continue;
    if (pdg::IsInvisible(particle.pdg_id)) continue;
    int a = std::abs(particle.pdg_id);
    double et = particle.momentum.Et();
    double eta = particle.momentum.Eta();
    // Trigger-level (coarse) smearing.
    double smeared_et = std::max(0.0, rng->Gauss(et, 0.1 * et));
    if ((a == pdg::kElectron || a == pdg::kPhoton) &&
        std::fabs(eta) < geo.ecal_eta_max &&
        smeared_et > config_.trig_egamma_et) {
      bits |= TriggerBits::kEGamma;
    }
    if (a == pdg::kMuon && std::fabs(eta) < geo.muon_eta_max &&
        smeared_et > config_.trig_muon_pt) {
      bits |= TriggerBits::kMuon;
    }
    if (pdg::IsHadron(particle.pdg_id)) ht += smeared_et;
  }
  if (ht > config_.trig_ht) bits |= TriggerBits::kJetHt;
  if (config_.minbias_prescale > 0 &&
      truth.event_number % config_.minbias_prescale == 0) {
    bits |= TriggerBits::kMinBias;
  }
  return bits;
}

}  // namespace daspos
