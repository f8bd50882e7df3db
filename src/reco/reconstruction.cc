#include "reco/reconstruction.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/trace.h"

namespace daspos {

std::vector<RecoEvent> Reconstructor::ReconstructAll(
    const std::vector<RawEvent>& raw, ThreadPool* pool) const {
  Span span("reco:reconstruct_all", "reco");
  span.AddAttribute("events", static_cast<uint64_t>(raw.size()));
  MetricsRegistry::Global()
      .GetCounter(metric_names::kRecoEventsTotal)
      .Increment(static_cast<uint64_t>(raw.size()));
  return ParallelMap<RecoEvent>(
      pool, raw.size(), [this, &raw](size_t i) { return Reconstruct(raw[i]); },
      /*grain=*/1);
}

namespace {

constexpr double kPi = 3.14159265358979323846;

double AngularDistance(double eta1, double phi1, double eta2, double phi2) {
  double deta = eta1 - eta2;
  double dphi = std::fabs(phi1 - phi2);
  if (dphi > kPi) dphi = 2.0 * kPi - dphi;
  return std::sqrt(deta * deta + dphi * dphi);
}

FourVector ClusterFourVector(const CaloCluster& cluster) {
  // Massless object at the cluster direction.
  double pt = cluster.energy / std::cosh(cluster.eta);
  return FourVector::FromPtEtaPhiM(pt, cluster.eta, cluster.phi, 0.0);
}

}  // namespace

RecoEvent Reconstructor::Reconstruct(const RawEvent& raw) const {
  const CandidateConfig& cuts = config_.candidates;

  RecoEvent event;
  event.run_number = raw.run_number;
  event.event_number = raw.event_number;
  event.trigger_bits = raw.trigger_bits;

  TrackFinder track_finder(config_.geometry, config_.calib, config_.tracking);
  event.tracks = track_finder.FindTracks(raw);

  event.clusters = clusterer_.Cluster(raw);
  std::vector<MuonSegment> segments = clusterer_.MuonSegments(raw);

  // Pileup proxy: soft tracks come ~12 per interaction.
  event.vertex_count =
      std::max(1, static_cast<int>(event.tracks.size()) / 12);

  // Each track's direction and pt, taken once: every match and isolation
  // cone below reads them.
  struct TrackAxis {
    double eta;
    double phi;
    double pt;
  };
  std::vector<TrackAxis> axes;
  axes.reserve(event.tracks.size());
  for (const Track& track : event.tracks) {
    axes.push_back({track.momentum.Eta(), track.momentum.Phi(),
                    track.momentum.Pt()});
  }
  constexpr size_t kNoTrack = static_cast<size_t>(-1);

  // Track isolation helper: scalar pt sum of other tracks in a cone.
  auto isolation = [&](double eta, double phi, size_t exclude) {
    double sum = 0.0;
    for (size_t t = 0; t < axes.size(); ++t) {
      if (t == exclude) continue;
      if (AngularDistance(eta, phi, axes[t].eta, axes[t].phi) <
          cuts.isolation_dr) {
        sum += axes[t].pt;
      }
    }
    return sum;
  };

  std::vector<bool> cluster_used(event.clusters.size(), false);
  std::vector<bool> track_used(event.tracks.size(), false);

  // --- muons: chamber segment matched to a tracker track ---------------
  for (const MuonSegment& segment : segments) {
    int best = -1;
    double best_dr = cuts.muon_match_dr;
    for (size_t t = 0; t < event.tracks.size(); ++t) {
      if (track_used[t]) continue;
      double dr =
          AngularDistance(segment.eta, segment.phi, axes[t].eta, axes[t].phi);
      if (dr < best_dr) {
        best_dr = dr;
        best = static_cast<int>(t);
      }
    }
    if (best < 0) continue;
    const auto matched = static_cast<size_t>(best);
    const Track& track = event.tracks[matched];
    track_used[matched] = true;
    PhysicsObject muon;
    muon.type = ObjectType::kMuon;
    muon.momentum = track.momentum;
    muon.charge = track.charge;
    muon.isolation = isolation(axes[matched].eta, axes[matched].phi, matched);
    muon.quality = std::min(1.0, segment.layer_count / 4.0);
    muon.displacement_mm = std::fabs(track.d0_mm);
    event.objects.push_back(muon);
  }

  // --- electrons / photons: EM-rich clusters, split on a track match ---
  for (size_t c = 0; c < event.clusters.size(); ++c) {
    const CaloCluster& cluster = event.clusters[c];
    if (cluster.em_fraction < cuts.em_id_fraction) continue;
    if (cluster.energy < cuts.em_min_energy) continue;

    int best = -1;
    double best_dr = cuts.electron_match_dr;
    for (size_t t = 0; t < event.tracks.size(); ++t) {
      if (track_used[t]) continue;
      double dr =
          AngularDistance(cluster.eta, cluster.phi, axes[t].eta, axes[t].phi);
      if (dr < best_dr) {
        best_dr = dr;
        best = static_cast<int>(t);
      }
    }
    PhysicsObject candidate;
    candidate.momentum = ClusterFourVector(cluster);
    candidate.quality = cluster.em_fraction;
    if (best >= 0) {
      const auto matched = static_cast<size_t>(best);
      const Track& track = event.tracks[matched];
      // Electron-like only if the track momentum is calorimeter-compatible
      // (suppresses soft-hadron overlaps).
      double ep = cluster.energy / std::max(0.1, track.momentum.P());
      if (ep > 0.5) {
        track_used[matched] = true;
        candidate.type = ObjectType::kElectron;
        candidate.charge = track.charge;
        candidate.isolation = isolation(cluster.eta, cluster.phi, matched);
        candidate.displacement_mm = std::fabs(track.d0_mm);
        cluster_used[c] = true;
        event.objects.push_back(candidate);
        continue;
      }
    }
    candidate.type = ObjectType::kPhoton;
    candidate.charge = 0;
    candidate.isolation = isolation(cluster.eta, cluster.phi, kNoTrack);
    cluster_used[c] = true;
    event.objects.push_back(candidate);
  }

  // --- jets: cone clustering of remaining calo clusters ----------------
  // Clusters are already energy-descending; greedy seeded cones.
  std::vector<FourVector> cluster_vectors;
  cluster_vectors.reserve(event.clusters.size());
  for (const CaloCluster& cluster : event.clusters) {
    cluster_vectors.push_back(ClusterFourVector(cluster));
  }
  for (size_t seed = 0; seed < event.clusters.size(); ++seed) {
    if (cluster_used[seed]) continue;
    if (cluster_vectors[seed].Et() < cuts.jet_seed_et) continue;
    FourVector jet_momentum;
    double seed_eta = event.clusters[seed].eta;
    double seed_phi = event.clusters[seed].phi;
    for (size_t c = seed; c < event.clusters.size(); ++c) {
      if (cluster_used[c]) continue;
      if (AngularDistance(seed_eta, seed_phi, event.clusters[c].eta,
                          event.clusters[c].phi) < cuts.jet_cone_dr) {
        cluster_used[c] = true;
        jet_momentum += cluster_vectors[c];
      }
    }
    if (jet_momentum.Pt() < cuts.jet_min_pt) continue;
    PhysicsObject jet;
    jet.type = ObjectType::kJet;
    jet.momentum = jet_momentum;
    jet.charge = 0;
    jet.quality = 1.0;
    event.objects.push_back(jet);
  }

  // --- missing transverse energy ----------------------------------------
  // Negative vector sum of all calorimeter clusters plus muon tracks
  // (muons leave almost nothing in the calorimeters).
  double sum_px = 0.0;
  double sum_py = 0.0;
  for (const FourVector& v : cluster_vectors) {
    sum_px += v.px();
    sum_py += v.py();
  }
  for (const PhysicsObject& obj : event.objects) {
    if (obj.type == ObjectType::kMuon) {
      sum_px += obj.momentum.px();
      sum_py += obj.momentum.py();
    }
  }
  PhysicsObject met;
  met.type = ObjectType::kMet;
  double met_pt = std::sqrt(sum_px * sum_px + sum_py * sum_py);
  met.momentum = FourVector(-sum_px, -sum_py, 0.0, met_pt);
  met.charge = 0;
  event.objects.push_back(met);

  // pt-descending objects (MET stays last by convention: sort only the
  // physics objects before it).
  std::sort(event.objects.begin(), event.objects.end() - 1,
            [](const PhysicsObject& a, const PhysicsObject& b) {
              return a.momentum.Pt() > b.momentum.Pt();
            });
  return event;
}

}  // namespace daspos
