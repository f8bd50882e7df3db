#include "reco/tracking.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "event/pdg.h"

namespace daspos {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;
/// Must match detsim/simulation.cc.
constexpr double kCurvature = 0.15;

double WrapToReference(double phi, double reference) {
  double d = phi - reference;
  while (d > kPi) d -= kTwoPi;
  while (d < -kPi) d += kTwoPi;
  return reference + d;
}

struct RoadHit {
  /// The road coordinate, and the hit's position in the event.
  int eta_cell;
  uint32_t ordinal;
  int layer;
  double r;
  double phi;
  bool used = false;
};

/// 3-parameter least squares of phi = a + b*r + c/r. Returns false when the
/// normal equations are singular (degenerate hit configuration).
bool FitHelixModel(const std::vector<RoadHit>& hits, double* a, double* b,
                   double* c) {
  // Normal equations: M p = v with basis functions f = (1, r, 1/r).
  double m[3][3] = {{0}};
  double v[3] = {0};
  for (const RoadHit& hit : hits) {
    double f[3] = {1.0, hit.r, 1.0 / hit.r};
    for (int i = 0; i < 3; ++i) {
      v[i] += f[i] * hit.phi;
      for (int j = 0; j < 3; ++j) m[i][j] += f[i] * f[j];
    }
  }
  double det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
               m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
               m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
  if (std::fabs(det) < 1e-18) return false;
  auto solve = [&](int col) {
    double t[3][3];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) t[i][j] = (j == col) ? v[i] : m[i][j];
    }
    double d = t[0][0] * (t[1][1] * t[2][2] - t[1][2] * t[2][1]) -
               t[0][1] * (t[1][0] * t[2][2] - t[1][2] * t[2][0]) +
               t[0][2] * (t[1][0] * t[2][1] - t[1][1] * t[2][0]);
    return d / det;
  };
  *a = solve(0);
  *b = solve(1);
  *c = solve(2);
  return true;
}

}  // namespace

std::vector<Track> TrackFinder::FindTracks(const RawEvent& raw) const {
  // Decode the hits and bucket them by eta cell (the road coordinate): a
  // road's hits stay in event order.
  std::vector<RoadHit> road_hits;
  for (size_t i = 0; i < raw.hits.size(); ++i) {
    const RawHit& hit = raw.hits[i];
    if (hit.detector != SubDetector::kTracker) continue;
    int layer, eta_cell, phi_cell;
    geometry_.DecodeTrackerChannel(hit.channel, &layer, &eta_cell, &phi_cell);
    RoadHit road_hit;
    road_hit.eta_cell = eta_cell;
    road_hit.ordinal = static_cast<uint32_t>(i);
    road_hit.layer = layer;
    road_hit.r = geometry_.TrackerLayerRadius(layer);
    // Undo the alignment constant applied at digitization.
    road_hit.phi = geometry_.TrackerPhiCellCenter(phi_cell) -
                   calib_.tracker_phi_offset;
    road_hits.push_back(road_hit);
  }
  std::sort(road_hits.begin(), road_hits.end(),
            [](const RoadHit& x, const RoadHit& y) {
              return x.eta_cell != y.eta_cell ? x.eta_cell < y.eta_cell
                                              : x.ordinal < y.ordinal;
            });

  const double cell_width = kTwoPi / geometry_.tracker_phi_cells;
  const double seed_tol = config_.seed_tolerance_cells * cell_width;
  const int min_hits = std::max(4, config_.min_hits);

  // Per-candidate scratch, reused across seeds and roads.
  std::vector<RoadHit*> members;
  std::vector<RoadHit*> by_layer;  // one hit per layer, sorted by layer
  std::vector<RoadHit> local;

  std::vector<Track> tracks;
  for (auto road_begin = road_hits.begin(); road_begin != road_hits.end();) {
    const int eta_cell = road_begin->eta_cell;
    auto road_end = std::find_if(
        road_begin, road_hits.end(),
        [eta_cell](const RoadHit& hit) { return hit.eta_cell != eta_cell; });
    std::span<RoadHit> hits(road_begin, road_end);
    road_begin = road_end;
    if (static_cast<int>(hits.size()) < min_hits) continue;
    std::sort(hits.begin(), hits.end(),
              [](const RoadHit& x, const RoadHit& y) {
                return x.layer < y.layer;
              });

    // Seed from (low-layer, high-layer) unused pairs.
    for (size_t i = 0; i < hits.size(); ++i) {
      if (hits[i].used) continue;
      for (size_t j = hits.size(); j-- > i + 1;) {
        if (hits[j].used || hits[j].layer <= hits[i].layer) continue;
        double phi_i = hits[i].phi;
        double phi_j = WrapToReference(hits[j].phi, phi_i);
        if (std::fabs(phi_j - phi_i) > config_.max_seed_bend) continue;

        // Two-point line prediction phi(r) = a + b r.
        double b = (phi_j - phi_i) / (hits[j].r - hits[i].r);
        double a = phi_i - b * hits[i].r;

        members.clear();
        for (RoadHit& hit : hits) {
          if (hit.used) continue;
          double predicted = a + b * hit.r;
          double observed = WrapToReference(hit.phi, predicted);
          if (std::fabs(observed - predicted) < seed_tol) {
            members.push_back(&hit);
          }
        }
        if (static_cast<int>(members.size()) < min_hits) continue;
        // One hit per layer at most: keep the closest to the prediction
        // (the first of equals).
        auto residual = [&](const RoadHit* h) {
          double predicted = a + b * h->r;
          return std::fabs(WrapToReference(h->phi, predicted) - predicted);
        };
        by_layer.clear();
        for (RoadHit* hit : members) {
          auto it = std::lower_bound(
              by_layer.begin(), by_layer.end(), hit->layer,
              [](const RoadHit* h, int layer) { return h->layer < layer; });
          if (it == by_layer.end() || (*it)->layer != hit->layer) {
            by_layer.insert(it, hit);
          } else if (residual(hit) < residual(*it)) {
            *it = hit;
          }
        }
        if (static_cast<int>(by_layer.size()) < min_hits) continue;

        // Re-express phis near the seed phi so the fit is wrap-free.
        local.clear();
        for (const RoadHit* hit : by_layer) {
          RoadHit copy = *hit;
          copy.phi = WrapToReference(copy.phi, phi_i);
          local.push_back(copy);
        }

        double fa, fb, fc;
        if (!FitHelixModel(local, &fa, &fb, &fc)) continue;

        // Chi2 against the quantization scale.
        double chi2 = 0.0;
        for (const RoadHit& hit : local) {
          double res = hit.phi - (fa + fb * hit.r + fc / hit.r);
          chi2 += res * res / (cell_width * cell_width / 12.0);
        }

        double bend = fb;
        double pt = config_.max_pt;
        int charge = bend >= 0.0 ? 1 : -1;
        double denom = std::fabs(bend);
        if (denom > kCurvature * geometry_.field_tesla / config_.max_pt) {
          pt = kCurvature * geometry_.field_tesla / denom;
        }
        double eta = geometry_.TrackerEtaCellCenter(eta_cell);
        // Azimuth at the origin: phi0 = a (the constant term).
        double phi0 = std::remainder(fa, kTwoPi);

        Track track;
        track.momentum =
            FourVector::FromPtEtaPhiM(pt, eta, phi0, pdg::Mass(pdg::kPiPlus));
        track.charge = charge;
        track.hit_count = static_cast<int>(local.size());
        track.chi2 = chi2;
        track.d0_mm = fc * 1000.0;
        tracks.push_back(track);

        // Mark members used.
        for (RoadHit* hit : by_layer) hit->used = true;
        break;  // take the next unused seed hit i
      }
    }
  }
  // Highest-pt first, the downstream convention.
  std::sort(tracks.begin(), tracks.end(), [](const Track& x, const Track& y) {
    return x.momentum.Pt() > y.momentum.Pt();
  });
  return tracks;
}

}  // namespace daspos
