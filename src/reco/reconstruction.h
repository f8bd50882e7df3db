// The Reconstruction step (§3.2): raw data -> tracks + clusters ->
// candidate physics objects (electrons, muons, photons, jets, MET).
// Requires the same calibration constants the digitization used — the
// conditions-database dependency the paper highlights.
#ifndef DASPOS_RECO_RECONSTRUCTION_H_
#define DASPOS_RECO_RECONSTRUCTION_H_

#include <vector>

#include "detsim/calib.h"
#include "detsim/geometry.h"
#include "event/raw.h"
#include "event/reco.h"
#include "reco/clustering.h"
#include "reco/tracking.h"

namespace daspos {

class ThreadPool;

struct CandidateConfig {
  /// EM fraction above which a cluster is electron/photon-like.
  double em_id_fraction = 0.80;
  double em_min_energy = 2.0;
  /// Track<->cluster and track<->muon-segment matching radii.
  double electron_match_dr = 0.15;
  double muon_match_dr = 0.30;
  /// Jet cone radius and minimum pt.
  double jet_cone_dr = 0.4;
  double jet_seed_et = 5.0;
  double jet_min_pt = 15.0;
  /// Isolation cone.
  double isolation_dr = 0.3;
};

struct ReconstructionConfig {
  DetectorGeometry geometry;
  CalibrationSet calib;
  TrackingConfig tracking;
  ClusteringConfig clustering;
  CandidateConfig candidates;
};

/// Runs the full reconstruction chain on raw events.
class Reconstructor {
 public:
  explicit Reconstructor(const ReconstructionConfig& config)
      : config_(config),
        clusterer_(config_.geometry, config_.calib, config_.clustering) {}

  RecoEvent Reconstruct(const RawEvent& raw) const;

  /// Reconstructs every event, in parallel on `pool` when given. Each event
  /// is reconstructed independently, so output order (and every byte) is
  /// identical to calling Reconstruct in a serial loop.
  std::vector<RecoEvent> ReconstructAll(const std::vector<RawEvent>& raw,
                                        ThreadPool* pool = nullptr) const;

  const ReconstructionConfig& config() const { return config_; }

 private:
  ReconstructionConfig config_;
  /// Built once per geometry: it holds the phi-cell cos/sin tables.
  CaloClusterer clusterer_;
};

}  // namespace daspos

#endif  // DASPOS_RECO_RECONSTRUCTION_H_
