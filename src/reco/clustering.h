// Calorimeter clustering: the "local-maximum-finding algorithms" of §3.2.
// ECAL and HCAL cells are clustered per compartment, then matched across
// compartments into combined clusters carrying an EM fraction.
#ifndef DASPOS_RECO_CLUSTERING_H_
#define DASPOS_RECO_CLUSTERING_H_

#include <vector>

#include "detsim/calib.h"
#include "detsim/geometry.h"
#include "event/raw.h"
#include "event/reco.h"

namespace daspos {

struct ClusteringConfig {
  /// Minimum seed-cell energy, GeV.
  double ecal_seed_gev = 0.5;
  double hcal_seed_gev = 1.0;
  /// ECAL<->HCAL cluster matching radius.
  double match_dr = 0.25;
};

/// A muon-chamber segment (grouped muon hits).
struct MuonSegment {
  double eta = 0.0;
  double phi = 0.0;
  int layer_count = 0;
};

class CaloClusterer {
 public:
  /// Builds the cos/sin table of every ECAL and HCAL phi-cell centre, so
  /// construct once per geometry and reuse.
  CaloClusterer(const DetectorGeometry& geometry, const CalibrationSet& calib,
                ClusteringConfig config = {});

  /// Combined ECAL+HCAL clusters of one raw event, energy-descending.
  std::vector<CaloCluster> Cluster(const RawEvent& raw) const;

  /// Muon segments (>= 2 chamber layers in one tower).
  std::vector<MuonSegment> MuonSegments(const RawEvent& raw) const;

  /// std::cos and std::sin of each phi-cell centre of one calorimeter,
  /// indexed by phi cell.
  struct PhiTable {
    std::vector<double> cos;
    std::vector<double> sin;
  };

 private:
  DetectorGeometry geometry_;
  CalibrationSet calib_;
  ClusteringConfig config_;
  PhiTable ecal_phi_;
  PhiTable hcal_phi_;
};

}  // namespace daspos

#endif  // DASPOS_RECO_CLUSTERING_H_
