#include "reco/clustering.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace daspos {

namespace {

constexpr double kPi = 3.14159265358979323846;

struct Cell {
  int eta_cell;
  int phi_cell;
  double eta;
  double energy;
  /// Position in ascending channel order, where the neighbour index finds
  /// the cell.
  uint32_t rank = 0;
  bool used = false;
};

/// One calorimeter hit's energy, tagged with its position in the event.
struct Deposit {
  uint32_t channel;
  uint32_t ordinal;
  double energy;
};

/// Sums deposits per channel into cells in ascending channel order. Equal
/// channels add up in hit order from 0.0, so each sum is bit-identical to a
/// running per-channel sum over the hits. `make_cell(channel, energy)`
/// decodes one cell.
template <typename MakeCell>
std::vector<Cell> SumCells(std::vector<Deposit>& deposits,
                           MakeCell make_cell) {
  std::sort(deposits.begin(), deposits.end(),
            [](const Deposit& a, const Deposit& b) {
              return a.channel != b.channel ? a.channel < b.channel
                                            : a.ordinal < b.ordinal;
            });
  std::vector<Cell> cells;
  for (size_t i = 0; i < deposits.size();) {
    const uint32_t channel = deposits[i].channel;
    double energy = 0.0;
    for (; i < deposits.size() && deposits[i].channel == channel; ++i) {
      energy += deposits[i].energy;
    }
    cells.push_back(make_cell(channel, energy));
  }
  return cells;
}

double AngularDistance(double eta1, double phi1, double eta2, double phi2) {
  double deta = eta1 - eta2;
  double dphi = std::fabs(phi1 - phi2);
  if (dphi > kPi) dphi = 2.0 * kPi - dphi;
  return std::sqrt(deta * deta + dphi * dphi);
}

/// Greedy local-maximum clustering on a cell grid: highest unused cell
/// seeds; its 3x3 neighbourhood (with phi wrap-around) is absorbed.
struct ProtoCluster {
  double energy = 0.0;
  double eta = 0.0;  // energy-weighted
  double phi = 0.0;
  int cell_count = 0;
};

/// `cells` arrive in ascending channel order. A cell's channel is
/// eta_cell * phi_cells + phi_cell, so a neighbour is found by binary search
/// for its channel (64-bit: a neighbour of an edge cell may fall outside
/// uint32). A member's phi enters through `phi`, the cos/sin of its
/// phi-cell centre.
std::vector<ProtoCluster> ClusterGrid(std::vector<Cell>& cells,
                                      double seed_threshold, int phi_cells,
                                      const CaloClusterer::PhiTable& phi) {
  std::vector<int64_t> channels(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    channels[i] = int64_t{cells[i].eta_cell} * phi_cells + cells[i].phi_cell;
    cells[i].rank = static_cast<uint32_t>(i);
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.energy > b.energy; });
  // slot[rank]: where the cell of that channel rank now sits.
  std::vector<uint32_t> slot(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    slot[cells[i].rank] = static_cast<uint32_t>(i);
  }

  std::vector<ProtoCluster> out;
  for (Cell& seed : cells) {
    if (seed.used || seed.energy < seed_threshold) continue;
    ProtoCluster cluster;
    double sum_eta = 0.0;
    double sum_x = 0.0;  // for phi averaging use vector sum
    double sum_y = 0.0;
    for (int deta = -1; deta <= 1; ++deta) {
      for (int dphi = -1; dphi <= 1; ++dphi) {
        int pc = seed.phi_cell + dphi;
        if (pc < 0) pc += phi_cells;
        if (pc >= phi_cells) pc -= phi_cells;
        const int64_t key = int64_t{seed.eta_cell + deta} * phi_cells + pc;
        auto it = std::lower_bound(channels.begin(), channels.end(), key);
        if (it == channels.end() || *it != key) continue;
        Cell& member = cells[slot[static_cast<size_t>(it - channels.begin())]];
        if (member.used) continue;
        member.used = true;
        cluster.energy += member.energy;
        ++cluster.cell_count;
        sum_eta += member.energy * member.eta;
        const auto cell = static_cast<size_t>(member.phi_cell);
        sum_x += member.energy * phi.cos[cell];
        sum_y += member.energy * phi.sin[cell];
      }
    }
    if (cluster.energy <= 0.0) continue;
    cluster.eta = sum_eta / cluster.energy;
    cluster.phi = std::atan2(sum_y, sum_x);
    out.push_back(cluster);
  }
  return out;
}

/// The table of the `cells` phi-cell centres `center` places.
CaloClusterer::PhiTable MakePhiTable(
    const DetectorGeometry& geometry, int cells,
    double (DetectorGeometry::*center)(int) const) {
  CaloClusterer::PhiTable table;
  for (int cell = 0; cell < cells; ++cell) {
    const double phi = (geometry.*center)(cell);
    table.cos.push_back(std::cos(phi));
    table.sin.push_back(std::sin(phi));
  }
  return table;
}

}  // namespace

CaloClusterer::CaloClusterer(const DetectorGeometry& geometry,
                             const CalibrationSet& calib,
                             ClusteringConfig config)
    : geometry_(geometry),
      calib_(calib),
      config_(config),
      ecal_phi_(MakePhiTable(geometry, geometry.ecal_phi_cells,
                             &DetectorGeometry::EcalPhiCellCenter)),
      hcal_phi_(MakePhiTable(geometry, geometry.hcal_phi_cells,
                             &DetectorGeometry::HcalPhiCellCenter)) {}

std::vector<CaloCluster> CaloClusterer::Cluster(const RawEvent& raw) const {
  // Per-cell energies (several hits can share a cell).
  std::vector<Deposit> ecal_deposits;
  std::vector<Deposit> hcal_deposits;
  for (size_t i = 0; i < raw.hits.size(); ++i) {
    const RawHit& hit = raw.hits[i];
    const auto ordinal = static_cast<uint32_t>(i);
    if (hit.detector == SubDetector::kEcal) {
      ecal_deposits.push_back(
          {hit.channel, ordinal, hit.adc * calib_.ecal_gain});
    } else if (hit.detector == SubDetector::kHcal) {
      hcal_deposits.push_back(
          {hit.channel, ordinal, hit.adc * calib_.hcal_gain});
    }
  }

  auto ecal_cell = [this](uint32_t channel, double energy) {
    int eta_cell, phi_cell;
    geometry_.DecodeEcalChannel(channel, &eta_cell, &phi_cell);
    return Cell{eta_cell, phi_cell, geometry_.EcalEtaCellCenter(eta_cell),
                energy};
  };
  auto hcal_cell = [this](uint32_t channel, double energy) {
    int eta_cell, phi_cell;
    geometry_.DecodeHcalChannel(channel, &eta_cell, &phi_cell);
    return Cell{eta_cell, phi_cell, geometry_.HcalEtaCellCenter(eta_cell),
                energy};
  };
  std::vector<Cell> ecal_cells = SumCells(ecal_deposits, ecal_cell);
  std::vector<Cell> hcal_cells = SumCells(hcal_deposits, hcal_cell);
  std::vector<ProtoCluster> em = ClusterGrid(ecal_cells, config_.ecal_seed_gev,
                                             geometry_.ecal_phi_cells,
                                             ecal_phi_);
  std::vector<ProtoCluster> had =
      ClusterGrid(hcal_cells, config_.hcal_seed_gev, geometry_.hcal_phi_cells,
                  hcal_phi_);

  // Match: each hadronic cluster attaches to the nearest EM cluster within
  // match_dr; leftovers become EM-poor clusters on their own.
  std::vector<CaloCluster> out;
  std::vector<double> attached_had(em.size(), 0.0);
  for (const ProtoCluster& h : had) {
    double best_dr = config_.match_dr;
    int best = -1;
    for (size_t i = 0; i < em.size(); ++i) {
      double dr = AngularDistance(h.eta, h.phi, em[i].eta, em[i].phi);
      if (dr < best_dr) {
        best_dr = dr;
        best = static_cast<int>(i);
      }
    }
    if (best >= 0) {
      attached_had[static_cast<size_t>(best)] += h.energy;
    } else {
      CaloCluster cluster;
      cluster.energy = h.energy;
      cluster.eta = h.eta;
      cluster.phi = h.phi;
      cluster.em_fraction = 0.0;
      cluster.cell_count = h.cell_count;
      out.push_back(cluster);
    }
  }
  for (size_t i = 0; i < em.size(); ++i) {
    CaloCluster cluster;
    cluster.energy = em[i].energy + attached_had[i];
    cluster.eta = em[i].eta;
    cluster.phi = em[i].phi;
    cluster.em_fraction = em[i].energy / cluster.energy;
    cluster.cell_count = em[i].cell_count;
    out.push_back(cluster);
  }
  std::sort(out.begin(), out.end(),
            [](const CaloCluster& a, const CaloCluster& b) {
              return a.energy > b.energy;
            });
  return out;
}

std::vector<MuonSegment> CaloClusterer::MuonSegments(
    const RawEvent& raw) const {
  // Group muon hits by tower (eta, phi cell); require >= 2 distinct layers.
  struct TowerHit {
    int eta_cell;
    int phi_cell;
    uint32_t layer_bit;
  };
  std::vector<TowerHit> tower_hits;
  for (const RawHit& hit : raw.hits) {
    if (hit.detector != SubDetector::kMuon) continue;
    int layer, eta_cell, phi_cell;
    geometry_.DecodeMuonChannel(hit.channel, &layer, &eta_cell, &phi_cell);
    // Any uint32 channel decodes, so a layer can pass 31. It sets bit
    // layer % 32, as a 32-bit shift by the layer does on x86-64 and
    // AArch64, which keeps such records' pinned RECO bytes.
    tower_hits.push_back({eta_cell, phi_cell, 1u << (layer % 32)});
  }
  auto same_tower = [](const TowerHit& a, const TowerHit& b) {
    return a.eta_cell == b.eta_cell && a.phi_cell == b.phi_cell;
  };
  std::sort(tower_hits.begin(), tower_hits.end(),
            [](const TowerHit& a, const TowerHit& b) {
              return a.eta_cell != b.eta_cell ? a.eta_cell < b.eta_cell
                                              : a.phi_cell < b.phi_cell;
            });
  std::vector<MuonSegment> out;
  for (size_t i = 0; i < tower_hits.size();) {
    const TowerHit& tower = tower_hits[i];
    uint32_t mask = 0;
    for (; i < tower_hits.size() && same_tower(tower_hits[i], tower); ++i) {
      mask |= tower_hits[i].layer_bit;
    }
    int layers = 0;
    for (uint32_t m = mask; m != 0; m >>= 1u) {
      layers += static_cast<int>(m & 1u);
    }
    if (layers < 2) continue;
    MuonSegment segment;
    segment.eta = geometry_.MuonEtaCellCenter(tower.eta_cell);
    segment.phi = geometry_.MuonPhiCellCenter(tower.phi_cell);
    segment.layer_count = layers;
    out.push_back(segment);
  }
  return out;
}

}  // namespace daspos
