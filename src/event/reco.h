// Reconstruction-level event model: the "recognizable objects" produced from
// raw data (particle trajectories, energy clusters) and the "candidate
// physics objects" refined from them (§3.2).
#ifndef DASPOS_EVENT_RECO_H_
#define DASPOS_EVENT_RECO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "event/fourvector.h"
#include "serialize/record.h"
#include "support/result.h"

namespace daspos {

/// A reconstructed charged-particle trajectory.
struct Track {
  FourVector momentum;
  int charge = 0;
  /// Number of tracker hits on the trajectory.
  int hit_count = 0;
  /// Track-fit quality.
  double chi2 = 0.0;
  /// Transverse impact parameter, millimetres (displaced-vertex physics).
  double d0_mm = 0.0;

  bool operator==(const Track&) const = default;
};

/// A cluster of energy depositions in a calorimeter.
struct CaloCluster {
  double energy = 0.0;
  double eta = 0.0;
  double phi = 0.0;
  /// Fraction of the energy in the electromagnetic compartment;
  /// discriminates electrons/photons (high) from hadrons (low).
  double em_fraction = 0.0;
  int cell_count = 0;

  bool operator==(const CaloCluster&) const = default;
};

/// Candidate physics-object types.
enum class ObjectType : uint8_t {
  kElectron = 0,
  kMuon = 1,
  kPhoton = 2,
  kJet = 3,
  kMet = 4,
};

std::string_view ObjectTypeName(ObjectType type);

/// Inverse of ObjectTypeName; InvalidArgument for unknown names.
Result<ObjectType> ObjectTypeFromName(std::string_view name);

/// A refined candidate physics object (electron, muon, photon, jet, MET).
struct PhysicsObject {
  ObjectType type = ObjectType::kJet;
  FourVector momentum;
  int charge = 0;
  /// Scalar activity around the object; small = isolated lepton/photon.
  double isolation = 0.0;
  /// Identification quality in [0,1].
  double quality = 1.0;
  /// Displacement of the associated vertex, millimetres (0 = prompt).
  double displacement_mm = 0.0;

  bool operator==(const PhysicsObject&) const = default;
};

/// Full reconstruction output: basic + intermediate + refined content.
/// "Most of the basic and intermediate data categories are discarded"
/// downstream (§3.2) — that discarding is the AOD step (event/aod.h).
struct RecoEvent {
  uint32_t run_number = 0;
  uint64_t event_number = 0;
  uint32_t trigger_bits = 0;
  double weight = 1.0;
  std::vector<Track> tracks;
  std::vector<CaloCluster> clusters;
  std::vector<PhysicsObject> objects;
  /// Reconstructed primary-vertex count (pileup estimate).
  int vertex_count = 0;

  bool operator==(const RecoEvent&) const = default;
};

// RECO record layouts (serialize/record.h, docs/FORMAT.md). RecoEvent's
// wire order differs from its member order: vertex_count precedes the lists.
constexpr auto RecordLayout(const Track*) {
  return Record("Track",
                Field<&Track::momentum, wire::FourVec>("momentum"),
                Field<&Track::charge, wire::SVarint32>("charge"),
                Field<&Track::hit_count, wire::SVarint32>("hit_count"),
                Field<&Track::chi2, wire::F64>("chi2"),
                Field<&Track::d0_mm, wire::F64>("d0_mm"));
}

constexpr auto RecordLayout(const CaloCluster*) {
  return Record("CaloCluster",
                Field<&CaloCluster::energy, wire::F64>("energy"),
                Field<&CaloCluster::eta, wire::F64>("eta"),
                Field<&CaloCluster::phi, wire::F64>("phi"),
                Field<&CaloCluster::em_fraction, wire::F64>("em_fraction"),
                Field<&CaloCluster::cell_count, wire::SVarint32>("cell_count"));
}

constexpr auto RecordLayout(const PhysicsObject*) {
  return Record(
      "PhysicsObject",
      Field<&PhysicsObject::type, wire::EnumU8<ObjectType::kMet>>("type"),
      Field<&PhysicsObject::momentum, wire::FourVec>("momentum"),
      Field<&PhysicsObject::charge, wire::SVarint32>("charge"),
      Field<&PhysicsObject::isolation, wire::F64>("isolation"),
      Field<&PhysicsObject::quality, wire::F64>("quality"),
      Field<&PhysicsObject::displacement_mm, wire::F64>("displacement_mm"));
}

constexpr auto RecordLayout(const RecoEvent*) {
  return Record(
      "RecoEvent", Field<&RecoEvent::run_number, wire::U32>("run_number"),
      Field<&RecoEvent::event_number, wire::Varint>("event_number"),
      Field<&RecoEvent::trigger_bits, wire::U32>("trigger_bits"),
      Field<&RecoEvent::weight, wire::F64>("weight"),
      Field<&RecoEvent::vertex_count, wire::SVarint32>("vertex_count"),
      Field<&RecoEvent::tracks, wire::List<Track>>("tracks"),
      Field<&RecoEvent::clusters, wire::List<CaloCluster>>("clusters"),
      Field<&RecoEvent::objects, wire::List<PhysicsObject>>("objects"));
}

}  // namespace daspos

#endif  // DASPOS_EVENT_RECO_H_
