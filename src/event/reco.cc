#include "event/reco.h"

namespace daspos {

std::string_view ObjectTypeName(ObjectType type) {
  switch (type) {
    case ObjectType::kElectron:
      return "electron";
    case ObjectType::kMuon:
      return "muon";
    case ObjectType::kPhoton:
      return "photon";
    case ObjectType::kJet:
      return "jet";
    case ObjectType::kMet:
      return "met";
  }
  return "unknown";
}

Result<ObjectType> ObjectTypeFromName(std::string_view name) {
  for (ObjectType type :
       {ObjectType::kElectron, ObjectType::kMuon, ObjectType::kPhoton,
        ObjectType::kJet, ObjectType::kMet}) {
    if (name == ObjectTypeName(type)) return type;
  }
  return Status::InvalidArgument("unknown object type '" +
                                 std::string(name) + "'");
}

namespace {

void PutFourVector(BinaryWriter* writer, const FourVector& v) {
  writer->PutDouble(v.px());
  writer->PutDouble(v.py());
  writer->PutDouble(v.pz());
  writer->PutDouble(v.e());
}

Result<FourVector> GetFourVector(BinaryReader* reader) {
  DASPOS_ASSIGN_OR_RETURN(double px, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(double py, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(double pz, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(double e, reader->GetDouble());
  return FourVector(px, py, pz, e);
}

}  // namespace

void PhysicsObject::Serialize(BinaryWriter* writer) const {
  writer->PutU8(static_cast<uint8_t>(type));
  PutFourVector(writer, momentum);
  writer->PutSVarint(charge);
  writer->PutDouble(isolation);
  writer->PutDouble(quality);
  writer->PutDouble(displacement_mm);
}

Result<PhysicsObject> PhysicsObject::Deserialize(BinaryReader* reader) {
  PhysicsObject obj;
  DASPOS_ASSIGN_OR_RETURN(uint8_t type, reader->GetU8());
  if (type > static_cast<uint8_t>(ObjectType::kMet)) {
    return Status::Corruption("bad physics-object type");
  }
  obj.type = static_cast<ObjectType>(type);
  DASPOS_ASSIGN_OR_RETURN(obj.momentum, GetFourVector(reader));
  DASPOS_ASSIGN_OR_RETURN(obj.charge, reader->GetSVarint32());
  DASPOS_ASSIGN_OR_RETURN(obj.isolation, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(obj.quality, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(obj.displacement_mm, reader->GetDouble());
  return obj;
}

void RecoEvent::Serialize(BinaryWriter* writer) const {
  writer->PutU32(run_number);
  writer->PutVarint(event_number);
  writer->PutU32(trigger_bits);
  writer->PutDouble(weight);
  writer->PutSVarint(vertex_count);

  writer->PutVarint(tracks.size());
  for (const Track& t : tracks) {
    PutFourVector(writer, t.momentum);
    writer->PutSVarint(t.charge);
    writer->PutSVarint(t.hit_count);
    writer->PutDouble(t.chi2);
    writer->PutDouble(t.d0_mm);
  }

  writer->PutVarint(clusters.size());
  for (const CaloCluster& c : clusters) {
    writer->PutDouble(c.energy);
    writer->PutDouble(c.eta);
    writer->PutDouble(c.phi);
    writer->PutDouble(c.em_fraction);
    writer->PutSVarint(c.cell_count);
  }

  writer->PutVarint(objects.size());
  for (const PhysicsObject& obj : objects) obj.Serialize(writer);
}

Result<RecoEvent> RecoEvent::Deserialize(BinaryReader* reader) {
  RecoEvent event;
  DASPOS_ASSIGN_OR_RETURN(event.run_number, reader->GetU32());
  DASPOS_ASSIGN_OR_RETURN(event.event_number, reader->GetVarint());
  DASPOS_ASSIGN_OR_RETURN(event.trigger_bits, reader->GetU32());
  DASPOS_ASSIGN_OR_RETURN(event.weight, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(event.vertex_count, reader->GetSVarint32());

  DASPOS_ASSIGN_OR_RETURN(uint64_t n_tracks, reader->GetVarint());
  // Allocation guards on all three counts: see GenEvent::Deserialize.
  if (n_tracks > reader->remaining()) {
    return Status::Corruption("track count exceeds record size");
  }
  event.tracks.reserve(static_cast<size_t>(n_tracks));
  for (uint64_t i = 0; i < n_tracks; ++i) {
    Track t;
    DASPOS_ASSIGN_OR_RETURN(t.momentum, GetFourVector(reader));
    DASPOS_ASSIGN_OR_RETURN(t.charge, reader->GetSVarint32());
    DASPOS_ASSIGN_OR_RETURN(t.hit_count, reader->GetSVarint32());
    DASPOS_ASSIGN_OR_RETURN(t.chi2, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(t.d0_mm, reader->GetDouble());
    event.tracks.push_back(t);
  }

  DASPOS_ASSIGN_OR_RETURN(uint64_t n_clusters, reader->GetVarint());
  if (n_clusters > reader->remaining()) {
    return Status::Corruption("cluster count exceeds record size");
  }
  event.clusters.reserve(static_cast<size_t>(n_clusters));
  for (uint64_t i = 0; i < n_clusters; ++i) {
    CaloCluster c;
    DASPOS_ASSIGN_OR_RETURN(c.energy, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(c.eta, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(c.phi, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(c.em_fraction, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(c.cell_count, reader->GetSVarint32());
    event.clusters.push_back(c);
  }

  DASPOS_ASSIGN_OR_RETURN(uint64_t n_objects, reader->GetVarint());
  if (n_objects > reader->remaining()) {
    return Status::Corruption("object count exceeds record size");
  }
  event.objects.reserve(static_cast<size_t>(n_objects));
  for (uint64_t i = 0; i < n_objects; ++i) {
    DASPOS_ASSIGN_OR_RETURN(PhysicsObject obj,
                            PhysicsObject::Deserialize(reader));
    event.objects.push_back(obj);
  }
  return event;
}

std::string RecoEvent::ToRecord() const {
  BinaryWriter writer;
  Serialize(&writer);
  return writer.TakeBuffer();
}

Result<RecoEvent> RecoEvent::FromRecord(std::string_view record) {
  BinaryReader reader(record);
  DASPOS_ASSIGN_OR_RETURN(RecoEvent event, Deserialize(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after RecoEvent record");
  }
  return event;
}

}  // namespace daspos
