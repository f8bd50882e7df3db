#include "event/aod.h"

namespace daspos {

AodEvent AodEvent::FromReco(const RecoEvent& reco) {
  AodEvent aod;
  aod.run_number = reco.run_number;
  aod.event_number = reco.event_number;
  aod.trigger_bits = reco.trigger_bits;
  aod.weight = reco.weight;
  aod.vertex_count = reco.vertex_count;
  aod.objects = reco.objects;
  return aod;
}

std::vector<PhysicsObject> AodEvent::ObjectsOfType(ObjectType type) const {
  std::vector<PhysicsObject> out;
  for (const PhysicsObject& obj : objects) {
    if (obj.type == type) out.push_back(obj);
  }
  return out;
}

const PhysicsObject* AodEvent::Met() const {
  for (const PhysicsObject& obj : objects) {
    if (obj.type == ObjectType::kMet) return &obj;
  }
  return nullptr;
}

void AodEvent::Serialize(BinaryWriter* writer) const {
  writer->PutU32(run_number);
  writer->PutVarint(event_number);
  writer->PutU32(trigger_bits);
  writer->PutDouble(weight);
  writer->PutSVarint(vertex_count);
  writer->PutVarint(objects.size());
  for (const PhysicsObject& obj : objects) obj.Serialize(writer);
}

Result<AodEvent> AodEvent::Deserialize(BinaryReader* reader) {
  AodEvent event;
  DASPOS_ASSIGN_OR_RETURN(event.run_number, reader->GetU32());
  DASPOS_ASSIGN_OR_RETURN(event.event_number, reader->GetVarint());
  DASPOS_ASSIGN_OR_RETURN(event.trigger_bits, reader->GetU32());
  DASPOS_ASSIGN_OR_RETURN(event.weight, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(event.vertex_count, reader->GetSVarint32());
  DASPOS_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
  // Allocation guard: see GenEvent::Deserialize.
  if (count > reader->remaining()) {
    return Status::Corruption("object count exceeds record size");
  }
  event.objects.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    DASPOS_ASSIGN_OR_RETURN(PhysicsObject obj,
                            PhysicsObject::Deserialize(reader));
    event.objects.push_back(obj);
  }
  return event;
}

std::string AodEvent::ToRecord() const {
  BinaryWriter writer;
  Serialize(&writer);
  return writer.TakeBuffer();
}

Result<AodEvent> AodEvent::FromRecord(std::string_view record) {
  BinaryReader reader(record);
  DASPOS_ASSIGN_OR_RETURN(AodEvent event, Deserialize(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after AodEvent record");
  }
  return event;
}

}  // namespace daspos
