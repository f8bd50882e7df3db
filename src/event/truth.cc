#include "event/truth.h"

namespace daspos {

std::vector<GenParticle> GenEvent::FinalState() const {
  std::vector<GenParticle> out;
  for (const GenParticle& p : particles) {
    if (p.IsFinalState()) out.push_back(p);
  }
  return out;
}

void GenEvent::Serialize(BinaryWriter* writer) const {
  writer->PutVarint(event_number);
  writer->PutSVarint(process_id);
  writer->PutDouble(weight);
  writer->PutVarint(particles.size());
  for (const GenParticle& p : particles) {
    writer->PutSVarint(p.pdg_id);
    writer->PutSVarint(p.status);
    writer->PutSVarint(p.mother);
    writer->PutDouble(p.momentum.px());
    writer->PutDouble(p.momentum.py());
    writer->PutDouble(p.momentum.pz());
    writer->PutDouble(p.momentum.e());
    writer->PutDouble(p.vertex_mm);
  }
}

Result<GenEvent> GenEvent::Deserialize(BinaryReader* reader) {
  GenEvent event;
  DASPOS_ASSIGN_OR_RETURN(event.event_number, reader->GetVarint());
  DASPOS_ASSIGN_OR_RETURN(event.process_id, reader->GetSVarint32());
  DASPOS_ASSIGN_OR_RETURN(event.weight, reader->GetDouble());
  DASPOS_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
  // Guard the allocation: every particle needs bytes in the stream, so a
  // count beyond the remaining input is corruption, not a reserve target.
  if (count > reader->remaining()) {
    return Status::Corruption("particle count exceeds record size");
  }
  event.particles.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    GenParticle p;
    DASPOS_ASSIGN_OR_RETURN(p.pdg_id, reader->GetSVarint32());
    DASPOS_ASSIGN_OR_RETURN(p.status, reader->GetSVarint32());
    DASPOS_ASSIGN_OR_RETURN(p.mother, reader->GetSVarint32());
    DASPOS_ASSIGN_OR_RETURN(double px, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(double py, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(double pz, reader->GetDouble());
    DASPOS_ASSIGN_OR_RETURN(double e, reader->GetDouble());
    p.momentum = FourVector(px, py, pz, e);
    DASPOS_ASSIGN_OR_RETURN(p.vertex_mm, reader->GetDouble());
    event.particles.push_back(p);
  }
  return event;
}

std::string GenEvent::ToRecord() const {
  BinaryWriter writer;
  Serialize(&writer);
  return writer.TakeBuffer();
}

Result<GenEvent> GenEvent::FromRecord(std::string_view record) {
  BinaryReader reader(record);
  DASPOS_ASSIGN_OR_RETURN(GenEvent event, Deserialize(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after GenEvent record");
  }
  return event;
}

}  // namespace daspos
