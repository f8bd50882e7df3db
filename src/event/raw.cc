#include "event/raw.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace daspos {

namespace {

/// True when `value` is exactly some float widened to double — the only
/// doubles the encoder writes for a hit time, and the only ones that
/// narrow and re-encode to the same bytes. Out-of-range values are checked
/// first: narrowing them would overflow.
bool IsWidenedFloat(double value) {
  if (std::isfinite(value) &&
      std::fabs(value) > std::numeric_limits<float>::max()) {
    return false;
  }
  const double widened = static_cast<double>(static_cast<float>(value));
  return std::memcmp(&widened, &value, sizeof(value)) == 0;
}

}  // namespace

void RawEvent::Serialize(BinaryWriter* writer) const {
  writer->PutU32(run_number);
  writer->PutVarint(event_number);
  writer->PutU32(trigger_bits);
  writer->PutVarint(hits.size());
  for (const RawHit& hit : hits) {
    writer->PutU8(static_cast<uint8_t>(hit.detector));
    writer->PutVarint(hit.channel);
    writer->PutVarint(hit.adc);
    // float stored as double: simple and lossless.
    writer->PutDouble(hit.time_ns);
  }
}

Result<RawEvent> RawEvent::Deserialize(BinaryReader* reader) {
  RawEvent event;
  DASPOS_ASSIGN_OR_RETURN(event.run_number, reader->GetU32());
  DASPOS_ASSIGN_OR_RETURN(event.event_number, reader->GetVarint());
  DASPOS_ASSIGN_OR_RETURN(event.trigger_bits, reader->GetU32());
  DASPOS_ASSIGN_OR_RETURN(uint64_t count, reader->GetVarint());
  // Allocation guard: see GenEvent::Deserialize.
  if (count > reader->remaining()) {
    return Status::Corruption("hit count exceeds record size");
  }
  event.hits.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    RawHit hit;
    DASPOS_ASSIGN_OR_RETURN(uint8_t det, reader->GetU8());
    if (det > static_cast<uint8_t>(SubDetector::kMuon)) {
      return Status::Corruption("bad subdetector id in raw hit");
    }
    hit.detector = static_cast<SubDetector>(det);
    DASPOS_ASSIGN_OR_RETURN(uint64_t channel,
                            reader->GetVarintAtMost(UINT32_MAX));
    hit.channel = static_cast<uint32_t>(channel);
    DASPOS_ASSIGN_OR_RETURN(uint64_t adc, reader->GetVarintAtMost(UINT16_MAX));
    hit.adc = static_cast<uint16_t>(adc);
    DASPOS_ASSIGN_OR_RETURN(double time, reader->GetDouble());
    if (!IsWidenedFloat(time)) {
      return Status::Corruption("raw hit time is not a float value");
    }
    hit.time_ns = static_cast<float>(time);
    event.hits.push_back(hit);
  }
  return event;
}

std::string RawEvent::ToRecord() const {
  BinaryWriter writer;
  Serialize(&writer);
  return writer.TakeBuffer();
}

Result<RawEvent> RawEvent::FromRecord(std::string_view record) {
  BinaryReader reader(record);
  DASPOS_ASSIGN_OR_RETURN(RawEvent event, Deserialize(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after RawEvent record");
  }
  return event;
}

}  // namespace daspos
