// Analysis Object Data (AOD): "only the refined objects necessary for
// further analysis are kept ... the basis for many physics analyses" (§3.2).
// Derived from RecoEvent by dropping tracks/clusters (intermediate data).
#ifndef DASPOS_EVENT_AOD_H_
#define DASPOS_EVENT_AOD_H_

#include <cstdint>
#include <vector>

#include "event/reco.h"

namespace daspos {

/// The analysis-facing event: refined physics objects plus event-level
/// summaries, nothing else.
struct AodEvent {
  uint32_t run_number = 0;
  uint64_t event_number = 0;
  uint32_t trigger_bits = 0;
  double weight = 1.0;
  int vertex_count = 0;
  std::vector<PhysicsObject> objects;

  /// Builds an AOD event from full reconstruction output (the RECO->AOD
  /// workflow step): keeps refined objects, drops basic and intermediate
  /// categories.
  static AodEvent FromReco(const RecoEvent& reco);

  /// Objects of one type, ordered as stored (descending pt by convention of
  /// the producer).
  std::vector<PhysicsObject> ObjectsOfType(ObjectType type) const;

  /// Missing transverse energy object, if present.
  const PhysicsObject* Met() const;

  bool operator==(const AodEvent&) const = default;
};

// AOD record layout (serialize/record.h, docs/FORMAT.md); derived datasets
// keep it.
constexpr auto RecordLayout(const AodEvent*) {
  return Record(
      "AodEvent", Field<&AodEvent::run_number, wire::U32>("run_number"),
      Field<&AodEvent::event_number, wire::Varint>("event_number"),
      Field<&AodEvent::trigger_bits, wire::U32>("trigger_bits"),
      Field<&AodEvent::weight, wire::F64>("weight"),
      Field<&AodEvent::vertex_count, wire::SVarint32>("vertex_count"),
      Field<&AodEvent::objects, wire::List<PhysicsObject>>("objects"));
}

}  // namespace daspos

#endif  // DASPOS_EVENT_AOD_H_
