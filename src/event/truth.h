// Truth-level (generator) event record, HepMC-like: the exchange format the
// RIVET-analog consumes ("any Monte Carlo output can be juxtaposed with the
// data, as long as it can produce output in HepMC format", §2.3).
#ifndef DASPOS_EVENT_TRUTH_H_
#define DASPOS_EVENT_TRUTH_H_

#include <cstdint>
#include <vector>

#include "event/fourvector.h"
#include "serialize/record.h"

namespace daspos {

/// One generator particle. `status` follows the HepMC convention subset we
/// use: 1 = final state, 2 = decayed, 3 = hard process.
struct GenParticle {
  int pdg_id = 0;
  int status = 1;
  /// Index of the mother particle within the event, or -1 for beam-level.
  int mother = -1;
  FourVector momentum;
  /// Production vertex displacement from the beamline, in millimetres —
  /// carries lifetime information (D-meson master class).
  double vertex_mm = 0.0;

  bool IsFinalState() const { return status == 1; }
  bool operator==(const GenParticle&) const = default;
};

/// One generated collision.
struct GenEvent {
  uint64_t event_number = 0;
  /// Which physics process produced the event (mc/process.h ids).
  int process_id = 0;
  /// Generator weight (cross-section normalization happens downstream).
  double weight = 1.0;
  std::vector<GenParticle> particles;

  /// Final-state (status 1) particles.
  std::vector<GenParticle> FinalState() const;

  bool operator==(const GenEvent&) const = default;
};

// GEN record layouts (serialize/record.h, docs/FORMAT.md).
constexpr auto RecordLayout(const GenParticle*) {
  return Record("GenParticle",
                Field<&GenParticle::pdg_id, wire::SVarint32>("pdg_id"),
                Field<&GenParticle::status, wire::SVarint32>("status"),
                Field<&GenParticle::mother, wire::SVarint32>("mother"),
                Field<&GenParticle::momentum, wire::FourVec>("momentum"),
                Field<&GenParticle::vertex_mm, wire::F64>("vertex_mm"));
}

constexpr auto RecordLayout(const GenEvent*) {
  return Record("GenEvent",
                Field<&GenEvent::event_number, wire::Varint>("event_number"),
                Field<&GenEvent::process_id, wire::SVarint32>("process_id"),
                Field<&GenEvent::weight, wire::F64>("weight"),
                Field<&GenEvent::particles, wire::List<GenParticle>>(
                    "particles"));
}

}  // namespace daspos

#endif  // DASPOS_EVENT_TRUTH_H_
