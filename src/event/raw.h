// Raw detector data: "all electronic detector signals originating in a
// single interaction" (§3.1). This is the largest tier; reconstruction
// converts it into objects and it is then normally discarded from analysis
// formats (§3.2).
#ifndef DASPOS_EVENT_RAW_H_
#define DASPOS_EVENT_RAW_H_

#include <cstdint>
#include <vector>

#include "serialize/record.h"

namespace daspos {

/// Identifies which detector subsystem a channel belongs to.
enum class SubDetector : uint8_t {
  kTracker = 0,
  kEcal = 1,
  kHcal = 2,
  kMuon = 3,
};

/// One fired electronics channel.
struct RawHit {
  SubDetector detector = SubDetector::kTracker;
  /// Dense channel index within the subsystem (layer/cell encoding is the
  /// detector description's business, detsim/geometry.h).
  uint32_t channel = 0;
  /// Digitized pulse height (ADC counts).
  uint16_t adc = 0;
  /// Hit time relative to the bunch crossing, in nanoseconds.
  float time_ns = 0.0f;

  bool operator==(const RawHit&) const = default;
};

/// One triggered readout of the whole detector.
struct RawEvent {
  uint32_t run_number = 0;
  uint64_t event_number = 0;
  /// Bitmask of fired trigger lines (detsim/trigger.h).
  uint32_t trigger_bits = 0;
  std::vector<RawHit> hits;

  bool operator==(const RawEvent&) const = default;
};

// RAW record layouts (serialize/record.h, docs/FORMAT.md).
constexpr auto RecordLayout(const RawHit*) {
  return Record(
      "RawHit",
      Field<&RawHit::detector, wire::EnumU8<SubDetector::kMuon>>("detector"),
      Field<&RawHit::channel, wire::UVarint<32>>("channel"),
      Field<&RawHit::adc, wire::UVarint<16>>("adc"),
      Field<&RawHit::time_ns, wire::F32AsF64>("time_ns"));
}

constexpr auto RecordLayout(const RawEvent*) {
  return Record("RawEvent",
                Field<&RawEvent::run_number, wire::U32>("run_number"),
                Field<&RawEvent::event_number, wire::Varint>("event_number"),
                Field<&RawEvent::trigger_bits, wire::U32>("trigger_bits"),
                Field<&RawEvent::hits, wire::List<RawHit>>("hits"));
}

}  // namespace daspos

#endif  // DASPOS_EVENT_RAW_H_
