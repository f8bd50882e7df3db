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

}  // namespace daspos
