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

}  // namespace daspos
