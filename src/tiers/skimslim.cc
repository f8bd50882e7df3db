#include "tiers/skimslim.h"

#include "serialize/binary.h"
#include "serialize/container.h"
#include "support/metrics_registry.h"
#include "support/strings.h"
#include "support/trace.h"

namespace daspos {

SkimSpec SkimSpec::All() {
  SkimSpec spec;
  spec.descriptor = Json::Object();
  spec.descriptor["kind"] = "all";
  return spec;
}

SkimSpec SkimSpec::RequireObjects(ObjectType type, int count, double min_pt) {
  SkimSpec spec;
  spec.descriptor = Json::Object();
  spec.descriptor["kind"] = "require_objects";
  spec.descriptor["type"] = std::string(ObjectTypeName(type));
  spec.descriptor["count"] = count;
  spec.descriptor["min_pt"] = min_pt;
  spec.name = "require_" + std::to_string(count) + "_" +
              std::string(ObjectTypeName(type)) + "_pt" +
              FormatDouble(min_pt, 3);
  spec.description = "keep events with >= " + std::to_string(count) + " " +
                     std::string(ObjectTypeName(type)) + " objects with pt > " +
                     FormatDouble(min_pt, 4) + " GeV";
  spec.predicate = [type, count, min_pt](const AodEvent& event) {
    int found = 0;
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == type && obj.momentum.Pt() > min_pt) ++found;
    }
    return found >= count;
  };
  return spec;
}

SkimSpec SkimSpec::RequireTrigger(uint32_t mask) {
  SkimSpec spec;
  spec.descriptor = Json::Object();
  spec.descriptor["kind"] = "trigger";
  spec.descriptor["mask"] = mask;
  spec.name = "trigger_mask_" + std::to_string(mask);
  spec.description =
      "keep events with any of trigger bits " + std::to_string(mask);
  spec.predicate = [mask](const AodEvent& event) {
    return (event.trigger_bits & mask) != 0;
  };
  return spec;
}

Json SkimSpec::ToJson() const {
  Json json = Json::Object();
  json["name"] = name;
  json["description"] = description;
  json["descriptor"] = descriptor;
  return json;
}

Result<SkimSpec> SkimSpec::FromJson(const Json& json) {
  const Json& descriptor =
      json.Has("descriptor") ? json.Get("descriptor") : json;
  if (!descriptor.is_object() || !descriptor.Has("kind")) {
    return Status::Unimplemented(
        "skim has no machine-readable descriptor; only direct code "
        "preservation can restore it");
  }
  std::string kind = descriptor.Get("kind").as_string();
  if (kind == "all") return All();
  if (kind == "require_objects") {
    DASPOS_ASSIGN_OR_RETURN(
        ObjectType type,
        ObjectTypeFromName(descriptor.Get("type").as_string()));
    return RequireObjects(type,
                          static_cast<int>(descriptor.Get("count").as_int()),
                          descriptor.Get("min_pt").as_number());
  }
  if (kind == "trigger") {
    return RequireTrigger(
        static_cast<uint32_t>(descriptor.Get("mask").as_int()));
  }
  return Status::Unimplemented("unknown skim kind '" + kind + "'");
}

SlimSpec SlimSpec::None() { return SlimSpec{}; }

SlimSpec SlimSpec::LeptonsOnly(double min_pt) {
  SlimSpec spec;
  spec.name = "leptons_pt" + FormatDouble(min_pt, 3);
  spec.keep_types = {ObjectType::kElectron, ObjectType::kMuon};
  spec.min_object_pt = min_pt;
  return spec;
}

SlimSpec SlimSpec::Objects(std::vector<ObjectType> types, double min_pt,
                           std::string name) {
  SlimSpec spec;
  spec.name = std::move(name);
  spec.keep_types = std::move(types);
  spec.min_object_pt = min_pt;
  return spec;
}

AodEvent SlimSpec::Apply(const AodEvent& event) const {
  AodEvent out = event;
  out.objects.clear();
  for (const PhysicsObject& obj : event.objects) {
    if (obj.type == ObjectType::kMet) {
      out.objects.push_back(obj);
      continue;
    }
    bool keep_type = false;
    for (ObjectType type : keep_types) {
      if (obj.type == type) keep_type = true;
    }
    if (keep_type && obj.momentum.Pt() >= min_object_pt) {
      out.objects.push_back(obj);
    }
  }
  return out;
}

Json SlimSpec::ToJson() const {
  Json json = Json::Object();
  json["name"] = name;
  Json types = Json::Array();
  for (ObjectType type : keep_types) {
    types.push_back(std::string(ObjectTypeName(type)));
  }
  json["keep_types"] = std::move(types);
  json["min_object_pt"] = min_object_pt;
  return json;
}

Result<SlimSpec> SlimSpec::FromJson(const Json& json) {
  if (!json.is_object() || !json.Has("keep_types")) {
    return Status::InvalidArgument("slim JSON missing 'keep_types'");
  }
  SlimSpec spec;
  spec.name = json.Get("name").as_string();
  spec.keep_types.clear();
  const Json& types = json.Get("keep_types");
  for (size_t i = 0; i < types.size(); ++i) {
    DASPOS_ASSIGN_OR_RETURN(ObjectType type,
                            ObjectTypeFromName(types.at(i).as_string()));
    spec.keep_types.push_back(type);
  }
  spec.min_object_pt = json.Get("min_object_pt").as_number();
  return spec;
}

Result<std::string> DeriveDataset(const DatasetInfo& input_info,
                                  const std::vector<AodEvent>& events,
                                  const std::string& output_name,
                                  const SkimSpec& skim, const SlimSpec& slim,
                                  DerivationStats* stats, ThreadPool* pool) {
  Span span("tiers:derive", "tiers");
  span.AddAttribute("output", output_name);
  DatasetInfo output_info;
  output_info.tier = DataTier::kDerived;
  output_info.name = output_name;
  output_info.producer = "derivation(skim=" + skim.name + ",slim=" +
                         slim.name + ")";
  output_info.parents = {input_info.name};
  output_info.description = skim.description;

  // Build the container by hand so the derivation description rides in the
  // metadata (the "logical skimming/slimming description" of §3.2).
  Json meta = output_info.ToJson();
  meta["schema"] = std::string(TierSchema(DataTier::kDerived));
  meta["schema_version"] = 1;
  Json derivation = Json::Object();
  derivation["skim"] = skim.name;
  derivation["skim_description"] = skim.description;
  derivation["slim"] = slim.ToJson();
  meta["derivation"] = std::move(derivation);

  // Chunks filter and re-encode their events in parallel and splice them
  // in chunk order, so the blob matches the serial loop byte for byte.
  ContainerWriter writer(meta);
  AppendRecords(&writer, events.size(), pool,
                [&](size_t i, BinaryWriter* record) {
                  if (!skim.predicate(events[i])) return false;
                  EncodeRecord(slim.Apply(events[i]), record);
                  return true;
                });
  const uint64_t kept = writer.record_count();
  std::string blob = writer.Finish();
  span.AddAttribute("input_events", static_cast<uint64_t>(events.size()));
  span.AddAttribute("output_events", kept);
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter(metric_names::kTiersInputEventsTotal)
      .Increment(static_cast<uint64_t>(events.size()));
  registry.GetCounter(metric_names::kTiersOutputEventsTotal).Increment(kept);
  if (stats != nullptr) {
    stats->input_events = events.size();
    stats->output_events = kept;
    stats->output_bytes = blob.size();
  }
  return blob;
}

Result<std::string> DeriveDataset(std::string_view aod_blob,
                                  const std::string& output_name,
                                  const SkimSpec& skim, const SlimSpec& slim,
                                  DerivationStats* stats, ThreadPool* pool) {
  DatasetInfo input_info;
  DASPOS_ASSIGN_OR_RETURN(std::vector<AodEvent> events,
                          ReadAodDataset(aod_blob, &input_info, pool));
  if (stats != nullptr) stats->input_bytes = aod_blob.size();
  return DeriveDataset(input_info, events, output_name, skim, slim, stats,
                       pool);
}

}  // namespace daspos
