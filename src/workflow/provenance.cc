#include "workflow/provenance.h"

#include <algorithm>
#include <deque>
#include <set>

namespace daspos {

Json ProvenanceRecord::ToJson() const {
  Json json = Json::Object();
  json["dataset"] = dataset;
  json["producer"] = producer;
  json["producer_version"] = producer_version;
  json["config_hash"] = config_hash;
  json["config"] = config;
  Json parent_list = Json::Array();
  for (const std::string& parent : parents) parent_list.push_back(parent);
  json["parents"] = std::move(parent_list);
  json["sequence"] = sequence;
  json["output_bytes"] = output_bytes;
  json["output_events"] = output_events;
  return json;
}

Result<ProvenanceRecord> ProvenanceRecord::FromJson(const Json& json) {
  if (!json.is_object() || !json.Has("dataset")) {
    return Status::Corruption("provenance record missing 'dataset'");
  }
  ProvenanceRecord record;
  record.dataset = json.Get("dataset").as_string();
  record.producer = json.Get("producer").as_string();
  record.producer_version = json.Get("producer_version").as_string();
  record.config_hash = json.Get("config_hash").as_string();
  record.config = json.Get("config");
  const Json& parents = json.Get("parents");
  for (size_t i = 0; i < parents.size(); ++i) {
    record.parents.push_back(parents.at(i).as_string());
  }
  DASPOS_ASSIGN_OR_RETURN(record.sequence,
                          ReadInteger<uint64_t>(json, "sequence"));
  DASPOS_ASSIGN_OR_RETURN(record.output_bytes,
                          ReadInteger<uint64_t>(json, "output_bytes"));
  DASPOS_ASSIGN_OR_RETURN(record.output_events,
                          ReadInteger<uint64_t>(json, "output_events"));
  return record;
}

Status ProvenanceStore::Add(ProvenanceRecord record) {
  if (record.dataset.empty()) {
    return Status::InvalidArgument("provenance record needs a dataset name");
  }
  if (records_.count(record.dataset) > 0) {
    return Status::AlreadyExists("provenance already recorded for '" +
                                 record.dataset + "'");
  }
  record.sequence = next_sequence_++;
  order_.push_back(record.dataset);
  records_.emplace(record.dataset, std::move(record));
  return Status::OK();
}

Result<ProvenanceRecord> ProvenanceStore::Get(
    const std::string& dataset) const {
  auto it = records_.find(dataset);
  if (it == records_.end()) {
    return Status::NotFound("no provenance for '" + dataset + "'");
  }
  return it->second;
}

bool ProvenanceStore::Has(const std::string& dataset) const {
  return records_.count(dataset) > 0;
}

std::vector<std::string> ProvenanceStore::Datasets() const { return order_; }

Result<std::vector<std::string>> ProvenanceStore::Ancestry(
    const std::string& dataset) const {
  if (!Has(dataset)) {
    return Status::NotFound("no provenance for '" + dataset + "'");
  }
  std::vector<std::string> out;
  std::set<std::string> seen;
  std::deque<std::string> frontier;
  frontier.push_back(dataset);
  seen.insert(dataset);
  while (!frontier.empty()) {
    std::string current = frontier.front();
    frontier.pop_front();
    auto it = records_.find(current);
    if (it == records_.end()) continue;  // chain breaks here
    for (const std::string& parent : it->second.parents) {
      if (seen.insert(parent).second) {
        out.push_back(parent);
        frontier.push_back(parent);
      }
    }
  }
  return out;
}

std::vector<std::string> ProvenanceStore::MissingParents() const {
  std::set<std::string> missing;
  for (const auto& [dataset, record] : records_) {
    (void)dataset;
    for (const std::string& parent : record.parents) {
      if (!Has(parent)) missing.insert(parent);
    }
  }
  return {missing.begin(), missing.end()};
}

std::string ProvenanceStore::Serialize() const {
  Json json = Json::Array();
  for (const std::string& dataset : order_) {
    json.push_back(records_.at(dataset).ToJson());
  }
  return json.Dump(2);
}

Result<ProvenanceStore> ProvenanceStore::Parse(const std::string& text) {
  DASPOS_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  if (!json.is_array()) {
    return Status::Corruption("provenance document must be a JSON array");
  }
  ProvenanceStore store;
  for (size_t i = 0; i < json.size(); ++i) {
    DASPOS_ASSIGN_OR_RETURN(ProvenanceRecord record,
                            ProvenanceRecord::FromJson(json.at(i)));
    uint64_t sequence = record.sequence;
    DASPOS_RETURN_IF_ERROR(store.Add(std::move(record)));
    // Preserve original sequence numbers.
    store.records_[store.order_.back()].sequence = sequence;
    store.next_sequence_ = std::max(store.next_sequence_, sequence + 1);
  }
  return store;
}

}  // namespace daspos
