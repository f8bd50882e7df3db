#include "lint/checks.h"

#include <algorithm>

#include "archive/archive.h"
#include "conditions/store.h"
#include "lhada/lhada.h"
#include "support/sha256.h"
#include "support/strings.h"

namespace daspos {
namespace lint {

namespace {

constexpr size_t kNoRank = static_cast<size_t>(-1);

}  // namespace

// --------------------------------------------------------- workflow graph

LintReport CheckWorkflowGraph(const WorkflowGraphSpec& spec,
                              const std::string& artifact) {
  LintReport report;
  const size_t step_count = spec.steps.size();

  std::map<std::string, size_t> producer_of;
  for (size_t i = 0; i < step_count; ++i) {
    producer_of.emplace(spec.steps[i].output, i);
  }

  // Edges and per-step missing external inputs.
  std::vector<std::vector<size_t>> dependents(step_count);
  std::vector<size_t> indegree(step_count, 0);
  std::vector<std::vector<std::string>> missing_external(step_count);
  for (size_t i = 0; i < step_count; ++i) {
    for (const std::string& input : spec.steps[i].inputs) {
      auto it = producer_of.find(input);
      if (it != producer_of.end()) {
        dependents[it->second].push_back(i);
        ++indegree[i];
      } else if (spec.external_inputs.count(input) == 0) {
        missing_external[i].push_back(input);
      }
    }
  }

  // Kahn's algorithm, exactly as the engine schedules: a step becomes ready
  // only once all produced inputs exist and no external input is missing.
  std::vector<size_t> rank(step_count, kNoRank);
  {
    std::vector<size_t> pending = indegree;
    std::vector<size_t> ready;
    for (size_t i = 0; i < step_count; ++i) {
      if (pending[i] == 0 && missing_external[i].empty()) ready.push_back(i);
    }
    size_t next_rank = 0;
    while (!ready.empty()) {
      size_t i = ready.back();
      ready.pop_back();
      rank[i] = next_rank++;
      for (size_t dependent : dependents[i]) {
        if (--pending[dependent] == 0 &&
            missing_external[dependent].empty()) {
          ready.push_back(dependent);
        }
      }
    }
  }

  // W002: inputs nobody can ever provide.
  for (size_t i = 0; i < step_count; ++i) {
    if (missing_external[i].empty()) continue;
    report.Add("W002", artifact, spec.steps[i].name,
               "missing inputs: " + Join(missing_external[i], ", "),
               "produce the dataset with an upstream step or pre-load it "
               "into the context");
  }

  // W001: cycles among unranked steps. Walk producer edges from each
  // unranked step; returning to the start exposes one cycle. Cycles are
  // de-duplicated by membership so A->B->A reports once.
  std::set<size_t> on_cycle;
  std::set<std::set<size_t>> seen_cycles;
  for (size_t start = 0; start < step_count; ++start) {
    if (rank[start] != kNoRank) continue;
    std::vector<size_t> path;
    std::set<size_t> visited;
    // Iterative DFS over "depends on" edges restricted to unranked steps.
    std::vector<std::pair<size_t, size_t>> stack;  // (step, next input idx)
    stack.emplace_back(start, 0);
    path.push_back(start);
    visited.insert(start);
    bool found = false;
    while (!stack.empty() && !found) {
      auto& [current, input_index] = stack.back();
      if (input_index >= spec.steps[current].inputs.size()) {
        stack.pop_back();
        path.pop_back();
        continue;
      }
      const std::string& input = spec.steps[current].inputs[input_index++];
      auto it = producer_of.find(input);
      if (it == producer_of.end() || rank[it->second] != kNoRank) continue;
      size_t producer = it->second;
      if (producer == start) {
        found = true;
        break;
      }
      if (visited.insert(producer).second) {
        stack.emplace_back(producer, 0);
        path.push_back(producer);
      }
    }
    if (!found) continue;
    std::set<size_t> members(path.begin(), path.end());
    for (size_t member : members) on_cycle.insert(member);
    if (!seen_cycles.insert(members).second) continue;
    std::string chain;
    for (size_t member : path) chain += spec.steps[member].name + " -> ";
    chain += spec.steps[start].name;
    report.Add("W001", artifact, spec.steps[start].name,
               "dependency cycle: " + chain,
               "break the cycle by splitting one step's output");
  }

  // W003: unranked steps that are neither missing externals nor on a cycle
  // are transitively blocked; name what they wait for (the engine's
  // "missing inputs" diagnostic, now pre-execution).
  for (size_t i = 0; i < step_count; ++i) {
    if (rank[i] != kNoRank || !missing_external[i].empty() ||
        on_cycle.count(i) > 0) {
      continue;
    }
    std::vector<std::string> waiting;
    for (const std::string& input : spec.steps[i].inputs) {
      auto it = producer_of.find(input);
      if (it != producer_of.end() && rank[it->second] == kNoRank) {
        waiting.push_back(input);
      }
    }
    report.Add("W003", artifact, spec.steps[i].name,
               "missing inputs: " + Join(waiting, ", "),
               "unblock the producing steps first");
  }

  // W004: isolated steps — no produced input, no consumer — in a graph
  // that has other steps to be connected to.
  if (step_count > 1) {
    for (size_t i = 0; i < step_count; ++i) {
      if (indegree[i] > 0 || !dependents[i].empty()) continue;
      report.Add("W004", artifact, spec.steps[i].name,
                 "orphan step: consumes no produced dataset and nothing "
                 "consumes its output '" +
                     spec.steps[i].output + "'",
                 "connect it to the chain or run it as its own workflow");
    }
  }
  return report;
}

// ------------------------------------------------------------- provenance

Result<ProvenanceSpec> ProvenanceSpec::FromJson(const Json& json) {
  if (!json.is_array()) {
    return Status::Corruption("provenance document must be a JSON array");
  }
  ProvenanceSpec spec;
  for (size_t i = 0; i < json.size(); ++i) {
    const Json& entry = json.at(i);
    if (!entry.is_object() || !entry.Has("dataset")) {
      return Status::Corruption("provenance record " + std::to_string(i) +
                                " missing 'dataset'");
    }
    Record record;
    record.dataset = entry.Get("dataset").as_string();
    record.config_hash = entry.Get("config_hash").as_string();
    record.config = entry.Get("config");
    const Json& parents = entry.Get("parents");
    for (size_t p = 0; p < parents.size(); ++p) {
      record.parents.push_back(parents.at(p).as_string());
    }
    spec.records.push_back(std::move(record));
  }
  return spec;
}

LintReport CheckProvenance(const ProvenanceSpec& spec,
                           const std::string& artifact) {
  LintReport report;
  std::map<std::string, const ProvenanceSpec::Record*> by_dataset;
  for (const ProvenanceSpec::Record& record : spec.records) {
    by_dataset.emplace(record.dataset, &record);
  }

  // W101: parents referenced but never recorded, with every referrer named.
  std::map<std::string, std::vector<std::string>> referrers_of_missing;
  for (const ProvenanceSpec::Record& record : spec.records) {
    for (const std::string& parent : record.parents) {
      if (by_dataset.count(parent) == 0) {
        referrers_of_missing[parent].push_back(record.dataset);
      }
    }
  }
  for (const auto& [parent, referrers] : referrers_of_missing) {
    report.Add("W101", artifact, parent,
               "no provenance record, but referenced as a parent by: " +
                   Join(referrers, ", "),
               "capture the producing step's record or archive the dataset "
               "as an external input");
  }

  // W102: a dataset that is its own ancestor. BFS per record over recorded
  // parents; the visited set bounds the walk on cyclic chains.
  for (const ProvenanceSpec::Record& record : spec.records) {
    std::set<std::string> seen;
    std::vector<std::string> frontier = record.parents;
    bool cyclic = false;
    while (!frontier.empty() && !cyclic) {
      std::string current = std::move(frontier.back());
      frontier.pop_back();
      if (current == record.dataset) {
        cyclic = true;
        break;
      }
      if (!seen.insert(current).second) continue;
      auto it = by_dataset.find(current);
      if (it == by_dataset.end()) continue;
      for (const std::string& parent : it->second->parents) {
        frontier.push_back(parent);
      }
    }
    if (cyclic) {
      report.Add("W102", artifact, record.dataset,
                 "dataset is recorded as its own ancestor",
                 "re-capture the chain; parentage must be acyclic");
    }
  }

  // W103: config hash absent, not a SHA-256 hex digest, or not the hash of
  // the record's config (replay refuses such a record).
  for (const ProvenanceSpec::Record& record : spec.records) {
    bool usable = record.config_hash.size() == 64;
    for (char c : record.config_hash) {
      if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) usable = false;
    }
    if (!usable) {
      report.Add("W103", artifact, record.dataset,
                 "config hash '" + record.config_hash +
                     "' is not a SHA-256 hex digest",
                 "re-capture with the canonical config hashing");
      continue;
    }
    const std::string config_hash = Sha256::HashHex(record.config.Dump());
    if (config_hash != record.config_hash) {
      report.Add("W103", artifact, record.dataset,
                 "config hash '" + record.config_hash +
                     "' is stale: the recorded config hashes to " +
                     config_hash,
                 "the config was edited or rotted after capture; re-capture "
                 "the chain");
    }
  }
  return report;
}

// ------------------------------------------------------------ run journal

LintReport CheckJournal(const JournalSpec& journal,
                        const WorkflowGraphSpec& workflow,
                        const std::string& artifact) {
  LintReport report;
  // Step name -> whether it reads any input.
  std::map<std::string, bool> known;
  for (const WorkflowGraphSpec::Step& step : workflow.steps) {
    known[step.name] = !step.inputs.empty();
  }
  std::set<std::string> reported;
  // Resume reads a step's latest entry.
  std::map<std::string, const JournalSpec::Entry*> latest;
  for (const JournalSpec::Entry& entry : journal.entries) {
    latest[entry.step] = &entry;
    if (known.count(entry.step) > 0) continue;
    if (!reported.insert(entry.step).second) continue;
    report.Add("W104", artifact, entry.step,
               "journal checkpoints step '" + entry.step +
                   "', which the workflow does not contain",
               "the checkpoint is ignored on resume; delete the journal if "
               "the workflow was intentionally restructured");
  }
  for (const auto& [step, entry] : latest) {
    auto it = known.find(step);
    if (it == known.end() || !it->second || entry->input_digests) continue;
    report.Add("W105", artifact, step,
               "journal checkpoint of step '" + step +
                   "' records no digests of its inputs",
               "resume re-runs the step; the fresh checkpoint records them");
  }
  return report;
}

// ------------------------------------------------------------------ LHADA

LintReport CheckLhada(const std::string& text, const std::string& artifact) {
  LintReport report;
  auto parsed = lhada::AnalysisDescription::ParseStructure(text);
  if (!parsed.ok()) {
    report.Add("L000", artifact, "", parsed.status().message(),
               "fix the syntax; see the grammar in lhada/lhada.h");
    return report;
  }
  const std::vector<lhada::ObjectDef>& objects = parsed->objects();
  const std::vector<lhada::CutDef>& cuts = parsed->cuts();

  // L004: duplicate names (objects among objects, cuts among cuts or
  // colliding with an object).
  std::set<std::string> object_names;
  for (const lhada::ObjectDef& object : objects) {
    if (!object_names.insert(object.name).second) {
      report.Add("L004", artifact, object.name,
                 "object name defined more than once",
                 "rename one of the definitions");
    }
  }
  std::set<std::string> cut_names;
  std::map<std::string, size_t> first_cut_index;
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (object_names.count(cuts[i].name) > 0 ||
        !cut_names.insert(cuts[i].name).second) {
      report.Add("L004", artifact, cuts[i].name,
                 "cut name collides with an earlier object or cut",
                 "rename one of the definitions");
    }
    first_cut_index.emplace(cuts[i].name, i);
  }

  std::set<std::string> referenced_objects;
  auto reference = [&](const std::string& collection, const std::string& via,
                       const char* code) {
    if (collection.empty()) return;
    referenced_objects.insert(collection);
    if (object_names.count(collection) == 0) {
      report.Add(code, artifact, via,
                 "references undefined object collection '" + collection +
                     "'",
                 "define 'object " + collection + "' or fix the name");
    }
  };

  for (size_t i = 0; i < cuts.size(); ++i) {
    const lhada::CutDef& cut = cuts[i];
    // L002/L003: 'require' discipline.
    for (const std::string& required : cut.requires_cuts) {
      auto it = first_cut_index.find(required);
      if (it == first_cut_index.end()) {
        report.Add("L002", artifact, cut.name,
                   "requires undefined cut '" + required + "'",
                   "define the cut or fix the name");
      } else if (it->second >= i) {
        report.Add("L003", artifact, cut.name,
                   "requires cut '" + required +
                       "' which is not defined earlier",
                   "reorder the cuts; 'require' must reference earlier "
                   "cuts");
      }
    }
    // L001: conditions referencing undefined collections.
    for (const lhada::Condition& condition : cut.conditions) {
      if (condition.kind != lhada::Condition::Kind::kMet) {
        reference(condition.collection_a, cut.name, "L001");
      }
      reference(condition.collection_b, cut.name, "L001");
    }
    // L006: histograms referencing undefined collections.
    for (const lhada::HistDef& hist : cut.hists) {
      reference(hist.quantity.collection_a, cut.name + "/" + hist.tag,
                "L006");
      reference(hist.quantity.collection_b, cut.name + "/" + hist.tag,
                "L006");
    }
    // L007: a cut with neither conditions nor prerequisites is vacuous.
    if (cut.conditions.empty() && cut.requires_cuts.empty()) {
      report.Add("L007", artifact, cut.name,
                 "cut has no conditions and no prerequisites: it passes "
                 "every event",
                 "add a 'select' or fold it into another cut");
    }
  }

  // L005: defined objects nothing ever selects on.
  for (const lhada::ObjectDef& object : objects) {
    if (referenced_objects.count(object.name) == 0) {
      report.Add("L005", artifact, object.name,
                 "object is defined but never used by any condition or "
                 "histogram",
                 "remove the definition or use it in a cut");
    }
  }

  // L008: an analysis with no event-level cuts preserves nothing.
  if (cuts.empty()) {
    report.Add("L008", artifact, parsed->name(),
               "description defines no event-level cuts",
               "add at least one 'cut' block");
  }
  return report;
}

// ---------------------------------------------------------------- archive

LintReport CheckArchive(const ObjectStore& store,
                        const std::string& artifact) {
  LintReport report;
  using Kind = ArchiveInventory::Kind;
  const ArchiveInventory inventory = ArchiveInventory::Take(store);
  // A store that cannot be walked must not lint clean: the objects it did
  // reach are still checked, and the walk failure itself is a finding. An
  // unreadable quarantine area is a G002 of its own unless the walk
  // already reported the store unreadable.
  if (!inventory.walk.ok()) {
    report.Add("G002", artifact, "", inventory.walk.message());
  } else if (!inventory.quarantine.ok()) {
    report.Add("G002", artifact, "", inventory.quarantine.message());
  }
  for (const auto& [id, object] : inventory.objects) {
    if (object.kind == Kind::kCorrupted) {
      report.Add("A002", artifact, id, object.status.message(),
                 "restore the object from a replica");
    } else if (object.kind == Kind::kOrphan) {
      // A corrupted object is A002 alone: its bytes cannot tell whether it
      // was a manifest.
      report.Add("A003", artifact, id,
                 "blob is referenced by no package manifest",
                 "garbage-collect it or deposit a package that claims it");
    }
    if (object.quarantined) {
      report.Add("A006", artifact, id,
                 "blob failed fixity and scrub or read repair set it aside "
                 "in quarantine",
                 "restore it from a replica (re-Put the original bytes "
                 "heals the store), then delete the quarantined copy");
    }
  }
  for (const auto& [manifest_id, manifest] : inventory.manifests) {
    if (manifest.Get("title").as_string().empty()) {
      report.Add("A005", artifact, manifest_id,
                 "package manifest has no title",
                 "deposit packages with descriptive metadata");
    }
  }
  for (const ArchiveInventory::Reference& reference : inventory.references) {
    const ArchiveInventory::Object& object =
        inventory.objects.at(reference.object_id);
    const std::string by = "manifest " + reference.manifest_id.substr(0, 12);
    if (object.kind == Kind::kMissing) {
      report.Add("A001", artifact, reference.object_id,
                 "referenced by " + by + " as '" + reference.name +
                     "' but absent from the store",
                 "restore the object or re-deposit the package");
    } else if (object.kind != Kind::kCorrupted &&
               object.stored_bytes != reference.declared_bytes) {
      report.Add("A004", artifact, reference.object_id,
                 by + " declares " + std::to_string(reference.declared_bytes) +
                     " bytes for '" + reference.name +
                     "' but the store holds " +
                     std::to_string(object.stored_bytes),
                 "re-deposit the package with the corrected manifest");
    }
  }
  return report;
}

// ------------------------------------------------------------- conditions

Result<ConditionsSpec> ConditionsSpec::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::Corruption("conditions dump must be a JSON object");
  }
  ConditionsSpec spec;
  const Json& tags = json.Get("tags");
  for (const auto& [tag, intervals] : tags.members()) {
    std::vector<RunRange>& list = spec.tags[tag];
    for (size_t i = 0; i < intervals.size(); ++i) {
      const Json& entry = intervals.at(i);
      RunRange range;
      range.first_run = static_cast<uint32_t>(entry.Get("first").as_int());
      range.last_run = entry.Has("last")
                           ? static_cast<uint32_t>(entry.Get("last").as_int())
                           : RunRange::kMaxRun;
      list.push_back(range);
    }
  }
  const Json& global_tags = json.Get("global_tags");
  for (size_t i = 0; i < global_tags.size(); ++i) {
    const Json& entry = global_tags.at(i);
    GlobalTag tag;
    tag.name = entry.Get("name").as_string();
    for (const auto& [role, target] : entry.Get("roles").members()) {
      tag.roles[role] = target.as_string();
    }
    spec.global_tags.push_back(std::move(tag));
  }
  return spec;
}

Json ConditionsSpec::ToJson() const {
  Json json = Json::Object();
  json["conditions_version"] = 1;
  Json tag_map = Json::Object();
  for (const auto& [tag, intervals] : tags) {
    Json list = Json::Array();
    for (const RunRange& range : intervals) {
      Json entry = Json::Object();
      entry["first"] = range.first_run;
      if (range.last_run != RunRange::kMaxRun) entry["last"] = range.last_run;
      list.push_back(std::move(entry));
    }
    tag_map[tag] = std::move(list);
  }
  json["tags"] = std::move(tag_map);
  Json global_list = Json::Array();
  for (const GlobalTag& tag : global_tags) {
    Json entry = Json::Object();
    entry["name"] = tag.name;
    Json roles = Json::Object();
    for (const auto& [role, target] : tag.roles) roles[role] = target;
    entry["roles"] = std::move(roles);
    global_list.push_back(std::move(entry));
  }
  json["global_tags"] = std::move(global_list);
  return json;
}

LintReport CheckConditions(const ConditionsSpec& spec,
                           const std::string& artifact) {
  LintReport report;
  for (const auto& [tag, intervals] : spec.tags) {
    if (intervals.empty()) {
      report.Add("C005", artifact, tag, "tag holds no intervals of validity",
                 "register payloads or drop the tag");
      continue;
    }
    // C003 first: inverted ranges poison the overlap/gap logic below, so
    // they are reported and skipped there.
    std::vector<RunRange> valid;
    for (const RunRange& range : intervals) {
      if (!range.Valid()) {
        report.Add("C003", artifact, tag,
                   "interval " + range.ToString() + " has first > last",
                   "fix the interval bounds");
      } else {
        valid.push_back(range);
      }
    }
    std::sort(valid.begin(), valid.end(),
              [](const RunRange& a, const RunRange& b) {
                return a.first_run < b.first_run ||
                       (a.first_run == b.first_run &&
                        a.last_run < b.last_run);
              });
    for (size_t i = 1; i < valid.size(); ++i) {
      const RunRange& prev = valid[i - 1];
      const RunRange& next = valid[i];
      if (prev.Overlaps(next)) {
        report.Add("C001", artifact, tag,
                   "intervals " + prev.ToString() + " and " +
                       next.ToString() + " overlap",
                   "conditions must be unambiguous; close the earlier "
                   "interval");
      } else if (prev.last_run + 1 < next.first_run) {
        report.Add("C002", artifact, tag,
                   "no payload for runs [" +
                       std::to_string(prev.last_run + 1) + "," +
                       std::to_string(next.first_run - 1) + "]",
                   "register a payload covering the gap");
      }
    }
    if (!valid.empty() && valid.back().last_run != RunRange::kMaxRun) {
      report.Add("C006", artifact, tag,
                 "coverage ends at run " +
                     std::to_string(valid.back().last_run),
                 "append an open-ended interval if the tag is still live");
    }
  }
  // C004: global-tag roles pointing at absent or empty tags.
  for (const GlobalTag& global_tag : spec.global_tags) {
    for (const auto& [role, target] : global_tag.roles) {
      auto it = spec.tags.find(target);
      if (it == spec.tags.end() || it->second.empty()) {
        report.Add("C004", artifact, global_tag.name,
                   "role '" + role + "' references tag '" + target +
                       "' which has no payloads",
                   "register the tag's payloads before freezing the global "
                   "tag");
      }
    }
  }
  return report;
}

}  // namespace lint
}  // namespace daspos
