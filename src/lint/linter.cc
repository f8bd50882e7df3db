#include "lint/linter.h"

#include <filesystem>

#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/trace.h"

namespace daspos {
namespace lint {

namespace {

/// Runs one artifact's `check` under a lint span and publishes the artifact
/// and its finding count to the registry.
template <typename Check>
LintReport Traced(const std::string& name, Check check) {
  Span span("lint:path", "lint");
  span.AddAttribute("path", name);
  LintReport report = check();
  const auto findings = static_cast<uint64_t>(report.diagnostics().size());
  span.AddAttribute("findings", findings);
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter(metric_names::kLintArtifactsTotal).Increment();
  registry.GetCounter(metric_names::kLintFindingsTotal).Increment(findings);
  return report;
}

LintReport SniffAndCheck(const std::string& name, const std::string& bytes) {
  // JSON artifacts: provenance chains are arrays of records, conditions
  // dumps are objects with a tag map.
  if (auto json = Json::Parse(bytes); json.ok()) {
    if (json->is_array()) {
      auto spec = ProvenanceSpec::FromJson(*json);
      if (spec.ok()) return CheckProvenance(*spec, name);
      LintReport report;
      report.Add("G001", name, "", spec.status().message(),
                 "expected a provenance chain (array of records)");
      return report;
    }
    if (json->is_object() &&
        (json->Has("tags") || json->Has("conditions_version"))) {
      auto spec = ConditionsSpec::FromJson(*json);
      if (spec.ok()) return CheckConditions(*spec, name);
      LintReport report;
      report.Add("G001", name, "", spec.status().message(),
                 "expected a conditions dump");
      return report;
    }
    LintReport report;
    report.Add("G001", name, "",
               "JSON document is neither a provenance chain nor a "
               "conditions dump");
    return report;
  }

  // Everything else is treated as LHADA text; CheckLhada turns parse
  // failures into L000 findings.
  return CheckLhada(bytes, name);
}

}  // namespace

LintReport LintBytes(const std::string& name, const std::string& bytes) {
  return Traced(name, [&] { return SniffAndCheck(name, bytes); });
}

LintReport LintPath(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Traced(path, [&] {
      FileObjectStore store(path);
      return CheckArchive(store, path);
    });
  }
  auto bytes = ReadFileToString(path);
  if (bytes.ok()) return LintBytes(path, *bytes);
  return Traced(path, [&] {
    LintReport report;
    report.Add("G002", path, "", bytes.status().message());
    return report;
  });
}

ConditionsSpec DumpConditions(const ConditionsDb& db,
                              const GlobalTagRegistry* registry) {
  ConditionsSpec spec;
  for (const std::string& tag : db.Tags()) {
    spec.tags[tag] = db.Intervals(tag);
  }
  if (registry != nullptr) {
    for (const std::string& name : registry->Names()) {
      auto tag = registry->Get(name);
      if (tag.ok()) spec.global_tags.push_back(std::move(*tag));
    }
  }
  return spec;
}

}  // namespace lint
}  // namespace daspos
