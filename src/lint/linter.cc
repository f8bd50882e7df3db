#include "lint/linter.h"

#include <filesystem>
#include <memory>

#include "archive/backend.h"
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
  // An archive is opened the way every command opens a store spec, so the
  // backend is the one ParseStoreSpec picks. Only an existing root is
  // opened: opening a missing one would create an empty store.
  auto spec = ParseStoreSpec(path);
  std::error_code ec;
  if (spec.ok() && std::filesystem::is_directory(spec->root, ec)) {
    return Traced(path, [&] {
      std::unique_ptr<ObjectStore> store = OpenObjectStore(*spec);
      return CheckArchive(*store, path);
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

}  // namespace lint
}  // namespace daspos
