#include "lint/diagnostics.h"

#include <algorithm>
#include <set>

namespace daspos {
namespace lint {

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

bool ParseSeverity(std::string_view text, Severity* out) {
  if (text == "info") {
    *out = Severity::kInfo;
    return true;
  }
  if (text == "warning") {
    *out = Severity::kWarning;
    return true;
  }
  if (text == "error") {
    *out = Severity::kError;
    return true;
  }
  return false;
}

std::string Diagnostic::Render() const {
  std::string out = artifact + ": " + std::string(SeverityName(severity)) +
                    " " + code + ": ";
  if (!subject.empty()) out += subject + ": ";
  out += message;
  if (!hint.empty()) out += " (hint: " + hint + ")";
  return out;
}

Json Diagnostic::ToJson() const {
  Json json = Json::Object();
  json["code"] = code;
  json["severity"] = std::string(SeverityName(severity));
  json["artifact"] = artifact;
  json["subject"] = subject;
  json["message"] = message;
  if (!hint.empty()) json["hint"] = hint;
  return json;
}

void LintReport::Add(std::string_view code, std::string artifact,
                     std::string subject, std::string message,
                     std::string hint) {
  Diagnostic diagnostic;
  diagnostic.code = std::string(code);
  const CheckInfo* info = FindCheck(code);
  diagnostic.severity =
      info != nullptr ? info->default_severity : Severity::kWarning;
  diagnostic.artifact = std::move(artifact);
  diagnostic.subject = std::move(subject);
  diagnostic.message = std::move(message);
  diagnostic.hint = std::move(hint);
  diagnostics_.push_back(std::move(diagnostic));
}

void LintReport::Merge(LintReport other) {
  for (Diagnostic& diagnostic : other.diagnostics_) {
    diagnostics_.push_back(std::move(diagnostic));
  }
}

size_t LintReport::CountAtLeast(Severity severity) const {
  size_t count = 0;
  for (const Diagnostic& diagnostic : diagnostics_) {
    if (diagnostic.severity >= severity) ++count;
  }
  return count;
}

std::vector<std::string> LintReport::Codes() const {
  std::set<std::string> codes;
  for (const Diagnostic& diagnostic : diagnostics_) {
    codes.insert(diagnostic.code);
  }
  return std::vector<std::string>(codes.begin(), codes.end());
}

std::string LintReport::RenderText() const {
  std::string out;
  for (const Diagnostic& diagnostic : diagnostics_) {
    out += diagnostic.Render() + "\n";
  }
  out += std::to_string(CountAtLeast(Severity::kError)) + " error(s), " +
         std::to_string(CountAtLeast(Severity::kWarning) -
                        CountAtLeast(Severity::kError)) +
         " warning(s), " +
         std::to_string(size() - CountAtLeast(Severity::kWarning)) +
         " note(s)\n";
  return out;
}

Json LintReport::ToJson() const {
  Json json = Json::Object();
  Json findings = Json::Array();
  for (const Diagnostic& diagnostic : diagnostics_) {
    findings.push_back(diagnostic.ToJson());
  }
  json["findings"] = std::move(findings);
  Json counts = Json::Object();
  counts["error"] = static_cast<uint64_t>(CountAtLeast(Severity::kError));
  counts["warning"] = static_cast<uint64_t>(CountAtLeast(Severity::kWarning) -
                                            CountAtLeast(Severity::kError));
  counts["info"] =
      static_cast<uint64_t>(size() - CountAtLeast(Severity::kWarning));
  json["counts"] = std::move(counts);
  return json;
}

const std::vector<CheckInfo>& AllChecks() {
  // The taxonomy. Codes are append-only: never renumber, never reuse.
  static const std::vector<CheckInfo> kChecks = {
      // Workflow graph (W0xx) and provenance chain (W1xx).
      {"W001", Severity::kError,
       "workflow steps form a dependency cycle (beyond self-loops, which are "
       "rejected at AddStep)"},
      {"W002", Severity::kError,
       "step consumes an input no upstream step produces and no external "
       "dataset provides"},
      {"W003", Severity::kError,
       "step is unreachable: every schedule leaves it blocked behind a "
       "missing input or a cycle"},
      {"W004", Severity::kWarning,
       "orphan step: shares no datasets with the rest of the workflow"},
      {"W101", Severity::kError,
       "provenance gap: record references a parent dataset with no record of "
       "its own"},
      {"W102", Severity::kError,
       "provenance parentage is cyclic: a dataset is its own ancestor"},
      {"W103", Severity::kWarning,
       "provenance record carries no usable config hash, or one that is not "
       "the SHA-256 of its config (reproduction impossible)"},
      {"W104", Severity::kWarning,
       "run journal references a step absent from the workflow (stale or "
       "foreign checkpoint)"},
      {"W105", Severity::kWarning,
       "run journal checkpoints a step with inputs but records no input "
       "digests (resume re-runs it)"},
      // LHADA analysis descriptions (Lxxx).
      {"L000", Severity::kError, "description does not parse"},
      {"L001", Severity::kError,
       "cut condition references an object collection that is never defined"},
      {"L002", Severity::kError,
       "'require' references a cut that is never defined"},
      {"L003", Severity::kError,
       "'require' references a later cut or the cut itself (must reference "
       "earlier cuts)"},
      {"L004", Severity::kError, "duplicate object or cut name"},
      {"L005", Severity::kWarning,
       "object is defined but never used by any condition or histogram"},
      {"L006", Severity::kError,
       "histogram references an object collection that is never defined"},
      {"L007", Severity::kWarning,
       "cut has no conditions: it passes every event"},
      {"L008", Severity::kError,
       "description defines no event-level cuts"},
      // Archive manifests over the object store (Axxx).
      {"A001", Severity::kError,
       "manifest references an object absent from the store (dangling "
       "reference)"},
      {"A002", Severity::kError,
       "stored object's bytes no longer match its content id (digest "
       "mismatch / bit rot)"},
      {"A003", Severity::kWarning,
       "blob is referenced by no manifest (unreachable from any package)"},
      {"A004", Severity::kWarning,
       "manifest-declared file size disagrees with the stored object"},
      {"A005", Severity::kWarning,
       "package manifest lacks a title (undiscoverable holding)"},
      {"A006", Severity::kWarning,
       "quarantined blob present in the store (failed fixity; set aside by "
       "scrub or read repair)"},
      // Conditions stores and global tags (Cxxx).
      {"C001", Severity::kError,
       "overlapping intervals of validity within one tag (ambiguous "
       "conditions)"},
      {"C002", Severity::kWarning,
       "gap between consecutive intervals of validity within one tag"},
      {"C003", Severity::kError, "interval of validity with first > last"},
      {"C004", Severity::kError,
       "global tag role references a tag with no payloads"},
      {"C005", Severity::kWarning, "tag is declared but holds no intervals"},
      {"C006", Severity::kInfo,
       "tag coverage is closed: no payload for runs beyond its last interval"},
      // General / driver (Gxxx).
      {"G001", Severity::kError, "artifact type is not recognized"},
      {"G002", Severity::kError, "artifact cannot be read"},
  };
  return kChecks;
}

const CheckInfo* FindCheck(std::string_view code) {
  const std::vector<CheckInfo>& checks = AllChecks();
  auto it = std::find_if(
      checks.begin(), checks.end(),
      [code](const CheckInfo& info) { return info.code == code; });
  return it != checks.end() ? &*it : nullptr;
}

}  // namespace lint
}  // namespace daspos
