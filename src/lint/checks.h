// The preservation checks: each function statically analyzes one artifact
// family and returns findings, never executing or mutating the artifact.
//
// Family    artifact                          codes
// --------  --------------------------------  -----------
// workflow  processing-graph spec             W001..W004
// workflow  provenance chain (JSON array)     W101..W103
// lhada     analysis-description text         L000..L008
// archive   object store + AIP manifests      A001..A005
// cond      conditions dump (tags, IOVs, GTs) C001..C006
//
// The structs here are deliberately plain data (no dependency on the
// workflow engine): daspos_workflow links against daspos_lint to gate
// Workflow::Execute, so lint must sit below it in the dependency order.
#ifndef DASPOS_LINT_CHECKS_H_
#define DASPOS_LINT_CHECKS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "archive/object_store.h"
#include "conditions/global_tag.h"
#include "conditions/iov.h"
#include "lint/diagnostics.h"
#include "support/result.h"

namespace daspos {
namespace lint {

/// Execution-free description of a workflow graph: what each step consumes
/// and produces, plus which datasets exist before execution starts.
struct WorkflowGraphSpec {
  struct Step {
    std::string name;
    std::vector<std::string> inputs;
    std::string output;
  };
  std::vector<Step> steps;
  /// Dataset names available externally (pre-loaded into the context).
  std::set<std::string> external_inputs;
};

/// W001 cycles, W002 missing inputs, W003 unreachable steps, W004 orphans.
LintReport CheckWorkflowGraph(const WorkflowGraphSpec& spec,
                              const std::string& artifact = "workflow");

/// Execution-free view of a provenance chain (the serialized form of
/// ProvenanceStore: a JSON array of records).
struct ProvenanceSpec {
  struct Record {
    std::string dataset;
    std::vector<std::string> parents;
    std::string config_hash;
    /// The captured step configuration that `config_hash` names.
    Json config;
  };
  std::vector<Record> records;

  /// Parses the provenance-chain JSON array. Fails only on structural
  /// problems (not an array, record without a dataset name); semantic
  /// defects are the linter's job.
  static Result<ProvenanceSpec> FromJson(const Json& json);
};

/// W101 gaps, W102 parentage cycles, W103 config hashes that are missing
/// or are not the SHA-256 of the record's config.
LintReport CheckProvenance(const ProvenanceSpec& spec,
                           const std::string& artifact = "provenance");

/// Execution-free view of a run journal (the JSONL checkpoint file written
/// during Workflow::Execute): one entry per checkpointed step. Callers build
/// it from RunJournal::records(), the records resume itself reads.
struct JournalSpec {
  struct Entry {
    std::string step;
    std::string output;
    /// False for a line written before checkpoints recorded the footer
    /// digests of their step's inputs.
    bool input_digests = true;
  };
  std::vector<Entry> entries;
};

/// W104: journal entries naming steps the workflow no longer contains —
/// stale checkpoints that resume would silently ignore. W105: a step with
/// inputs whose latest entry records no input digests — resume cannot tell
/// what it was computed from, so it re-runs the step.
LintReport CheckJournal(const JournalSpec& journal,
                        const WorkflowGraphSpec& workflow,
                        const std::string& artifact = "journal");

/// L000 parse failure, L001/L006 dangling references, L002/L003 bad
/// 'require', L004 duplicates, L005 unused objects, L007 vacuous cuts,
/// L008 no cuts. Works on raw description text so that defective documents
/// (which AnalysisDescription::Parse rejects outright) still get itemized
/// findings.
LintReport CheckLhada(const std::string& text,
                      const std::string& artifact = "lhada");

/// A001 dangling references, A002 digest mismatches, A003 unreferenced
/// blobs, A004 size disagreements, A005 untitled packages. Scans every
/// object; manifests are recognized by shape (see IsAipManifest).
LintReport CheckArchive(const ObjectStore& store,
                        const std::string& artifact = "archive");

/// Execution-free dump of a conditions store: per-tag IOV lists plus the
/// global tags that reference them. FromJson is deliberately lenient so
/// defective dumps (overlaps, inverted ranges) survive into the checks.
struct ConditionsSpec {
  std::map<std::string, std::vector<RunRange>> tags;
  std::vector<GlobalTag> global_tags;

  static Result<ConditionsSpec> FromJson(const Json& json);
  Json ToJson() const;
};

/// C001 overlaps, C002 gaps, C003 inverted ranges, C004 dangling global-tag
/// roles, C005 empty tags, C006 closed coverage.
LintReport CheckConditions(const ConditionsSpec& spec,
                           const std::string& artifact = "conditions");

}  // namespace lint
}  // namespace daspos

#endif  // DASPOS_LINT_CHECKS_H_
