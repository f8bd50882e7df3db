#include "validate/validate.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>

#include "detsim/calib.h"
#include "hist/yoda_io.h"
#include "rivet/analysis.h"
#include "rivet/registry.h"
#include "support/fault.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "support/trace.h"
#include "tiers/dataset.h"
#include "workflow/engine.h"
#include "workflow/journal.h"
#include "workflow/steps.h"

namespace daspos {
namespace validate {

namespace {

constexpr char kTitlePrefix[] = "campaign:";
constexpr char kManifestKey[] = "daspos_campaign";
constexpr char kReferencePrefix[] = "validate/";
constexpr char kReferenceSuffix[] = ".yoda";
constexpr int kManifestSchema = 1;

bool IsPathSafeName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return name != "." && name != "..";
}

constexpr char kProvenanceFile[] = "validate/provenance.json";

/// Handles on every validation instrument, resolved once per farm run.
struct Instruments {
  Counter* runs;
  Counter* cells;
  Counter* pass;
  Counter* warn;
  Counter* fail;
  Counter* histograms;
  Histogram* cell_wall;

  static Instruments Resolve() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return Instruments{
        &reg.GetCounter(metric_names::kValidationRunsTotal),
        &reg.GetCounter(metric_names::kValidationCellsTotal),
        &reg.GetCounter(metric_names::kValidationPassTotal),
        &reg.GetCounter(metric_names::kValidationWarnTotal),
        &reg.GetCounter(metric_names::kValidationFailTotal),
        &reg.GetCounter(metric_names::kValidationHistogramsTotal),
        &reg.GetHistogram(metric_names::kValidationCellWallMs),
    };
  }

  void CountCell(const CellResult& cell) const {
    cells->Increment();
    switch (cell.verdict) {
      case Verdict::kPass: pass->Increment(); break;
      case Verdict::kWarn: warn->Increment(); break;
      case Verdict::kFail: fail->Increment(); break;
    }
    histograms->Increment(static_cast<uint64_t>(cell.histograms_compared));
    cell_wall->Observe(cell.wall_ms);
  }
};

/// The chain a campaign package's provenance records, rebuilt step by step.
Result<Workflow> RebuildCampaignChain(const SubmissionPackage& package) {
  for (const PackageFile& file : package.files) {
    if (file.logical_name != kProvenanceFile) continue;
    DASPOS_ASSIGN_OR_RETURN(ProvenanceStore provenance,
                            ProvenanceStore::Parse(file.bytes));
    return ReplayWorkflow(provenance);
  }
  return Status::NotFound(std::string("no ") + kProvenanceFile);
}

CellResult FailedCell(const std::string& campaign, const std::string& analysis,
                      std::string detail) {
  CellResult cell;
  cell.campaign = campaign;
  cell.analysis = analysis;
  cell.verdict = Verdict::kFail;
  cell.detail = std::move(detail);
  return cell;
}

/// One matrix cell: run the analysis over the re-generated events and gate
/// the comparison through the thresholds.
CellResult ValidateCell(const Campaign& campaign, const std::string& analysis,
                        const std::vector<GenEvent>& events,
                        const std::string& drift_detail,
                        const Thresholds& thresholds) {
  Span span("validate:cell", "validate");
  span.AddAttribute("campaign", campaign.name);
  span.AddAttribute("analysis", analysis);

  CellResult cell;
  cell.campaign = campaign.name;
  cell.analysis = analysis;
  cell.chain_identical = drift_detail.empty();

  auto finish = [&](Verdict verdict, std::string detail) {
    cell.verdict = verdict;
    cell.detail = std::move(detail);
    cell.wall_ms = span.ElapsedMillis();
    return cell;
  };

  auto reference_it = campaign.reference_yoda.find(analysis);
  if (reference_it == campaign.reference_yoda.end()) {
    return finish(Verdict::kFail, "no archived reference histograms");
  }
  auto reference = ReadYoda(reference_it->second);
  if (!reference.ok()) {
    return finish(Verdict::kFail,
                  "reference unreadable: " + reference.status().ToString());
  }
  auto instance = rivet::AnalysisRegistry::Global().Create(analysis);
  if (!instance.ok()) {
    return finish(Verdict::kFail, instance.status().ToString());
  }

  rivet::AnalysisHandler handler;
  handler.Add(std::move(*instance));
  // Serial Run: per-analysis fills are bit-identical either way, and the
  // farm's parallelism lives at the matrix level.
  handler.Run(events, nullptr);
  std::vector<Histo1D> produced = handler.Finalize();

  auto comparison = rivet::CompareToReference(produced, *reference);
  if (!comparison.ok()) {
    return finish(Verdict::kFail,
                  "comparison failed: " + comparison.status().ToString());
  }
  cell.histograms_compared = comparison->histograms_compared;
  cell.histograms_missing = comparison->histograms_missing;
  cell.worst_chi2 = comparison->worst_reduced_chi2;
  cell.worst_ks = comparison->worst_ks;
  if (cell.histograms_missing > 0) {
    return finish(Verdict::kFail,
                  "missing " + std::to_string(cell.histograms_missing) +
                      " of " +
                      std::to_string(cell.histograms_missing +
                                     cell.histograms_compared) +
                      " reference histogram(s)");
  }
  if (cell.histograms_compared == 0) {
    return finish(Verdict::kFail, "reference has no histograms");
  }
  if (comparison->histograms_empty_on_one_side > 0) {
    return finish(Verdict::kFail,
                  std::to_string(comparison->histograms_empty_on_one_side) +
                      " of " + std::to_string(cell.histograms_compared) +
                      " histogram(s) empty on one side only");
  }
  if (cell.worst_chi2 > thresholds.fail_chi2) {
    return finish(Verdict::kFail, "reduced chi2 " +
                                      FormatDouble(cell.worst_chi2, 3) +
                                      " > " +
                                      FormatDouble(thresholds.fail_chi2, 3));
  }
  if (cell.worst_chi2 > thresholds.warn_chi2) {
    return finish(Verdict::kWarn, "reduced chi2 " +
                                      FormatDouble(cell.worst_chi2, 3) +
                                      " > " +
                                      FormatDouble(thresholds.warn_chi2, 3));
  }
  if (cell.worst_ks > thresholds.warn_ks) {
    return finish(Verdict::kWarn,
                  "KS distance " + FormatDouble(cell.worst_ks, 3) + " > " +
                      FormatDouble(thresholds.warn_ks, 3));
  }
  if (!cell.chain_identical) {
    return finish(Verdict::kWarn, drift_detail);
  }
  return finish(Verdict::kPass, "");
}

/// Re-executes one campaign's rebuilt chain and validates every selected
/// analysis against it. Chain-level failures fail every cell of the
/// campaign.
std::vector<CellResult> ValidateCampaign(const Campaign& campaign,
                                         const std::vector<std::string>& analyses,
                                         const ValidateOptions& options) {
  Span span("validate:campaign", "validate");
  span.AddAttribute("campaign", campaign.name);

  auto fail_all = [&](const std::string& detail) {
    std::vector<CellResult> cells;
    cells.reserve(analyses.size());
    for (const std::string& analysis : analyses) {
      cells.push_back(FailedCell(campaign.name, analysis, detail));
    }
    return cells;
  };

  // Strictly serial (the deterministic reference path: one thread, no
  // intra-step pool) with the caller's retry/journal/fault knobs.
  ExecuteOptions exec;
  exec.max_threads = 1;
  exec.max_step_retries = options.max_step_retries;
  exec.retry_backoff_ms = options.retry_backoff_ms;
  exec.step_faults = options.step_faults;
  std::unique_ptr<RunJournal> journal;
  if (!options.journal_root.empty()) {
    auto opened =
        RunJournal::Open(options.journal_root + "/" + campaign.name);
    if (!opened.ok()) {
      return fail_all("journal open failed: " + opened.status().ToString());
    }
    journal = std::move(*opened);
    exec.journal = journal.get();
    exec.resume = true;
  }

  // The conditions live only for the execution, like the capturing run's.
  WorkflowContext context;
  if (auto report = ExecuteChain(campaign.workflow, CalibrationSet(),
                                 &context, nullptr, exec);
      !report.ok()) {
    return fail_all("chain execution failed: " + report.status().ToString());
  }

  // Bit-preservation drift: every dataset the capturing chain archived must
  // reproduce digest-for-digest.
  std::string drift;
  for (const auto& [name, digest] : campaign.dataset_digests) {
    auto blob = context.GetDataset(name);
    if (!blob.ok()) {
      drift += (drift.empty() ? "" : ", ");
      drift += "dataset '" + name + "' not produced";
      continue;
    }
    if (Sha256::HashHex(*blob) != digest) {
      drift += (drift.empty() ? "" : ", ");
      drift += "dataset '" + name + "' digest drift";
    }
  }
  if (!drift.empty()) drift = "bit-preservation drift: " + drift;

  auto events_blob = context.GetDataset("gen");
  if (!events_blob.ok()) {
    return fail_all("chain produced no 'gen' dataset");
  }
  auto events = ReadGenDataset(*events_blob);
  if (!events.ok()) {
    return fail_all("gen dataset unreadable: " + events.status().ToString());
  }

  // Nested fan-out is safe: ParallelMap on a busy pool has the caller
  // participate instead of deadlocking.
  return ParallelMap<CellResult>(
      options.pool, analyses.size(),
      [&](size_t i) {
        return ValidateCell(campaign, analyses[i], *events, drift,
                            options.thresholds);
      },
      /*grain=*/1);
}

}  // namespace

std::string_view VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPass: return "pass";
    case Verdict::kWarn: return "warn";
    case Verdict::kFail: return "fail";
  }
  return "fail";
}

Result<std::string> CaptureCampaign(Archive* archive, CampaignSpec spec) {
  if (archive == nullptr) {
    return Status::InvalidArgument("capture requires an archive");
  }
  if (!IsPathSafeName(spec.name)) {
    return Status::InvalidArgument(
        "campaign name must be non-empty and path-safe ([A-Za-z0-9._-]): '" +
        spec.name + "'");
  }
  if (spec.events == 0) {
    return Status::InvalidArgument("campaign needs at least one event");
  }
  rivet::AnalysisRegistry& registry = rivet::AnalysisRegistry::Global();
  if (spec.analyses.empty()) spec.analyses = registry.Names();
  std::sort(spec.analyses.begin(), spec.analyses.end());
  spec.analyses.erase(
      std::unique(spec.analyses.begin(), spec.analyses.end()),
      spec.analyses.end());
  for (const std::string& analysis : spec.analyses) {
    if (!registry.Has(analysis)) {
      return Status::NotFound("analysis '" + analysis +
                              "' is not in the registry");
    }
  }

  Span span("validate:capture", "validate");
  span.AddAttribute("campaign", spec.name);

  WorkflowContext context;
  ProvenanceStore provenance;
  ExecuteOptions serial;
  serial.max_threads = 1;
  DASPOS_RETURN_IF_ERROR(
      ExecuteChain(StandardChainWorkflow(spec.process, spec.events, spec.seed),
                   CalibrationSet(), &context, &provenance, serial)
          .status());

  DASPOS_ASSIGN_OR_RETURN(std::string_view gen_blob,
                          context.GetDataset("gen"));
  DASPOS_ASSIGN_OR_RETURN(std::vector<GenEvent> events,
                          ReadGenDataset(gen_blob));

  SubmissionPackage submission;
  submission.title = kTitlePrefix + spec.name;
  submission.creator = "daspos validate";
  submission.description = "continuous-validation campaign " + spec.name;
  submission.keywords = {"validation", "campaign"};

  // The manifest's process/events/seed describe the campaign; the farm
  // re-executes the provenance chain below.
  Json manifest = Json::Object();
  manifest["schema"] = kManifestSchema;
  manifest["name"] = spec.name;
  manifest["process"] = GetProcessInfo(spec.process).name;
  manifest["events"] = static_cast<int64_t>(spec.events);
  manifest["seed"] = spec.seed;
  Json analyses_json = Json::Array();
  for (const std::string& analysis : spec.analyses) {
    analyses_json.push_back(Json(analysis));
  }
  manifest["analyses"] = std::move(analyses_json);
  Json digests = Json::Object();
  for (const std::string& name : context.DatasetNames()) {
    DASPOS_ASSIGN_OR_RETURN(std::string_view blob, context.GetDataset(name));
    digests[name] = Sha256::HashHex(blob);
  }
  manifest["datasets"] = std::move(digests);
  submission.context[kManifestKey] = std::move(manifest);

  for (const std::string& analysis : spec.analyses) {
    DASPOS_ASSIGN_OR_RETURN(std::unique_ptr<rivet::Analysis> instance,
                            registry.Create(analysis));
    rivet::AnalysisHandler handler;
    handler.Add(std::move(instance));
    handler.Run(events, nullptr);
    PackageFile file;
    file.logical_name = kReferencePrefix + analysis + kReferenceSuffix;
    file.media_type = "text/x-yoda";
    file.bytes = WriteYoda(handler.Finalize());
    submission.files.push_back(std::move(file));
  }
  PackageFile chain_file;
  chain_file.logical_name = kProvenanceFile;
  chain_file.media_type = "application/json";
  chain_file.bytes = provenance.Serialize();
  submission.files.push_back(std::move(chain_file));

  return archive->Deposit(submission);
}

Result<CampaignSet> EnumerateCampaigns(const Archive& archive) {
  CampaignSet set;
  for (const HoldingSummary& holding : archive.Holdings()) {
    if (holding.title.rfind(kTitlePrefix, 0) != 0) continue;
    BrokenPackage broken;
    broken.archive_id = holding.archive_id;
    broken.name = holding.title.substr(sizeof(kTitlePrefix) - 1);

    auto package = archive.Retrieve(holding.archive_id);
    if (!package.ok()) {
      broken.error = package.status().ToString();
      set.broken.push_back(std::move(broken));
      continue;
    }
    const Json& manifest = package->content.context.Get(kManifestKey);
    if (!manifest.is_object() || !manifest.Get("name").is_string() ||
        !manifest.Get("analyses").is_array()) {
      broken.error = "malformed campaign manifest";
      set.broken.push_back(std::move(broken));
      continue;
    }
    Campaign campaign;
    campaign.archive_id = holding.archive_id;
    campaign.name = manifest.Get("name").as_string();
    auto workflow = RebuildCampaignChain(package->content);
    if (!workflow.ok()) {
      broken.error = workflow.status().ToString();
      set.broken.push_back(std::move(broken));
      continue;
    }
    campaign.workflow = std::move(*workflow);
    const Json& analyses = manifest.Get("analyses");
    for (size_t i = 0; i < analyses.size(); ++i) {
      campaign.analyses.push_back(analyses.at(i).as_string());
    }
    std::sort(campaign.analyses.begin(), campaign.analyses.end());
    const Json& digests = manifest.Get("datasets");
    if (digests.is_object()) {
      for (const auto& [name, digest] : digests.members()) {
        campaign.dataset_digests[name] = digest.as_string();
      }
    }
    for (const PackageFile& file : package->content.files) {
      const std::string& name = file.logical_name;
      if (name.rfind(kReferencePrefix, 0) != 0) continue;
      if (name.size() <= sizeof(kReferencePrefix) - 1 + 5) continue;
      if (name.substr(name.size() - 5) != kReferenceSuffix) continue;
      std::string analysis = name.substr(
          sizeof(kReferencePrefix) - 1,
          name.size() - (sizeof(kReferencePrefix) - 1) - 5);
      campaign.reference_yoda[analysis] = file.bytes;
    }
    set.campaigns.push_back(std::move(campaign));
  }
  std::sort(set.campaigns.begin(), set.campaigns.end(),
            [](const Campaign& a, const Campaign& b) {
              return a.name < b.name;
            });
  std::sort(set.broken.begin(), set.broken.end(),
            [](const BrokenPackage& a, const BrokenPackage& b) {
              return a.name < b.name;
            });
  return set;
}

Verdict ValidationReport::Overall() const {
  Verdict worst = Verdict::kPass;
  for (const CellResult& cell : cells) {
    worst = std::max(worst, cell.verdict);
  }
  return worst;
}

std::string ValidationReport::RenderText() const {
  std::string out = "validation matrix: " + std::to_string(campaigns) +
                    " campaign(s), " + std::to_string(cells.size()) +
                    " cell(s)\n";
  for (const CellResult& cell : cells) {
    std::string verdict(VerdictName(cell.verdict));
    std::transform(verdict.begin(), verdict.end(), verdict.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    out += "  " + verdict + "  " + cell.campaign + " / " + cell.analysis;
    if (cell.histograms_compared > 0) {
      out += "  " + std::to_string(cell.histograms_compared) +
             " histo(s)  chi2/ndf " + FormatDouble(cell.worst_chi2, 3) +
             "  ks " + FormatDouble(cell.worst_ks, 3);
    }
    if (!cell.detail.empty()) out += "  (" + cell.detail + ")";
    out += "\n";
  }
  std::string overall(VerdictName(Overall()));
  std::transform(overall.begin(), overall.end(), overall.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  out += "verdict: " + overall + " (" + std::to_string(passed) + " pass, " +
         std::to_string(warned) + " warn, " + std::to_string(failed) +
         " fail)\n";
  return out;
}

Json ValidationReport::ToJson() const {
  Json json = Json::Object();
  json["verdict"] = std::string(VerdictName(Overall()));
  json["campaigns"] = static_cast<int64_t>(campaigns);
  json["passed"] = static_cast<int64_t>(passed);
  json["warned"] = static_cast<int64_t>(warned);
  json["failed"] = static_cast<int64_t>(failed);
  json["wall_ms"] = wall_ms;
  Json cell_array = Json::Array();
  for (const CellResult& cell : cells) {
    Json entry = Json::Object();
    entry["campaign"] = cell.campaign;
    entry["analysis"] = cell.analysis;
    entry["verdict"] = std::string(VerdictName(cell.verdict));
    entry["detail"] = cell.detail;
    entry["histograms_compared"] = static_cast<int64_t>(cell.histograms_compared);
    entry["histograms_missing"] = static_cast<int64_t>(cell.histograms_missing);
    entry["worst_chi2"] = cell.worst_chi2;
    entry["worst_ks"] = cell.worst_ks;
    entry["chain_identical"] = cell.chain_identical;
    entry["wall_ms"] = cell.wall_ms;
    cell_array.push_back(std::move(entry));
  }
  json["cells"] = std::move(cell_array);
  return json;
}

Result<ValidationReport> ValidateArchive(const Archive& archive,
                                         const ValidateOptions& options) {
  Instruments instruments = Instruments::Resolve();
  instruments.runs->Increment();
  Span span("validate:matrix", "validate");

  DASPOS_ASSIGN_OR_RETURN(CampaignSet set, EnumerateCampaigns(archive));

  std::vector<const Campaign*> campaigns;
  for (const Campaign& campaign : set.campaigns) {
    if (!options.campaign_filter.empty() &&
        campaign.name != options.campaign_filter) {
      continue;
    }
    campaigns.push_back(&campaign);
  }
  std::vector<std::vector<std::string>> selected(campaigns.size());
  for (size_t i = 0; i < campaigns.size(); ++i) {
    for (const std::string& analysis : campaigns[i]->analyses) {
      if (!options.analysis_filter.empty() &&
          analysis != options.analysis_filter) {
        continue;
      }
      selected[i].push_back(analysis);
    }
  }

  std::vector<std::vector<CellResult>> per_campaign =
      ParallelMap<std::vector<CellResult>>(
          options.pool, campaigns.size(),
          [&](size_t i) {
            return ValidateCampaign(*campaigns[i], selected[i], options);
          },
          /*grain=*/1);

  ValidationReport report;
  report.campaigns = campaigns.size();
  for (std::vector<CellResult>& cells : per_campaign) {
    for (CellResult& cell : cells) report.cells.push_back(std::move(cell));
  }
  for (const BrokenPackage& broken : set.broken) {
    if (!options.campaign_filter.empty() &&
        broken.name != options.campaign_filter) {
      continue;
    }
    ++report.campaigns;
    report.cells.push_back(
        FailedCell(broken.name, "(package)",
                   "campaign package unreadable: " + broken.error));
  }
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              if (a.campaign != b.campaign) return a.campaign < b.campaign;
              return a.analysis < b.analysis;
            });
  for (const CellResult& cell : report.cells) {
    instruments.CountCell(cell);
    switch (cell.verdict) {
      case Verdict::kPass: ++report.passed; break;
      case Verdict::kWarn: ++report.warned; break;
      case Verdict::kFail: ++report.failed; break;
    }
  }
  report.wall_ms = span.ElapsedMillis();
  return report;
}

}  // namespace validate
}  // namespace daspos
