// Continuous-validation farm: the DPHEP insight (arXiv:1310.7814) that a
// preserved analysis is only preserved if it is *re-executed on a schedule*
// and its outputs compared against archived references. A "campaign"
// package holds the provenance chain of a production run plus per-analysis
// reference histograms and dataset digests; `ValidateArchive` rebuilds each
// campaign's chain from that provenance alone, re-runs it through the real
// workflow engine, and reports pass/warn/fail per campaign x analysis cell.
// The manifest's process, event count and seed only describe the campaign.
//
// The farm is deliberately built on the same machinery it validates —
// journal checkpoint/resume, step retries, fault injection, the chi^2/KS
// comparison primitives — so a durability or error-swallowing bug in any of
// them surfaces as a failing cell instead of staying latent.
#ifndef DASPOS_VALIDATE_VALIDATE_H_
#define DASPOS_VALIDATE_VALIDATE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "archive/archive.h"
#include "mc/process.h"
#include "serialize/json.h"
#include "support/result.h"
#include "workflow/engine.h"

namespace daspos {

class FaultPlan;
class ThreadPool;

namespace validate {

/// What to capture: the standard chain (StandardChainWorkflow) of `process`
/// at `seed` over `events` events, and the analyses to validate against it.
struct CampaignSpec {
  /// Path-safe identifier ([A-Za-z0-9._-]); doubles as the journal subdir.
  std::string name;
  Process process = Process::kZToLL;
  size_t events = 0;
  uint64_t seed = 0;
  /// Rivet-analog analysis names validated against this campaign (sorted).
  /// Empty at capture time selects every registered analysis.
  std::vector<std::string> analyses;
};

/// A campaign as enumerated from the archive.
struct Campaign {
  std::string name;
  /// Analysis names from the manifest (sorted).
  std::vector<std::string> analyses;
  std::string archive_id;
  /// The chain rebuilt from the package's provenance (ReplayWorkflow): the
  /// §3.2 claim that the preserved provenance chain is the workflow.
  Workflow workflow;
  /// Analysis name -> archived reference histograms (YODA text).
  std::map<std::string, std::string> reference_yoda;
  /// Dataset name -> SHA-256 of the blob the capturing chain produced;
  /// the bit-preservation baseline drift is measured against.
  std::map<std::string, std::string> dataset_digests;
};

/// A campaign-shaped package that could not be read back, or whose
/// provenance is missing or does not rebuild — surfaced as a failing cell,
/// never silently skipped.
struct BrokenPackage {
  std::string archive_id;
  std::string name;  // best-effort campaign name (from the holding title)
  std::string error;
};

struct CampaignSet {
  std::vector<Campaign> campaigns;  // sorted by campaign name
  std::vector<BrokenPackage> broken;
};

/// Runs the campaign chain serially (the deterministic reference path),
/// runs each analysis over the generated events, and deposits the campaign
/// package: manifest context, per-analysis reference YODA files, the
/// provenance chain (validate/provenance.json), and per-dataset digests.
/// Returns the archive id.
Result<std::string> CaptureCampaign(Archive* archive, CampaignSpec spec);

/// All campaign packages in the archive (by holding title "campaign:<name>"),
/// each with its chain rebuilt from the package's provenance.
Result<CampaignSet> EnumerateCampaigns(const Archive& archive);

enum class Verdict { kPass = 0, kWarn = 1, kFail = 2 };
std::string_view VerdictName(Verdict verdict);

/// Statistical gates. The chain is seeded and serial, so a healthy cell
/// reproduces bit-identically (chi^2 = 0); the warn band exists for
/// environment drift (compiler, libm) that changes bits but not physics.
struct Thresholds {
  double fail_chi2 = 3.0;  // reduced chi^2 above this fails the cell
  double warn_chi2 = 0.5;  // ... above this warns
  double warn_ks = 0.05;   // Kolmogorov-Smirnov distance above this warns
};

struct ValidateOptions {
  Thresholds thresholds;
  /// Step retry budget for the re-executed chains (see ExecuteOptions).
  int max_step_retries = 0;
  double retry_backoff_ms = 0.0;
  /// Chaos mode: fault injector shared by every re-executed chain
  /// (not owned). Pair with retries so injected faults are absorbed.
  FaultPlan* step_faults = nullptr;
  /// When set, each campaign checkpoints/resumes a RunJournal under
  /// <journal_root>/<campaign-name> — exercising the journal durability
  /// path on every farm run.
  std::string journal_root;
  /// Pool for cross-matrix concurrency (not owned); null runs serially.
  /// Each chain itself stays serial so results are thread-count invariant.
  ThreadPool* pool = nullptr;
  /// Exact-match filters; empty selects everything.
  std::string campaign_filter;
  std::string analysis_filter;
};

/// One campaign x analysis cell of the validation matrix.
struct CellResult {
  std::string campaign;
  std::string analysis;
  Verdict verdict = Verdict::kFail;
  /// One-line reason for a warn/fail verdict; empty on pass.
  std::string detail;
  int histograms_compared = 0;
  int histograms_missing = 0;
  double worst_chi2 = 0.0;  // worst reduced chi^2 across histograms
  double worst_ks = 0.0;    // worst KS distance across histograms
  /// True when every archived dataset digest reproduced bit-for-bit.
  bool chain_identical = false;
  double wall_ms = 0.0;
};

struct ValidationReport {
  std::vector<CellResult> cells;  // sorted by (campaign, analysis)
  size_t campaigns = 0;
  size_t passed = 0;
  size_t warned = 0;
  size_t failed = 0;
  double wall_ms = 0.0;

  /// Worst verdict across cells (pass when the matrix is empty).
  Verdict Overall() const;
  /// Deterministic report (no wall-clock fields in the cell lines).
  std::string RenderText() const;
  Json ToJson() const;
};

/// Re-executes the full campaign x analysis matrix and returns the report.
/// Campaigns fan out over `options.pool`; verdicts and report ordering are
/// deterministic regardless of thread count. Also publishes
/// daspos_validation_* metrics to MetricsRegistry::Global().
Result<ValidationReport> ValidateArchive(const Archive& archive,
                                         const ValidateOptions& options = {});

}  // namespace validate
}  // namespace daspos

#endif  // DASPOS_VALIDATE_VALIDATE_H_
