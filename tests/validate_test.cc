// Tests for the continuous-validation farm: campaign capture/enumeration,
// matrix re-execution of each package's provenance with bit-identical pass
// verdicts, failure surfacing (missing references, unknown analyses, broken
// packages and provenance), chaos mode through the fault injector, journal
// reuse, and report determinism.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "archive/object_store.h"
#include "support/fault.h"
#include "support/metrics_registry.h"
#include "support/threadpool.h"
#include "hist/yoda_io.h"
#include "validate/validate.h"

namespace daspos {
namespace {

using validate::CampaignSpec;
using validate::CaptureCampaign;
using validate::EnumerateCampaigns;
using validate::ValidateArchive;
using validate::ValidateOptions;
using validate::ValidationReport;
using validate::Verdict;

constexpr char kZll[] = "DASPOS_2014_ZLL";
constexpr char kCharged[] = "DASPOS_2014_CHARGED";

CampaignSpec SmallCampaign(const std::string& name, uint64_t seed = 7) {
  CampaignSpec spec;
  spec.name = name;
  spec.process = Process::kZToLL;
  spec.events = 25;
  spec.seed = seed;
  spec.analyses = {kZll};
  return spec;
}

/// The package CaptureCampaign deposits for `spec`, for tests that
/// re-deposit it edited.
void CapturePackage(const CampaignSpec& spec, SubmissionPackage* package) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto id = CaptureCampaign(&archive, spec);
  ASSERT_TRUE(id.ok()) << id.status();
  auto retrieved = archive.Retrieve(*id);
  ASSERT_TRUE(retrieved.ok()) << retrieved.status();
  *package = retrieved->content;
}

PackageFile* FindFile(SubmissionPackage* package, const std::string& name) {
  for (PackageFile& file : package->files) {
    if (file.logical_name == name) return &file;
  }
  return nullptr;
}

/// Deposits `package` into a fresh archive and validates it.
ValidationReport ValidatePackage(const SubmissionPackage& package) {
  MemoryObjectStore store;
  Archive archive(&store);
  EXPECT_TRUE(archive.Deposit(package).ok());
  auto report = ValidateArchive(archive);
  EXPECT_TRUE(report.ok()) << report.status();
  return report.ok() ? *report : ValidationReport{};
}

std::string TempDir(const std::string& label) {
  return (std::filesystem::temp_directory_path() /
          ("daspos_validate_" + label + "_" + std::to_string(::getpid())))
      .string();
}

TEST(CaptureTest, RejectsUnsafeNamesAndUnknownAnalyses) {
  MemoryObjectStore store;
  Archive archive(&store);
  CampaignSpec spec = SmallCampaign("ok");
  spec.name = "../escape";
  EXPECT_TRUE(CaptureCampaign(&archive, spec).status().IsInvalidArgument());
  spec.name = "";
  EXPECT_TRUE(CaptureCampaign(&archive, spec).status().IsInvalidArgument());
  spec = SmallCampaign("ok");
  spec.events = 0;
  EXPECT_TRUE(CaptureCampaign(&archive, spec).status().IsInvalidArgument());
  spec = SmallCampaign("ok");
  spec.analyses = {"NO_SUCH_ANALYSIS"};
  EXPECT_TRUE(CaptureCampaign(&archive, spec).status().IsNotFound());
}

TEST(CaptureTest, PackageCarriesReferencesAndDigests) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto id = CaptureCampaign(&archive, SmallCampaign("z25"));
  ASSERT_TRUE(id.ok()) << id.status();

  auto set = EnumerateCampaigns(archive);
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set->campaigns.size(), 1u);
  EXPECT_TRUE(set->broken.empty());
  const validate::Campaign& campaign = set->campaigns[0];
  EXPECT_EQ(campaign.name, "z25");
  EXPECT_EQ(campaign.analyses, std::vector<std::string>{kZll});
  // The chain is rebuilt from the package's provenance: gen to derived.
  EXPECT_EQ(campaign.workflow.step_count(), 5u);
  EXPECT_EQ(campaign.reference_yoda.count(kZll), 1u);
  // The whole chain's datasets are digest-pinned.
  for (const char* name : {"gen", "raw", "reco", "aod", "derived"}) {
    EXPECT_EQ(campaign.dataset_digests.count(name), 1u) << name;
  }
}

TEST(CaptureTest, SeedAbove2To63RoundTrips) {
  const uint64_t seed = (uint64_t{1} << 63) + 2048;
  MemoryObjectStore store;
  Archive archive(&store);
  auto id = CaptureCampaign(&archive, SmallCampaign("big_seed", seed));
  ASSERT_TRUE(id.ok()) << id.status();
  // A capture by the earlier writer, which stored the seed as an int64.
  auto package = archive.Retrieve(*id);
  ASSERT_TRUE(package.ok());
  SubmissionPackage legacy = package->content;
  legacy.context["daspos_campaign"]["seed"] = static_cast<int64_t>(seed);
  legacy.description += " (int64 seed)";
  ASSERT_TRUE(archive.Deposit(legacy).ok());

  // Both re-execute their provenance chain, whatever the manifest says.
  auto report = ValidateArchive(archive);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->cells.size(), 2u);
  for (const validate::CellResult& cell : report->cells) {
    EXPECT_EQ(cell.verdict, Verdict::kPass) << cell.detail;
    EXPECT_TRUE(cell.chain_identical);
  }
}

TEST(CaptureTest, EmptyAnalysisListSelectsWholeRegistry) {
  MemoryObjectStore store;
  Archive archive(&store);
  CampaignSpec spec = SmallCampaign("all");
  spec.analyses.clear();
  ASSERT_TRUE(CaptureCampaign(&archive, spec).ok());
  auto set = EnumerateCampaigns(archive);
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set->campaigns.size(), 1u);
  EXPECT_GE(set->campaigns[0].analyses.size(), 5u);
  EXPECT_EQ(set->campaigns[0].reference_yoda.size(),
            set->campaigns[0].analyses.size());
}

TEST(ValidateTest, EmptyArchivePassesVacuouslyEmpty) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto report = ValidateArchive(archive);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->cells.empty());
  EXPECT_EQ(report->Overall(), Verdict::kPass);
}

TEST(ValidateTest, RecapturedCampaignReproducesBitIdentically) {
  MemoryObjectStore store;
  Archive archive(&store);
  CampaignSpec spec = SmallCampaign("z25");
  spec.analyses = {kZll, kCharged};
  ASSERT_TRUE(CaptureCampaign(&archive, spec).ok());

  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t cells_before =
      registry.CounterValue(metric_names::kValidationCellsTotal);
  const uint64_t pass_before =
      registry.CounterValue(metric_names::kValidationPassTotal);

  auto report = ValidateArchive(archive);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->cells.size(), 2u);
  EXPECT_EQ(report->Overall(), Verdict::kPass);
  EXPECT_EQ(report->passed, 2u);
  for (const validate::CellResult& cell : report->cells) {
    EXPECT_EQ(cell.verdict, Verdict::kPass) << cell.detail;
    EXPECT_TRUE(cell.chain_identical);
    EXPECT_EQ(cell.worst_chi2, 0.0);
    EXPECT_EQ(cell.worst_ks, 0.0);
    EXPECT_GT(cell.histograms_compared, 0);
  }
  // Cells sorted by (campaign, analysis).
  EXPECT_EQ(report->cells[0].analysis, kCharged);
  EXPECT_EQ(report->cells[1].analysis, kZll);
  EXPECT_EQ(
      registry.CounterValue(metric_names::kValidationCellsTotal) - cells_before,
      2u);
  EXPECT_EQ(
      registry.CounterValue(metric_names::kValidationPassTotal) - pass_before,
      2u);
}

TEST(ValidateTest, EveryRegisteredAnalysisReproducesIncludingEmptyHistograms) {
  // A 25-event z_ll campaign over the whole registry: the D-meson and W
  // asymmetry analyses fill nothing, and an empty histogram reproduced
  // empty is a pass, not a comparison error.
  MemoryObjectStore store;
  Archive archive(&store);
  CampaignSpec spec = SmallCampaign("all25");
  spec.analyses.clear();
  ASSERT_TRUE(CaptureCampaign(&archive, spec).ok());
  auto report = ValidateArchive(archive);
  ASSERT_TRUE(report.ok()) << report.status();
  std::set<std::string> analyses;
  for (const validate::CellResult& cell : report->cells) {
    analyses.insert(cell.analysis);
    EXPECT_EQ(cell.verdict, Verdict::kPass) << cell.analysis << ": "
                                            << cell.detail;
    EXPECT_TRUE(cell.chain_identical);
  }
  EXPECT_EQ(analyses.count("DASPOS_2014_DMESON"), 1u);
  EXPECT_EQ(analyses.count("DASPOS_2014_WASYM"), 1u);
  EXPECT_EQ(report->Overall(), Verdict::kPass);
}

TEST(ValidateTest, HistogramEmptyOnOneSideFailsTheCell) {
  // Re-deposit a captured campaign with its reference histograms emptied:
  // the re-executed analysis fills them, which is a mismatch.
  SubmissionPackage submission;
  ASSERT_NO_FATAL_FAILURE(
      CapturePackage(SmallCampaign("emptied"), &submission));
  PackageFile* file =
      FindFile(&submission, std::string("validate/") + kZll + ".yoda");
  ASSERT_NE(file, nullptr);
  auto histograms = ReadYoda(file->bytes);
  ASSERT_TRUE(histograms.ok()) << histograms.status();
  for (Histo1D& histogram : *histograms) histogram.Reset();
  file->bytes = WriteYoda(*histograms);

  ValidationReport report = ValidatePackage(submission);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].verdict, Verdict::kFail);
  EXPECT_EQ(report.cells[0].worst_ks, 1.0);
  EXPECT_NE(report.cells[0].detail.find("empty on one side"),
            std::string::npos)
      << report.cells[0].detail;
}

TEST(ValidateTest, ConcurrentMatrixMatchesSerialReport) {
  MemoryObjectStore store;
  Archive archive(&store);
  CampaignSpec a = SmallCampaign("a25", 3);
  a.analyses = {kZll, kCharged};
  CampaignSpec b = SmallCampaign("b25", 4);
  b.analyses = {kZll};
  ASSERT_TRUE(CaptureCampaign(&archive, a).ok());
  ASSERT_TRUE(CaptureCampaign(&archive, b).ok());

  auto serial = ValidateArchive(archive);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(4);
  ValidateOptions options;
  options.pool = &pool;
  auto parallel = ValidateArchive(archive, options);
  ASSERT_TRUE(parallel.ok());

  // The deterministic parts of the report are thread-count invariant.
  EXPECT_EQ(serial->RenderText(), parallel->RenderText());
  ASSERT_EQ(serial->cells.size(), 3u);
  ASSERT_EQ(parallel->cells.size(), 3u);
  for (size_t i = 0; i < serial->cells.size(); ++i) {
    EXPECT_EQ(serial->cells[i].campaign, parallel->cells[i].campaign);
    EXPECT_EQ(serial->cells[i].analysis, parallel->cells[i].analysis);
    EXPECT_EQ(serial->cells[i].verdict, parallel->cells[i].verdict);
    EXPECT_EQ(serial->cells[i].worst_chi2, parallel->cells[i].worst_chi2);
  }
}

TEST(ValidateTest, FiltersSelectSingleCells) {
  MemoryObjectStore store;
  Archive archive(&store);
  CampaignSpec a = SmallCampaign("a25", 3);
  a.analyses = {kZll, kCharged};
  CampaignSpec b = SmallCampaign("b25", 4);
  b.analyses = {kZll};
  ASSERT_TRUE(CaptureCampaign(&archive, a).ok());
  ASSERT_TRUE(CaptureCampaign(&archive, b).ok());

  ValidateOptions options;
  options.campaign_filter = "a25";
  options.analysis_filter = kCharged;
  auto report = ValidateArchive(archive, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cells.size(), 1u);
  EXPECT_EQ(report->cells[0].campaign, "a25");
  EXPECT_EQ(report->cells[0].analysis, kCharged);
  EXPECT_EQ(report->cells[0].verdict, Verdict::kPass);
}

TEST(ValidateTest, MissingReferenceAndUnknownAnalysisFail) {
  MemoryObjectStore store;
  Archive archive(&store);
  // Handcraft a campaign whose manifest promises more than the package
  // holds: one analysis with no reference file, one analysis that is not in
  // the registry at all. Its chain is a captured one's provenance.
  SubmissionPackage captured;
  CampaignSpec spec = SmallCampaign("promises", 1);
  spec.events = 10;
  ASSERT_NO_FATAL_FAILURE(CapturePackage(spec, &captured));
  const PackageFile* provenance =
      FindFile(&captured, "validate/provenance.json");
  ASSERT_NE(provenance, nullptr);
  SubmissionPackage submission;
  submission.title = "campaign:promises";
  submission.files.push_back(*provenance);
  Json manifest = Json::Object();
  manifest["schema"] = 1;
  manifest["name"] = "promises";
  manifest["process"] = "z_ll";
  manifest["events"] = 10;
  manifest["seed"] = 1;
  Json analyses = Json::Array();
  analyses.push_back(Json(kZll));
  analyses.push_back(Json("NOT_REGISTERED"));
  manifest["analyses"] = std::move(analyses);
  submission.context["daspos_campaign"] = std::move(manifest);
  PackageFile file;
  file.logical_name = "validate/NOT_REGISTERED.yoda";
  file.bytes = "BEGIN HISTO1D /x/y\nbinning: 1 0 1\nunderflow: 0\n"
               "overflow: 0\nentries: 0\n0 0\nEND HISTO1D\n";
  submission.files.push_back(file);
  ASSERT_TRUE(archive.Deposit(submission).ok());

  auto report = ValidateArchive(archive);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cells.size(), 2u);
  EXPECT_EQ(report->Overall(), Verdict::kFail);
  // Sorted: DASPOS_2014_ZLL < NOT_REGISTERED.
  EXPECT_EQ(report->cells[0].analysis, kZll);
  EXPECT_EQ(report->cells[0].verdict, Verdict::kFail);
  EXPECT_NE(report->cells[0].detail.find("no archived reference"),
            std::string::npos);
  EXPECT_EQ(report->cells[1].analysis, "NOT_REGISTERED");
  EXPECT_EQ(report->cells[1].verdict, Verdict::kFail);
}

TEST(ValidateTest, MalformedCampaignPackageSurfacesAsFailingCell) {
  MemoryObjectStore store;
  Archive archive(&store);
  SubmissionPackage submission;
  submission.title = "campaign:rotted";
  submission.context["daspos_campaign"] = "not an object";
  PackageFile file;
  file.logical_name = "junk";
  file.bytes = "x";
  submission.files.push_back(file);
  ASSERT_TRUE(archive.Deposit(submission).ok());

  auto report = ValidateArchive(archive);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cells.size(), 1u);
  EXPECT_EQ(report->cells[0].campaign, "rotted");
  EXPECT_EQ(report->cells[0].analysis, "(package)");
  EXPECT_EQ(report->cells[0].verdict, Verdict::kFail);
  EXPECT_NE(report->cells[0].detail.find("unreadable"), std::string::npos);
}

TEST(ValidateTest, ManifestProcessAndSeedAreDescriptiveOnly) {
  // The farm re-executes the package's provenance, so a manifest edited to
  // another process and seed still reproduces bit-identically.
  SubmissionPackage package;
  ASSERT_NO_FATAL_FAILURE(CapturePackage(SmallCampaign("edited"), &package));
  package.context["daspos_campaign"]["seed"] = 8;
  package.context["daspos_campaign"]["process"] = "minbias";
  ValidationReport report = ValidatePackage(package);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].verdict, Verdict::kPass) << report.cells[0].detail;
  EXPECT_TRUE(report.cells[0].chain_identical);
}

TEST(ValidateTest, EditedProvenanceSeedDrifts) {
  // The generation record's seed is what the farm re-runs: editing it moves
  // every dataset away from its archived digest.
  SubmissionPackage package;
  ASSERT_NO_FATAL_FAILURE(CapturePackage(SmallCampaign("reseeded"), &package));
  PackageFile* file = FindFile(&package, "validate/provenance.json");
  ASSERT_NE(file, nullptr);
  auto chain = Json::Parse(file->bytes);
  ASSERT_TRUE(chain.ok()) << chain.status();
  Json edited = Json::Array();
  for (Json record : chain->items()) {
    if (record.Get("dataset").as_string() == "gen") {
      record["config"]["generator"]["seed"] = 8;
    }
    edited.push_back(std::move(record));
  }
  file->bytes = edited.Dump(2);
  ValidationReport report = ValidatePackage(package);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_NE(report.cells[0].verdict, Verdict::kPass);
  EXPECT_FALSE(report.cells[0].chain_identical);
}

TEST(ValidateTest, MissingOrUnrebuildableProvenanceFailsThePackage) {
  SubmissionPackage package;
  ASSERT_NO_FATAL_FAILURE(CapturePackage(SmallCampaign("z25"), &package));
  auto expect_one_failing_package_cell = [](const SubmissionPackage& broken,
                                            const std::string& reason) {
    ValidationReport report = ValidatePackage(broken);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.cells[0].campaign, "z25");
    EXPECT_EQ(report.cells[0].analysis, "(package)");
    EXPECT_EQ(report.cells[0].verdict, Verdict::kFail);
    EXPECT_NE(report.cells[0].detail.find(reason), std::string::npos)
        << report.cells[0].detail;
  };

  SubmissionPackage without = package;
  std::erase_if(without.files, [](const PackageFile& file) {
    return file.logical_name == "validate/provenance.json";
  });
  expect_one_failing_package_cell(without, "validate/provenance.json");

  // A producer RebuildStep does not know: hand-written code, not a config.
  SubmissionPackage unknown = package;
  PackageFile* file = FindFile(&unknown, "validate/provenance.json");
  ASSERT_NE(file, nullptr);
  const std::string producer = "\"producer\": \"generation[gen]\"";
  const size_t at = file->bytes.find(producer);
  ASSERT_NE(at, std::string::npos);
  file->bytes.replace(at, producer.size(),
                      "\"producer\": \"analyst_macro[gen]\"");
  expect_one_failing_package_cell(unknown, "analyst_macro");
}

TEST(ValidateTest, InjectedFaultsAbsorbedByRetries) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(CaptureCampaign(&archive, SmallCampaign("z25")).ok());

  auto spec = FaultSpec::Parse("seed=3,rate=0.3");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  ValidateOptions options;
  options.step_faults = &plan;
  options.max_step_retries = 6;
  options.retry_backoff_ms = 0.0;
  auto report = ValidateArchive(archive, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Overall(), Verdict::kPass) << report->RenderText();
  EXPECT_GT(plan.operations(), 0u);
}

TEST(ValidateTest, InjectedFaultWithoutRetriesFailsTheCell) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(CaptureCampaign(&archive, SmallCampaign("z25")).ok());

  auto spec = FaultSpec::Parse("nth=1");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  ValidateOptions options;
  options.step_faults = &plan;
  auto report = ValidateArchive(archive, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cells.size(), 1u);
  EXPECT_EQ(report->cells[0].verdict, Verdict::kFail);
  EXPECT_NE(report->cells[0].detail.find("chain execution failed"),
            std::string::npos);
}

TEST(ValidateTest, JournalRootCheckpointsAndResumesChains) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(CaptureCampaign(&archive, SmallCampaign("z25")).ok());

  std::string root = TempDir("journal");
  std::filesystem::remove_all(root);
  ValidateOptions options;
  options.journal_root = root;
  auto first = ValidateArchive(archive, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Overall(), Verdict::kPass);
  EXPECT_TRUE(std::filesystem::exists(root + "/z25/journal.jsonl"));

  // The second farm run restores every chain step from the journal instead
  // of re-executing it.
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t restores_before =
      registry.CounterValue(metric_names::kWorkflowCheckpointRestoresTotal);
  auto second = ValidateArchive(archive, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->Overall(), Verdict::kPass);
  EXPECT_EQ(second->cells[0].worst_chi2, 0.0);
  EXPECT_GE(registry.CounterValue(
                metric_names::kWorkflowCheckpointRestoresTotal) -
                restores_before,
            5u);
  std::filesystem::remove_all(root);
}

TEST(ValidateTest, ReportSerializesDeterministically) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(CaptureCampaign(&archive, SmallCampaign("z25")).ok());

  auto report = ValidateArchive(archive);
  ASSERT_TRUE(report.ok());
  Json json = report->ToJson();
  EXPECT_EQ(json.Get("verdict").as_string(), "pass");
  EXPECT_EQ(json.Get("campaigns").as_int(), 1);
  EXPECT_EQ(json.Get("cells").size(), 1u);
  EXPECT_EQ(json.Get("cells").at(0).Get("analysis").as_string(), kZll);
  EXPECT_TRUE(json.Get("cells").at(0).Get("chain_identical").as_bool());

  std::string text = report->RenderText();
  EXPECT_NE(text.find("verdict: PASS (1 pass, 0 warn, 0 fail)"),
            std::string::npos);
  // Text contains no wall-clock numbers: two runs render identically.
  auto again = ValidateArchive(archive);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(text, again->RenderText());
}

}  // namespace
}  // namespace daspos
