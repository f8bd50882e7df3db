// Tests for the preservation linter: the diagnostics framework, each
// domain check (workflow graphs, provenance chains, LHADA descriptions,
// archives, conditions), artifact detection in LintPath, and the
// Workflow::Execute pre-flight gate. Every check code has a seeded-defect
// fixture that triggers exactly it, plus one clean artifact per family.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "archive/archive.h"
#include "archive/object_store.h"
#include "archive/pack_store.h"
#include "archive/replicated_store.h"
#include "conditions/store.h"
#include "lint/checks.h"
#include "lint/diagnostics.h"
#include "lint/linter.h"
#include "support/io.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "workflow/engine.h"
#include "workflow/provenance.h"
#include "workflow/steps.h"
#include "store_test_util.h"

namespace daspos {
namespace lint {
namespace {

std::vector<std::string> CodesOf(const LintReport& report) {
  return report.Codes();
}

bool HasCode(const LintReport& report, std::string_view code) {
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.code == code) return true;
  }
  return false;
}

const Diagnostic* FindDiagnostic(const LintReport& report,
                                 std::string_view code) {
  for (const Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.code == code) return &diagnostic;
  }
  return nullptr;
}

// ------------------------------------------------------------ diagnostics

TEST(DiagnosticsTest, RegistryCoversAllFamilies) {
  const std::vector<CheckInfo>& checks = AllChecks();
  ASSERT_GE(checks.size(), 10u);
  std::set<char> families;
  std::set<std::string_view> codes;
  for (const CheckInfo& check : checks) {
    EXPECT_TRUE(codes.insert(check.code).second)
        << "duplicate code " << check.code;
    EXPECT_FALSE(check.summary.empty()) << check.code;
    families.insert(check.code[0]);
  }
  // Workflow, LHADA, archive, conditions, general.
  EXPECT_EQ(families, (std::set<char>{'W', 'L', 'A', 'C', 'G'}));
}

TEST(DiagnosticsTest, FindCheckLooksUpCodes) {
  const CheckInfo* info = FindCheck("W001");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->default_severity, Severity::kError);
  EXPECT_EQ(FindCheck("Z999"), nullptr);
}

TEST(DiagnosticsTest, AddFromRegistryPicksDefaultSeverity) {
  LintReport report;
  report.Add("C006", "conds", "calib", "coverage ends");
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kInfo);
  report.Add("A002", "store", "abc", "digest mismatch");
  EXPECT_TRUE(report.HasErrors());
  EXPECT_EQ(report.CountAtLeast(Severity::kInfo), 2u);
  EXPECT_EQ(report.CountAtLeast(Severity::kError), 1u);
}

TEST(DiagnosticsTest, ParseSeverityRoundTrips) {
  Severity severity = Severity::kInfo;
  EXPECT_TRUE(ParseSeverity("error", &severity));
  EXPECT_EQ(severity, Severity::kError);
  EXPECT_TRUE(ParseSeverity("warning", &severity));
  EXPECT_EQ(severity, Severity::kWarning);
  EXPECT_TRUE(ParseSeverity("info", &severity));
  EXPECT_EQ(severity, Severity::kInfo);
  EXPECT_FALSE(ParseSeverity("fatal", &severity));
  EXPECT_EQ(SeverityName(Severity::kWarning), "warning");
}

TEST(DiagnosticsTest, RenderAndJsonCarryEveryField) {
  LintReport report;
  report.Add("L005", "a.lhada", "jets", "object never used", "remove it");
  std::string text = report.RenderText();
  EXPECT_NE(text.find("a.lhada"), std::string::npos);
  EXPECT_NE(text.find("L005"), std::string::npos);
  EXPECT_NE(text.find("jets"), std::string::npos);
  EXPECT_NE(text.find("remove it"), std::string::npos);

  Json json = report.ToJson();
  EXPECT_EQ(json.Get("counts").Get("warning").as_int(), 1);
  const Json& finding = json.Get("findings").at(0);
  EXPECT_EQ(finding.Get("code").as_string(), "L005");
  EXPECT_EQ(finding.Get("severity").as_string(), "warning");
  EXPECT_EQ(finding.Get("subject").as_string(), "jets");
}

TEST(DiagnosticsTest, MergeConcatenatesAndCodesDeduplicate) {
  LintReport a;
  a.Add("W002", "wf", "s1", "missing inputs: x");
  LintReport b;
  b.Add("W002", "wf", "s2", "missing inputs: y");
  b.Add("W004", "wf", "s3", "orphan");
  a.Merge(std::move(b));
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(CodesOf(a), (std::vector<std::string>{"W002", "W004"}));
}

// --------------------------------------------------------- workflow graph

WorkflowGraphSpec::Step MakeStep(std::string name,
                                 std::vector<std::string> inputs,
                                 std::string output) {
  return {std::move(name), std::move(inputs), std::move(output)};
}

TEST(WorkflowGraphCheckTest, CleanChainHasNoFindings) {
  WorkflowGraphSpec spec;
  spec.steps.push_back(MakeStep("gen", {}, "gen_out"));
  spec.steps.push_back(MakeStep("sim", {"gen_out"}, "raw"));
  spec.steps.push_back(MakeStep("reco", {"raw"}, "reco_out"));
  EXPECT_TRUE(CheckWorkflowGraph(spec).empty());
}

TEST(WorkflowGraphCheckTest, W001DependencyCycle) {
  WorkflowGraphSpec spec;
  spec.steps.push_back(MakeStep("a", {"y"}, "x"));
  spec.steps.push_back(MakeStep("b", {"x"}, "y"));
  LintReport report = CheckWorkflowGraph(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W001"}));
  const Diagnostic* finding = FindDiagnostic(report, "W001");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->severity, Severity::kError);
  EXPECT_NE(finding->message.find("dependency cycle"), std::string::npos);
}

TEST(WorkflowGraphCheckTest, W002MissingInput) {
  WorkflowGraphSpec spec;
  spec.steps.push_back(MakeStep("tagger", {"ghost"}, "tags"));
  LintReport report = CheckWorkflowGraph(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W002"}));
  const Diagnostic* finding = FindDiagnostic(report, "W002");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->subject, "tagger");
  EXPECT_EQ(finding->message, "missing inputs: ghost");
}

TEST(WorkflowGraphCheckTest, ExternalInputSilencesW002) {
  WorkflowGraphSpec spec;
  spec.steps.push_back(MakeStep("tagger", {"ghost"}, "tags"));
  spec.external_inputs.insert("ghost");
  EXPECT_TRUE(CheckWorkflowGraph(spec).empty());
}

TEST(WorkflowGraphCheckTest, W003TransitivelyBlockedStep) {
  WorkflowGraphSpec spec;
  spec.steps.push_back(MakeStep("blocked", {"ghost"}, "x"));
  spec.steps.push_back(MakeStep("downstream", {"x"}, "y"));
  LintReport report = CheckWorkflowGraph(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W002", "W003"}));
  const Diagnostic* finding = FindDiagnostic(report, "W003");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->subject, "downstream");
  EXPECT_EQ(finding->message, "missing inputs: x");
}

TEST(WorkflowGraphCheckTest, W004OrphanStep) {
  WorkflowGraphSpec spec;
  spec.steps.push_back(MakeStep("gen", {}, "gen_out"));
  spec.steps.push_back(MakeStep("sim", {"gen_out"}, "raw"));
  spec.steps.push_back(MakeStep("island", {}, "nowhere"));
  LintReport report = CheckWorkflowGraph(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W004"}));
  EXPECT_EQ(report.diagnostics()[0].subject, "island");
}

TEST(WorkflowGraphCheckTest, SingleStepIsNotAnOrphan) {
  WorkflowGraphSpec spec;
  spec.steps.push_back(MakeStep("solo", {}, "out"));
  EXPECT_TRUE(CheckWorkflowGraph(spec).empty());
}

// ------------------------------------------------------------- provenance

ProvenanceSpec::Record MakeRecord(std::string dataset,
                                  std::vector<std::string> parents) {
  ProvenanceSpec::Record record;
  record.dataset = std::move(dataset);
  record.parents = std::move(parents);
  record.config = Json::Object();
  record.config["step"] = record.dataset;
  record.config_hash = Sha256::HashHex(record.config.Dump());
  return record;
}

TEST(ProvenanceCheckTest, CleanChainHasNoFindings) {
  ProvenanceSpec spec;
  spec.records.push_back(MakeRecord("gen", {}));
  spec.records.push_back(MakeRecord("raw", {"gen"}));
  EXPECT_TRUE(CheckProvenance(spec).empty());
}

TEST(ProvenanceCheckTest, W101GapNamesEveryReferrer) {
  ProvenanceSpec spec;
  spec.records.push_back(MakeRecord("reco", {"raw"}));
  spec.records.push_back(MakeRecord("aod", {"raw"}));
  LintReport report = CheckProvenance(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W101"}));
  const Diagnostic* finding = FindDiagnostic(report, "W101");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(finding->subject, "raw");
  EXPECT_NE(finding->message.find("reco, aod"), std::string::npos);
}

TEST(ProvenanceCheckTest, W102ParentageCycle) {
  ProvenanceSpec spec;
  spec.records.push_back(MakeRecord("a", {"b"}));
  spec.records.push_back(MakeRecord("b", {"a"}));
  LintReport report = CheckProvenance(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W102"}));
  EXPECT_EQ(report.size(), 2u);  // both datasets are their own ancestor
}

TEST(ProvenanceCheckTest, W103BadConfigHash) {
  ProvenanceSpec spec;
  spec.records.push_back(MakeRecord("gen", {}));
  spec.records.back().config_hash = "not-a-hash";
  LintReport report = CheckProvenance(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W103"}));
}

TEST(ProvenanceCheckTest, W103ConfigHashOfAnotherConfig) {
  // A well-formed digest that names some other config: the record's config
  // was edited (or rotted) after capture.
  ProvenanceSpec spec;
  spec.records.push_back(MakeRecord("gen", {}));
  spec.records.push_back(MakeRecord("raw", {"gen"}));
  spec.records.back().config["seed"] = 8;
  LintReport report = CheckProvenance(spec);
  ASSERT_EQ(CodesOf(report), (std::vector<std::string>{"W103"}));
  ASSERT_EQ(report.size(), 1u);
  const Diagnostic& finding = report.diagnostics()[0];
  EXPECT_EQ(finding.subject, "raw");
  EXPECT_NE(finding.message.find(spec.records.back().config_hash),
            std::string::npos)
      << finding.message;
}

TEST(ProvenanceCheckTest, FromJsonReadsStoreSerialization) {
  ProvenanceStore store;
  ProvenanceRecord record;
  record.dataset = "gen";
  record.producer = "generator";
  record.config = Json::Object();
  record.config_hash = Sha256::HashHex(record.config.Dump());
  ASSERT_TRUE(store.Add(std::move(record)).ok());
  auto json = Json::Parse(store.Serialize());
  ASSERT_TRUE(json.ok()) << json.status();
  auto spec = ProvenanceSpec::FromJson(*json);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->records.size(), 1u);
  EXPECT_EQ(spec->records[0].dataset, "gen");
  EXPECT_TRUE(CheckProvenance(*spec).empty());
}

TEST(ProvenanceCheckTest, FromJsonRejectsNonArray) {
  auto json = Json::Parse("{}");
  ASSERT_TRUE(json.ok());
  EXPECT_FALSE(ProvenanceSpec::FromJson(*json).ok());
}

// ------------------------------------------------------------------ LHADA

constexpr char kCleanLhada[] = R"(
analysis dimuon
object muons
  take muon
  select pt > 25
cut preselection
  select count(muons) >= 2
cut mass_window
  require preselection
  select mass(muons[0], muons[1]) > 60
  hist mll mass(muons[0],muons[1]) 40 0 200
)";

TEST(LhadaCheckTest, CleanDescriptionHasNoFindings) {
  LintReport report = CheckLhada(kCleanLhada);
  EXPECT_TRUE(report.empty()) << report.RenderText();
}

TEST(LhadaCheckTest, L000ParseFailure) {
  LintReport report = CheckLhada("object\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L000"}));
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kError);
}

TEST(LhadaCheckTest, L001UndefinedCollectionInCondition) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "cut sel\n"
      "  select count(ghosts) >= 1\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L001"}));
  EXPECT_EQ(report.diagnostics()[0].subject, "sel");
}

TEST(LhadaCheckTest, L002UndefinedRequire) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "object muons\n  take muon\n"
      "cut sel\n"
      "  require phantom\n"
      "  select count(muons) >= 1\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L002"}));
}

TEST(LhadaCheckTest, L003ForwardRequire) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "object muons\n  take muon\n"
      "cut first\n"
      "  require second\n"
      "  select count(muons) >= 1\n"
      "cut second\n"
      "  select count(muons) >= 2\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L003"}));
}

TEST(LhadaCheckTest, L004DuplicateName) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "object muons\n  take muon\n"
      "object muons\n  take muon\n"
      "cut sel\n"
      "  select count(muons) >= 1\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L004"}));
}

TEST(LhadaCheckTest, L005UnusedObject) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "object muons\n  take muon\n"
      "object jets\n  take jet\n"
      "cut sel\n"
      "  select count(muons) >= 1\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L005"}));
  EXPECT_EQ(report.diagnostics()[0].subject, "jets");
}

TEST(LhadaCheckTest, L006UndefinedCollectionInHist) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "object muons\n  take muon\n"
      "cut sel\n"
      "  select count(muons) >= 1\n"
      "  hist lead_pt pt(ghosts[0]) 10 0 100\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L006"}));
  EXPECT_EQ(report.diagnostics()[0].subject, "sel/lead_pt");
}

TEST(LhadaCheckTest, L007VacuousCut) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "cut passthrough\n"
      "  hist met met 10 0 100\n");
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L007"}));
}

TEST(LhadaCheckTest, L008NoCuts) {
  LintReport report = CheckLhada(
      "analysis a\n"
      "object muons\n  take muon\n");
  // The unused object is also reported; the analysis-level finding is L008.
  EXPECT_TRUE(HasCode(report, "L008"));
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L005", "L008"}));
}

// ---------------------------------------------------------------- archive

SubmissionPackage MakeSubmission(const std::string& title) {
  SubmissionPackage submission;
  submission.title = title;
  submission.creator = "lint-test";
  submission.files.push_back(
      {"data.txt", "text/plain", "payload bytes for " + title});
  return submission;
}

TEST(ArchiveCheckTest, CleanArchiveHasNoFindings) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(archive.Deposit(MakeSubmission("clean package")).ok());
  EXPECT_TRUE(CheckArchive(store).empty());
}

// Builds a manifest by hand so each defect can be seeded precisely.
Json ManifestFor(const std::string& title, const std::string& object_id,
                 uint64_t bytes) {
  Json manifest = Json::Object();
  manifest["aip_version"] = 1;
  manifest["title"] = title;
  Json files = Json::Array();
  Json entry = Json::Object();
  entry["name"] = "data.txt";
  entry["sha256"] = object_id;
  entry["bytes"] = bytes;
  files.push_back(std::move(entry));
  manifest["files"] = std::move(files);
  return manifest;
}

TEST(ArchiveCheckTest, A001DanglingReference) {
  MemoryObjectStore store;
  Json manifest = ManifestFor("pkg", std::string(64, '0'), 4);
  ASSERT_TRUE(store.Put(manifest.Dump()).ok());
  LintReport report = CheckArchive(store);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"A001"}));
  EXPECT_EQ(report.diagnostics()[0].subject, std::string(64, '0'));
}

TEST(ArchiveCheckTest, A002DigestMismatch) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(archive.Deposit(MakeSubmission("pkg")).ok());
  // Corrupt the data blob (not the manifest, whose JSON must stay parsable).
  std::string data_id;
  for (const std::string& id : CollectIds(store)) {
    auto bytes = store.Get(id);
    if (bytes.ok() && !Json::Parse(*bytes).ok()) data_id = id;
  }
  ASSERT_FALSE(data_id.empty());
  ASSERT_TRUE(store.CorruptForTesting(data_id, 0).ok());
  LintReport report = CheckArchive(store);
  EXPECT_TRUE(HasCode(report, "A002"));
}

TEST(ArchiveCheckTest, A003UnreferencedBlob) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(archive.Deposit(MakeSubmission("pkg")).ok());
  ASSERT_TRUE(store.Put("stray blob nobody claims").ok());
  LintReport report = CheckArchive(store);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"A003"}));
}

TEST(ArchiveCheckTest, A004SizeDisagreement) {
  MemoryObjectStore store;
  auto data_id = store.Put("four");
  ASSERT_TRUE(data_id.ok());
  Json manifest = ManifestFor("pkg", *data_id, 4096);  // store holds 4
  ASSERT_TRUE(store.Put(manifest.Dump()).ok());
  LintReport report = CheckArchive(store);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"A004"}));
}

TEST(ArchiveCheckTest, A005UntitledManifest) {
  MemoryObjectStore store;
  auto data_id = store.Put("four");
  ASSERT_TRUE(data_id.ok());
  Json manifest = ManifestFor("", *data_id, 4);
  ASSERT_TRUE(store.Put(manifest.Dump()).ok());
  LintReport report = CheckArchive(store);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"A005"}));
}

TEST(ArchiveCheckTest, A006QuarantinedBlob) {
  // Seed the defect for real: deposit a blob on disk, rot its backing file,
  // and read it once so the store quarantines it.
  std::string root = (std::filesystem::temp_directory_path() /
                      ("daspos_lint_a006_" + std::to_string(::getpid())))
                         .string();
  std::filesystem::remove_all(root);
  {
    FileObjectStore store(root);
    auto id = store.Put("healthy bytes");
    ASSERT_TRUE(id.ok());
    std::string path = root + "/" + id->substr(0, 2) + "/" + id->substr(2);
    ASSERT_TRUE(WriteStringToFile(path, "rotten").ok());
    ASSERT_TRUE(store.Get(*id).status().IsCorruption());

    LintReport report = CheckArchive(store);
    EXPECT_TRUE(HasCode(report, "A006"));
    const Diagnostic* diagnostic = FindDiagnostic(report, "A006");
    ASSERT_NE(diagnostic, nullptr);
    EXPECT_EQ(diagnostic->subject, *id);
    // The fix-hint tells the operator how to heal the store.
    EXPECT_NE(diagnostic->hint.find("re-Put"), std::string::npos);

    // Healing the store clears the finding's cause (the quarantined copy
    // remains as evidence, so A006 persists until it is deleted).
    ASSERT_TRUE(store.Put("healthy bytes").ok());
    EXPECT_TRUE(store.Verify(*id).ok());
  }
  std::filesystem::remove_all(root);
}

// A store that cannot be walked must never lint clean: an empty walk over
// an unreadable store would certify the archive vacuously. Each case puts a
// regular file where the store expects its root directory.
std::string FileInPlaceOfStoreRoot(const std::string& name) {
  std::string root = (std::filesystem::temp_directory_path() /
                      (name + "_" + std::to_string(::getpid())))
                         .string();
  std::filesystem::remove_all(root);
  EXPECT_TRUE(WriteStringToFile(root, "not a directory").ok());
  return root;
}

TEST(ArchiveCheckTest, G002UnreadableFileStoreRoot) {
  std::string root = FileInPlaceOfStoreRoot("daspos_lint_g002");
  FileObjectStore store(root);
  LintReport report = CheckArchive(store, "broken-archive");
  ASSERT_EQ(CodesOf(report), (std::vector<std::string>{"G002"}));
  EXPECT_TRUE(report.HasErrors());
  EXPECT_EQ(report.diagnostics()[0].artifact, "broken-archive");
  EXPECT_NE(report.diagnostics()[0].message.find("unreadable"),
            std::string::npos);
  std::filesystem::remove_all(root);
}

TEST(ArchiveCheckTest, G002PackStoreThatFailedToOpen) {
  std::string root = FileInPlaceOfStoreRoot("daspos_lint_g002_pack");
  PackObjectStore store(root);
  LintReport report = CheckArchive(store);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"G002"}));
  EXPECT_TRUE(report.HasErrors());
  std::filesystem::remove_all(root);
}

TEST(ArchiveCheckTest, G002KeepsFindingsForTheObjectsItReached) {
  // One healthy replica and one unreadable one: the union walk still visits
  // every reachable object, so the stray blob is reported next to G002.
  std::string root = FileInPlaceOfStoreRoot("daspos_lint_g002_rep");
  MemoryObjectStore healthy;
  ASSERT_TRUE(healthy.Put("stray blob nobody claims").ok());
  FileObjectStore broken(root);
  ReplicatedObjectStore store({&healthy, &broken});
  LintReport report = CheckArchive(store);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"A003", "G002"}));
  std::filesystem::remove_all(root);
}

TEST(ArchiveCheckTest, G002UnreadableQuarantineArea) {
  // The walk succeeds, but the quarantine area is a regular file: the A006
  // pass cannot list what rotted, so the archive must not lint clean.
  std::string root = (std::filesystem::temp_directory_path() /
                      ("daspos_lint_g002_quarantine_" +
                       std::to_string(::getpid())))
                         .string();
  std::filesystem::remove_all(root);
  FileObjectStore store(root);
  ASSERT_TRUE(store.Put("stray blob nobody claims").ok());
  ASSERT_TRUE(WriteStringToFile(root + "/quarantine", "not a directory").ok());
  LintReport report = CheckArchive(store);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"A003", "G002"}));
  EXPECT_TRUE(report.HasErrors());
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------- run journal

TEST(JournalCheckTest, CleanJournalHasNoFindings) {
  WorkflowGraphSpec workflow;
  workflow.steps.push_back(MakeStep("gen", {}, "gen_out"));
  workflow.steps.push_back(MakeStep("sim", {"gen_out"}, "raw"));
  JournalSpec journal;
  journal.entries.push_back({"gen", "gen_out"});
  EXPECT_TRUE(CheckJournal(journal, workflow).empty());
}

TEST(JournalCheckTest, W104StaleCheckpoint) {
  WorkflowGraphSpec workflow;
  workflow.steps.push_back(MakeStep("gen", {}, "gen_out"));
  JournalSpec journal;
  journal.entries.push_back({"gen", "gen_out"});
  // "reco" was renamed or removed since this journal was written.
  journal.entries.push_back({"reco", "reco_out"});
  journal.entries.push_back({"reco", "reco_out"});  // duplicates dedupe
  LintReport report = CheckJournal(journal, workflow);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W104"}));
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].subject, "reco");
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kWarning);
}

TEST(JournalCheckTest, W105CheckpointWithoutInputDigests) {
  WorkflowGraphSpec workflow;
  workflow.steps.push_back(MakeStep("gen", {}, "gen_out"));
  workflow.steps.push_back(MakeStep("sim", {"gen_out"}, "raw"));
  workflow.steps.push_back(MakeStep("reco", {"raw"}, "reco_out"));
  JournalSpec journal;
  // An input-less step needs no digests; "reco" was re-checkpointed with
  // them after an older line without, and resume reads the latest line.
  journal.entries.push_back({"gen", "gen_out", false});
  journal.entries.push_back({"sim", "raw", false});
  journal.entries.push_back({"reco", "reco_out", false});
  journal.entries.push_back({"reco", "reco_out", true});
  LintReport report = CheckJournal(journal, workflow);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W105"}));
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].subject, "sim");
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kWarning);
}

// ------------------------------------------------------------- conditions

TEST(ConditionsCheckTest, CleanTagHasNoFindings) {
  ConditionsSpec spec;
  spec.tags["calib"] = {{1, 10}, RunRange::From(11)};
  EXPECT_TRUE(CheckConditions(spec).empty());
}

TEST(ConditionsCheckTest, C001Overlap) {
  ConditionsSpec spec;
  spec.tags["calib"] = {{1, 10}, {5, RunRange::kMaxRun}};
  LintReport report = CheckConditions(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"C001"}));
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kError);
}

TEST(ConditionsCheckTest, C002Gap) {
  ConditionsSpec spec;
  spec.tags["calib"] = {{1, 10}, {20, RunRange::kMaxRun}};
  LintReport report = CheckConditions(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"C002"}));
  EXPECT_NE(report.diagnostics()[0].message.find("[11,19]"),
            std::string::npos);
}

TEST(ConditionsCheckTest, C003InvertedRange) {
  ConditionsSpec spec;
  spec.tags["calib"] = {{10, 5}, {1, RunRange::kMaxRun}};
  LintReport report = CheckConditions(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"C003"}));
}

TEST(ConditionsCheckTest, C004DanglingGlobalTagRole) {
  ConditionsSpec spec;
  spec.tags["calib"] = {RunRange::From(1)};
  GlobalTag tag;
  tag.name = "GT_2026";
  tag.roles["calibration"] = "calib";
  tag.roles["alignment"] = "alignment_v2";  // never registered
  spec.global_tags.push_back(tag);
  LintReport report = CheckConditions(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"C004"}));
  EXPECT_EQ(report.diagnostics()[0].subject, "GT_2026");
}

TEST(ConditionsCheckTest, C005EmptyTag) {
  ConditionsSpec spec;
  spec.tags["calib"] = {};
  LintReport report = CheckConditions(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"C005"}));
}

TEST(ConditionsCheckTest, C006ClosedCoverageIsInfo) {
  ConditionsSpec spec;
  spec.tags["calib"] = {{1, 100}};
  LintReport report = CheckConditions(spec);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"C006"}));
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kInfo);
  EXPECT_EQ(report.CountAtLeast(Severity::kWarning), 0u);
}

TEST(ConditionsCheckTest, JsonRoundTrip) {
  ConditionsSpec spec;
  spec.tags["calib"] = {{1, 10}, RunRange::From(11)};
  GlobalTag tag;
  tag.name = "GT";
  tag.roles["calibration"] = "calib";
  spec.global_tags.push_back(tag);

  auto restored = ConditionsSpec::FromJson(spec.ToJson());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->tags.count("calib"), 1u);
  const std::vector<RunRange>& intervals = restored->tags.at("calib");
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].first_run, 1u);
  EXPECT_EQ(intervals[0].last_run, 10u);
  EXPECT_EQ(intervals[1].last_run, RunRange::kMaxRun);
  ASSERT_EQ(restored->global_tags.size(), 1u);
  EXPECT_EQ(restored->global_tags[0].roles.at("calibration"), "calib");
}

// ---------------------------------------------- LintPath artifact routing

class LintPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("daspos_lint_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string WriteArtifact(const std::string& name,
                            const std::string& bytes) {
    std::string path = (root_ / name).string();
    EXPECT_TRUE(WriteStringToFile(path, bytes).ok());
    return path;
  }

  std::filesystem::path root_;
};

TEST_F(LintPathTest, RoutesLhadaText) {
  std::string path = WriteArtifact("unused.lhada",
                                   "analysis a\n"
                                   "object muons\n  take muon\n"
                                   "cut sel\n  select count(muons) >= 1\n"
                                   "object jets\n  take jet\n");
  LintReport report = LintPath(path);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"L005"}));
  EXPECT_EQ(report.diagnostics()[0].artifact, path);
}

TEST_F(LintPathTest, RoutesProvenanceArray) {
  std::string path = WriteArtifact(
      "chain.json",
      "[{\"dataset\": \"reco\", \"config_hash\": \"zzz\", "
      "\"parents\": [\"raw\"]}]");
  LintReport report = LintPath(path);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"W101", "W103"}));
}

TEST_F(LintPathTest, EditedChainConfigIsW103) {
  // A captured chain's provenance lints clean; editing the generation
  // record's seed without re-hashing leaves a stale config_hash.
  WorkflowContext context;
  ProvenanceStore provenance;
  ASSERT_TRUE(ExecuteChain(StandardChainWorkflow(Process::kZToLL, 20, 7),
                           CalibrationSet(), &context, &provenance)
                  .ok());
  std::string captured = provenance.Serialize();
  EXPECT_TRUE(LintPath(WriteArtifact("captured.json", captured)).empty());

  auto chain = Json::Parse(captured);
  ASSERT_TRUE(chain.ok()) << chain.status();
  Json edited = Json::Array();
  for (Json record : chain->items()) {
    if (record.Get("dataset").as_string() == "gen") {
      record["config"]["generator"]["seed"] = 8;
    }
    edited.push_back(std::move(record));
  }
  LintReport report = LintPath(WriteArtifact("edited.json", edited.Dump(2)));
  ASSERT_EQ(CodesOf(report), (std::vector<std::string>{"W103"}));
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].subject, "gen");
  EXPECT_NE(report.diagnostics()[0].message.find(
                provenance.Get("gen")->config_hash),
            std::string::npos);
}

TEST_F(LintPathTest, RoutesConditionsDump) {
  ConditionsSpec spec;
  spec.tags["calib"] = {{1, 10}, {20, RunRange::kMaxRun}};
  std::string path = WriteArtifact("conds.json", spec.ToJson().Dump(2));
  LintReport report = LintPath(path);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"C002"}));
}

TEST_F(LintPathTest, RoutesArchiveDirectory) {
  FileObjectStore store(root_.string());
  Archive archive(&store);
  ASSERT_TRUE(archive.Deposit(MakeSubmission("pkg")).ok());
  ASSERT_TRUE(store.Put("stray blob").ok());
  LintReport report = LintPath(root_.string());
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"A003"}));
}

TEST_F(LintPathTest, RoutesPackArchivesThroughTheStoreSpec) {
  // The bare directory is sniffed as a pack store, as `pack:DIR` names it:
  // each lints an intact archive clean and finds a flipped payload byte.
  // (The read that finds the rot quarantines the object, so each path gets
  // its own archive.)
  for (const bool spec : {false, true}) {
    const std::string root = (root_ / (spec ? "spec" : "sniffed")).string();
    const std::string path = spec ? "pack:" + root : root;
    {
      PackObjectStore store(root);
      Archive archive(&store);
      ASSERT_TRUE(archive.Deposit(MakeSubmission("pkg")).ok());
    }
    EXPECT_TRUE(LintPath(path).empty()) << path;
    auto segment = ReadFileToString(PackSegmentPath(root));
    ASSERT_TRUE(segment.ok());
    const size_t payload = segment->find("payload bytes for pkg");
    ASSERT_NE(payload, std::string::npos);
    FlipByte(PackSegmentPath(root), payload);
    LintReport report = LintPath(path);
    EXPECT_TRUE(HasCode(report, "A002")) << path;
    EXPECT_TRUE(report.HasErrors()) << path;
  }
  // A spec whose root does not exist is unreadable, not a new empty store.
  const std::string missing = (root_ / "missing").string();
  EXPECT_EQ(CodesOf(LintPath("pack:" + missing)),
            (std::vector<std::string>{"G002"}));
  EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST_F(LintPathTest, G001UnrecognizedJson) {
  std::string path = WriteArtifact("mystery.json", "{\"foo\": 1}");
  LintReport report = LintPath(path);
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"G001"}));
}

TEST_F(LintPathTest, G002UnreadableArtifact) {
  LintReport report = LintPath((root_ / "does_not_exist").string());
  EXPECT_EQ(CodesOf(report), (std::vector<std::string>{"G002"}));
}

// The acceptance bar for the subsystem: across the four artifact families,
// seeded defects surface at least ten distinct check codes.
TEST_F(LintPathTest, SeededDefectsCoverTenDistinctCodes) {
  LintReport combined;
  {
    WorkflowGraphSpec spec;
    spec.steps.push_back(MakeStep("a", {"y"}, "x"));
    spec.steps.push_back(MakeStep("b", {"x"}, "y"));
    spec.steps.push_back(MakeStep("c", {"ghost"}, "z"));
    combined.Merge(CheckWorkflowGraph(spec));
  }
  {
    ProvenanceSpec spec;
    spec.records.push_back(MakeRecord("reco", {"raw"}));
    spec.records.back().config_hash = "bad";
    combined.Merge(CheckProvenance(spec));
  }
  combined.Merge(CheckLhada("analysis a\n"
                            "object jets\n  take jet\n"
                            "cut sel\n  select count(ghosts) >= 1\n"
                            "cut empty\n"));
  {
    MemoryObjectStore store;
    Json manifest = ManifestFor("", std::string(64, '0'), 4);
    ASSERT_TRUE(store.Put(manifest.Dump()).ok());
    ASSERT_TRUE(store.Put("stray").ok());
    combined.Merge(CheckArchive(store));
  }
  {
    ConditionsSpec spec;
    spec.tags["overlapping"] = {{1, 10}, {5, 20}};
    spec.tags["empty"] = {};
    combined.Merge(CheckConditions(spec));
  }
  std::vector<std::string> codes = combined.Codes();
  EXPECT_GE(codes.size(), 10u) << "codes: " << Join(codes, ", ");
}

// -------------------------------------------------- Workflow::Execute gate

class NamedStep : public WorkflowStep {
 public:
  explicit NamedStep(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  std::string version() const override { return "1"; }
  Json Config() const override { return Json::Object(); }
  Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                         WorkflowContext*) const override {
    std::string out = name_ + ":";
    for (const DatasetInput& input : inputs) out += std::string(input.bytes);
    return StepOutput{std::move(out)};
  }

 private:
  std::string name_;
};

TEST(ExecuteGateTest, GraphSpecMirrorsBindingsAndContext) {
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<NamedStep>("consume"),
                           {"external", "produced"}, "final")
                  .ok());
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<NamedStep>("produce"), {},
                           "produced")
                  .ok());
  WorkflowContext context;
  ASSERT_TRUE(context.PutDataset("external", "bytes").ok());

  WorkflowGraphSpec spec = workflow.GraphSpec(&context);
  ASSERT_EQ(spec.steps.size(), 2u);
  EXPECT_EQ(spec.steps[0].name, "consume");
  EXPECT_EQ(spec.steps[0].inputs,
            (std::vector<std::string>{"external", "produced"}));
  EXPECT_EQ(spec.external_inputs, (std::set<std::string>{"external"}));
  EXPECT_TRUE(CheckWorkflowGraph(spec).empty());
}

TEST(ExecuteGateTest, RejectsBrokenGraphWithNamedDiagnostics) {
  Workflow workflow;
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<NamedStep>("tagger"), {"ghost"},
                           "tags")
                  .ok());
  WorkflowContext context;
  auto report = workflow.Execute(&context);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("tagger"), std::string::npos);
  EXPECT_NE(report.status().message().find("missing inputs: ghost"),
            std::string::npos);
  EXPECT_NE(report.status().message().find("[W002]"), std::string::npos);
  // Nothing executed: the gate fires before any step runs.
  EXPECT_TRUE(context.DatasetNames().empty());
}

TEST(ExecuteGateTest, CleanGraphStillExecutes) {
  Workflow workflow;
  ASSERT_TRUE(
      workflow.AddStep(std::make_shared<NamedStep>("gen"), {}, "gen_out")
          .ok());
  ASSERT_TRUE(workflow
                  .AddStep(std::make_shared<NamedStep>("sim"), {"gen_out"},
                           "raw")
                  .ok());
  WorkflowContext context;
  auto report = workflow.Execute(&context);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->steps.size(), 2u);
}

}  // namespace
}  // namespace lint
}  // namespace daspos
