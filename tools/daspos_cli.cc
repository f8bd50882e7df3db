// daspos — command-line companion for the preservation stack.
//
// Every command is one entry of the table in Commands(): its name, its
// positionals, the flags it accepts (support/flags.h) and its handler.
// main() dispatches through that table and Usage() renders from it, so
// `daspos` with no arguments prints the authoritative synopsis.
//
// Every <archive-store> argument is a backend spec: `file:DIR` (loose
// sharded files), `pack:DIR` (packfiles), `pack+z:DIR` (packfiles with
// block compression), or a bare DIR whose on-disk layout is sniffed.
//
// Exit code 0 on success, 1 on any error (errors go to stderr). `lint`
// exits 1 when any finding reaches the --fail-on threshold (default:
// error), which makes it usable as a CI gate.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.h"
#include "archive/backend.h"
#include "archive/migrate.h"
#include "archive/object_store.h"
#include "archive/pack_store.h"
#include "archive/scrub.h"
#include "conditions/snapshot.h"
#include "conditions/store.h"
#include "detsim/simulation.h"
#include "reco/reconstruction.h"
#include "hist/yoda_io.h"
#include "level2/common.h"
#include "level2/display.h"
#include "level2/files.h"
#include "lhada/lhada.h"
#include "lint/checks.h"
#include "lint/diagnostics.h"
#include "lint/linter.h"
#include "mc/generator.h"
#include "net/client.h"
#include "support/fault.h"
#include "support/flags.h"
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/threadpool.h"
#include "support/trace.h"
#include "tiers/dataset.h"
#include "validate/validate.h"
#include "workflow/journal.h"
#include "workflow/steps.h"

using namespace daspos;

namespace {

using Args = std::vector<std::string>;

/// Every flag any command takes; each command's table entry declares which
/// of these it accepts, and ParseFlags fills them.
struct CliFlags {
  std::string threads;  // empty -> DASPOS_THREADS env -> the command default
  bool json = false;
  uint64_t retries = 0;
  std::string journal_dir;
  std::string report_path;
  std::string fault_spec;  // --inject-faults=<spec> (deterministic chaos)
  // lint
  std::string fail_on = "error";
  // chain
  double step_timeout_s = 0.0;
  bool keep_going = false;
  std::string resume_dir;  // checkpoint AND restore prior checkpoints
  std::string trace_out;   // Chrome trace_event JSON export path
  // validate
  std::string capture;  // campaign name; non-empty selects capture mode
  std::string process = "z_ll";
  uint64_t events = 200;
  uint64_t seed = 42;
  std::string analyses;  // comma-separated; empty = every registered one
  std::string prometheus_path;
  std::string campaign_filter;
  std::string analysis_filter;
  validate::Thresholds thresholds;
  // scrub, migrate, repack
  std::string cursor_dir;
  uint64_t max_objects = 0;
  double rate = 0.0;
  uint64_t batch = 64;  // the ScrubOptions and MigrateOptions default
  std::string state_dir;
  bool compress = false;
};

int Usage();

int Fail(const std::string& message) {
  std::fprintf(stderr, "daspos: %s\n", message.c_str());
  return 1;
}

/// Resolves a worker thread count for a command: an explicit --threads=N
/// value wins, then the DASPOS_THREADS environment variable, then the
/// fallback. 0 means one worker per hardware thread; 1 forces strictly
/// serial execution.
Result<size_t> ResolveThreads(const std::string& flag_value,
                              size_t fallback = 1) {
  std::string text = flag_value;
  if (text.empty()) {
    const char* env = std::getenv("DASPOS_THREADS");
    if (env != nullptr && env[0] != '\0') text = env;
  }
  if (text.empty()) return fallback;
  auto parsed = ParseU64(text);
  if (!parsed.ok() || *parsed > 4096) {
    return Status::InvalidArgument("bad thread count '" + text + "'");
  }
  return static_cast<size_t>(*parsed);
}

/// The worker pool for a command's --threads value (see ResolveThreads),
/// or null (serial) for one thread. 0 expands to the hardware concurrency.
Result<std::unique_ptr<ThreadPool>> MakePool(const std::string& flag_value,
                                             size_t fallback = 1) {
  DASPOS_ASSIGN_OR_RETURN(size_t threads,
                          ResolveThreads(flag_value, fallback));
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads <= 1) return std::unique_ptr<ThreadPool>();
  return std::make_unique<ThreadPool>(threads);
}

/// The --inject-faults plan, or null when the flag was not given.
Result<std::unique_ptr<FaultPlan>> MakeFaultPlan(const std::string& spec) {
  if (spec.empty()) return std::unique_ptr<FaultPlan>();
  DASPOS_ASSIGN_OR_RETURN(FaultSpec parsed, FaultSpec::Parse(spec));
  return std::make_unique<FaultPlan>(parsed);
}

/// The "fault injection:" report line; prints nothing without a plan.
void PrintFaultSummary(const FaultPlan* faults) {
  if (faults == nullptr) return;
  std::printf("fault injection: %llu fault(s) across %llu operation(s)\n",
              static_cast<unsigned long long>(faults->injected()),
              static_cast<unsigned long long>(faults->operations()));
}

int CmdInspect(const Args& args, const CliFlags&) {
  const std::string& path = args[0];
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return Fail(bytes.status().ToString());

  // Self-describing container?
  if (auto reader = ContainerReader::Open(*bytes); reader.ok()) {
    auto info = DatasetInfo::FromJson(reader->metadata());
    std::printf("type    : daspos container (fixity OK)\n");
    std::printf("records : %llu\n",
                static_cast<unsigned long long>(reader->record_count()));
    std::printf("size    : %s\n", FormatBytes(bytes->size()).c_str());
    if (info.ok()) {
      std::printf("tier    : %s\n", std::string(TierName(info->tier)).c_str());
      std::printf("name    : %s\n", info->name.c_str());
      std::printf("producer: %s\n", info->producer.c_str());
      if (!info->parents.empty()) {
        std::printf("parents : %s\n", Join(info->parents, ", ").c_str());
      }
    } else {
      std::printf("metadata: %s\n", reader->metadata().Dump().c_str());
    }
    return 0;
  } else if (ContainerReader::OpenUnverified(*bytes).ok()) {
    std::printf("type    : daspos container, FIXITY FAILED (bit rot?)\n");
    return 1;
  }

  // Conditions snapshot?
  if (auto snapshot = ConditionsSnapshot::Parse(*bytes); snapshot.ok()) {
    std::printf("type: conditions snapshot for run %u, %zu tags:\n",
                snapshot->run(), snapshot->Tags().size());
    for (const std::string& tag : snapshot->Tags()) {
      std::printf("  %s\n", tag.c_str());
    }
    return 0;
  }

  // Preserved histograms?
  if (auto histograms = ReadYoda(*bytes);
      histograms.ok() && !histograms->empty()) {
    std::printf("type: YODA-like histogram set, %zu histograms:\n",
                histograms->size());
    for (const Histo1D& histogram : *histograms) {
      std::printf("  %-40s %d bins, integral %s\n",
                  histogram.path().c_str(), histogram.axis().nbins(),
                  FormatDouble(histogram.Integral(), 6).c_str());
    }
    return 0;
  }

  // Analysis description?
  if (auto description = lhada::AnalysisDescription::Parse(*bytes);
      description.ok()) {
    std::printf("type: analysis description '%s' (%zu objects, %zu cuts)\n",
                description->name().c_str(), description->objects().size(),
                description->cuts().size());
    return 0;
  }
  return Fail("unrecognized file format: " + path);
}

int CmdGenerate(const Args& args, const CliFlags&) {
  const std::string& process_name = args[0];
  const std::string& count = args[1];
  const std::string& seed = args[2];
  const std::string& out = args[3];
  const std::string tier_name = args.size() == 5 ? args[4] : "gen";
  auto process = ProcessFromName(process_name);
  if (!process.ok()) return Fail(process.status().message());
  auto n = ParseU64(count);
  if (!n.ok()) return Fail("bad event count '" + count + "'");
  auto seed_value = ParseU64(seed);
  if (!seed_value.ok()) return Fail("bad seed '" + seed + "'");
  if (tier_name != "gen" && tier_name != "raw" && tier_name != "reco" &&
      tier_name != "aod") {
    return Fail("tier must be gen, raw, reco, or aod");
  }

  GeneratorConfig config;
  config.process = *process;
  config.seed = *seed_value;
  EventGenerator generator(config);
  std::vector<GenEvent> truth =
      generator.GenerateMany(static_cast<size_t>(*n));

  DatasetInfo info;
  info.name = process_name + "_seed" + seed + "_" + tier_name;
  info.producer = "daspos-cli generate";
  info.description = GetProcessInfo(*process).description;

  std::string blob;
  if (tier_name == "gen") {
    info.tier = DataTier::kGen;
    blob = WriteGenDataset(info, truth);
  } else {
    // Run the default detector chain to the requested tier.
    SimulationConfig sim_config;
    sim_config.seed = *seed_value + 1;
    DetectorSimulation simulation(sim_config);
    std::vector<RawEvent> raw;
    raw.reserve(truth.size());
    for (const GenEvent& event : truth) {
      raw.push_back(simulation.Simulate(event, /*run_number=*/1));
    }
    if (tier_name == "raw") {
      info.tier = DataTier::kRaw;
      blob = WriteRawDataset(info, raw);
    } else {
      ReconstructionConfig reco_config;
      reco_config.geometry = sim_config.geometry;
      reco_config.calib = sim_config.calib;
      Reconstructor reconstructor(reco_config);
      std::vector<RecoEvent> reco;
      reco.reserve(raw.size());
      for (const RawEvent& event : raw) {
        reco.push_back(reconstructor.Reconstruct(event));
      }
      if (tier_name == "reco") {
        info.tier = DataTier::kReco;
        blob = WriteRecoDataset(info, reco);
      } else {
        std::vector<AodEvent> aod;
        aod.reserve(reco.size());
        for (const RecoEvent& event : reco) {
          aod.push_back(AodEvent::FromReco(event));
        }
        info.tier = DataTier::kAod;
        blob = WriteAodDataset(info, aod);
      }
    }
  }
  if (auto status = WriteStringToFile(out, blob); !status.ok()) {
    return Fail(status.ToString());
  }
  std::printf("wrote %s: %llu events at tier %s, %s\n", out.c_str(),
              static_cast<unsigned long long>(*n), tier_name.c_str(),
              FormatBytes(blob.size()).c_str());
  return 0;
}

int CmdHoldings(const Args& args, const CliFlags&) {
  const std::string& spec = args[0];
  auto store = OpenObjectStore(spec);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto recovered = archive.RecoverCatalog();
  if (!recovered.ok()) return Fail(recovered.status().ToString());
  std::printf("%zu package(s) in %s:\n", *recovered, spec.c_str());
  for (const HoldingSummary& holding : archive.Holdings()) {
    std::printf("  %s  %-40s %2zu files %10s%s\n",
                holding.archive_id.substr(0, 12).c_str(),
                holding.title.c_str(), holding.file_count,
                FormatBytes(holding.total_bytes).c_str(),
                holding.migrated_from.empty() ? "" : " (migrated)");
  }
  return 0;
}

int CmdAudit(const Args& args, const CliFlags& flags) {
  auto pool = MakePool(flags.threads);
  if (!pool.ok()) return Fail(pool.status().ToString());
  // Store-walk errors around catalog recovery + audit: an unreadable store
  // enumerates as empty, so without this delta the audit of a damaged
  // archive would pass vacuously.
  const uint64_t walk_before = MetricsRegistry::Global().CounterValue(
      metric_names::kArchiveWalkErrorsTotal);
  auto store = OpenObjectStore(args[0]);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto recovered = archive.RecoverCatalog();
  if (!recovered.ok()) return Fail(recovered.status().ToString());
  FixityReport report = archive.AuditFixity(pool->get());
  const uint64_t walk_errors =
      MetricsRegistry::Global().CounterValue(
          metric_names::kArchiveWalkErrorsTotal) -
      walk_before;
  std::printf("packages: %zu, objects checked: %llu\n", *recovered,
              static_cast<unsigned long long>(report.objects_checked));
  for (const std::string& id : report.corrupted_objects) {
    std::printf("CORRUPTED: %s\n", id.c_str());
  }
  for (const std::string& id : report.missing_objects) {
    std::printf("MISSING  : %s\n", id.c_str());
  }
  if (walk_errors > 0) {
    std::printf("WALK ERRS: %llu (store partially unreadable; audit is "
                "incomplete)\n",
                static_cast<unsigned long long>(walk_errors));
  }
  const bool clean = report.clean() && walk_errors == 0;
  std::printf("verdict: %s\n", clean ? "CLEAN" : "DAMAGED");
  return clean ? 0 : 1;
}

// Deposits local files into the archive as one package. With more than one
// worker the blobs are hashed and stored concurrently (Archive::Deposit's
// batched ingest); the resulting archive id is identical either way.
int CmdIngest(const Args& args, const CliFlags& flags) {
  auto pool = MakePool(flags.threads);
  if (!pool.ok()) return Fail(pool.status().ToString());
  auto store = OpenObjectStore(args[0]);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto recovered = archive.RecoverCatalog();
  if (!recovered.ok()) return Fail(recovered.status().ToString());

  SubmissionPackage package;
  package.title = args[1];
  package.creator = "daspos-cli ingest";
  for (size_t i = 2; i < args.size(); ++i) {
    const std::string& path = args[i];
    auto bytes = ReadFileToString(path);
    if (!bytes.ok()) return Fail(bytes.status().ToString());
    PackageFile file;
    size_t slash = path.find_last_of('/');
    file.logical_name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    file.bytes = std::move(*bytes);
    package.files.push_back(std::move(file));
  }

  auto archive_id = archive.Deposit(package, pool->get());
  if (!archive_id.ok()) return Fail(archive_id.status().ToString());
  uint64_t total_bytes = 0;
  for (const PackageFile& file : package.files) {
    total_bytes += file.bytes.size();
  }
  // This process touched exactly one store, so the global registry totals
  // are this ingest's digest-cache activity.
  const MetricsRegistry& registry = MetricsRegistry::Global();
  std::printf("ingested %zu file(s), %s, as package %s\n",
              package.files.size(), FormatBytes(total_bytes).c_str(),
              archive_id->c_str());
  std::printf(
      "digest cache: %llu hit(s), %llu miss(es), %llu invalidation(s)\n",
      static_cast<unsigned long long>(
          registry.CounterValue(metric_names::kArchiveCacheHitsTotal)),
      static_cast<unsigned long long>(
          registry.CounterValue(metric_names::kArchiveCacheMissesTotal)),
      static_cast<unsigned long long>(registry.CounterValue(
          metric_names::kArchiveCacheInvalidationsTotal)));
  return 0;
}

int CmdRetrieve(const Args& args, const CliFlags&) {
  const std::string& out_dir = args[2];
  auto store = OpenObjectStore(args[0]);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto package = archive.Retrieve(args[1]);
  if (!package.ok()) return Fail(package.status().ToString());
  std::printf("package: %s\n", package->content.title.c_str());
  for (const PackageFile& file : package->content.files) {
    std::string path = out_dir + "/" + file.logical_name;
    if (auto status = WriteStringToFile(path, file.bytes); !status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("  wrote %s (%s)\n", path.c_str(),
                FormatBytes(file.bytes.size()).c_str());
  }
  return 0;
}

int CmdLhadaRun(const Args& args, const CliFlags&) {
  const std::string& description_path = args[0];
  const std::string& aod_path = args[1];
  auto description_text = ReadFileToString(description_path);
  if (!description_text.ok()) return Fail(description_text.status().ToString());
  auto description = lhada::AnalysisDescription::Parse(*description_text);
  if (!description.ok()) return Fail(description.status().ToString());
  auto aod_bytes = ReadFileToString(aod_path);
  if (!aod_bytes.ok()) return Fail(aod_bytes.status().ToString());
  auto events = ReadAodDataset(*aod_bytes);
  if (!events.ok()) return Fail(events.status().ToString());
  lhada::Cutflow cutflow = description->Run(*events);
  std::printf("analysis '%s' over %s\n%s", description->name().c_str(),
              aod_path.c_str(), cutflow.Render().c_str());
  return 0;
}

int CmdLhadaCheck(const Args& args, const CliFlags&) {
  auto text = ReadFileToString(args[0]);
  if (!text.ok()) return Fail(text.status().ToString());
  auto description = lhada::AnalysisDescription::Parse(*text);
  if (!description.ok()) return Fail(description.status().ToString());
  std::printf("%s", description->Serialize().c_str());
  return 0;
}

int CmdDisplay(const Args& args, const CliFlags&) {
  const std::string& path = args[0];
  const std::string& index_text = args[1];
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  auto index = ParseU64(index_text);
  if (!index.ok()) return Fail("bad event index '" + index_text + "'");

  // RECO files carry tracks for the display; AOD gives objects only.
  level2::CommonEvent event;
  if (auto reco = ReadRecoDataset(*bytes); reco.ok()) {
    if (*index >= reco->size()) return Fail("event index out of range");
    event = level2::CommonEvent::FromReco((*reco)[*index]);
  } else if (auto aod = ReadAodDataset(*bytes); aod.ok()) {
    if (*index >= aod->size()) return Fail("event index out of range");
    event = level2::CommonEvent::FromAod((*aod)[*index]);
  } else {
    return Fail("not a RECO or AOD dataset: " + path);
  }
  level2::Scene scene = level2::BuildScene(event);
  std::printf("%s\n", scene.ToJson().Dump(2).c_str());
  return 0;
}

Result<Experiment> ParseExperiment(const std::string& name) {
  for (Experiment experiment : kAllExperiments) {
    if (name == ExperimentName(experiment)) return experiment;
  }
  return Status::InvalidArgument("unknown experiment '" + name +
                                 "' (Alice|Atlas|CMS|LHCb)");
}

int CmdConvert(const Args& args, const CliFlags&) {
  const std::string& in = args[0];
  const std::string& from_name = args[1];
  const std::string& to_name = args[2];
  const std::string& out = args[3];
  auto from = ParseExperiment(from_name);
  if (!from.ok()) return Fail(from.status().ToString());
  auto to = ParseExperiment(to_name);
  if (!to.ok()) return Fail(to.status().ToString());
  auto bytes = ReadFileToString(in);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  auto converted = level2::ConvertEventFile(*from, *bytes, *to);
  if (!converted.ok()) return Fail(converted.status().ToString());
  if (auto status = WriteStringToFile(out, *converted); !status.ok()) {
    return Fail(status.ToString());
  }
  std::printf("converted %s (%s) -> %s (%s), %s\n", in.c_str(),
              from_name.c_str(), out.c_str(), to_name.c_str(),
              FormatBytes(converted->size()).c_str());
  return 0;
}

int CmdExport(const Args& args, const CliFlags&) {
  const std::string& in = args[0];
  const std::string& experiment_name = args[1];
  const std::string& out = args[2];
  auto experiment = ParseExperiment(experiment_name);
  if (!experiment.ok()) return Fail(experiment.status().ToString());
  auto bytes = ReadFileToString(in);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  auto reco = ReadRecoDataset(*bytes);
  if (!reco.ok()) return Fail("not a RECO dataset: " + reco.status().ToString());
  std::vector<level2::CommonEvent> events;
  events.reserve(reco->size());
  for (const RecoEvent& event : *reco) {
    events.push_back(level2::CommonEvent::FromReco(event));
  }
  std::string file = level2::WriteEventFile(*experiment, events);
  if (auto status = WriteStringToFile(out, file); !status.ok()) {
    return Fail(status.ToString());
  }
  std::printf("exported %zu events to %s in the %s outreach dialect (%s)\n",
              events.size(), out.c_str(), experiment_name.c_str(),
              FormatBytes(file.size()).c_str());
  return 0;
}

/// The standard chain for the <process> <n-events> <seed> positionals of
/// `chain` and `metrics`; `conditions` receives the default calibration
/// constants its reconstruction step reads.
Result<Workflow> StandardChain(const Args& args, ConditionsDb* conditions) {
  DASPOS_ASSIGN_OR_RETURN(Process process, ProcessFromName(args[0]));
  auto n = ParseU64(args[1]);
  if (!n.ok()) {
    return Status::InvalidArgument("bad event count '" + args[1] + "'");
  }
  auto seed = ParseU64(args[2]);
  if (!seed.ok()) return Status::InvalidArgument("bad seed '" + args[2] + "'");
  DASPOS_RETURN_IF_ERROR(conditions->Append(kCalibrationTag, 1,
                                            CalibrationSet().ToPayload()));
  return StandardChainWorkflow(process, static_cast<size_t>(*n), *seed);
}

// Runs the standard GEN->RAW->RECO->AOD->derived chain in memory on the
// parallel workflow engine and prints the per-step timing table (or, with
// --json, the full execution report as JSON). With a journal the run is
// checkpointed step by step; --resume restores verified checkpoints instead
// of re-executing their steps.
int CmdChain(const Args& args, const CliFlags& flags) {
  ConditionsDb conditions;
  auto workflow = StandardChain(args, &conditions);
  if (!workflow.ok()) return Fail(workflow.status().ToString());
  auto threads = ResolveThreads(args.size() == 4 ? args[3] : flags.threads,
                                /*fallback=*/0);
  if (!threads.ok()) return Fail(threads.status().ToString());

  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;
  ExecuteOptions options;
  options.max_threads = static_cast<size_t>(*threads);
  options.max_step_retries = static_cast<int>(flags.retries);
  options.step_timeout_ms = flags.step_timeout_s * 1000.0;
  options.keep_going = flags.keep_going;

  std::unique_ptr<RunJournal> journal;
  const std::string journal_dir =
      !flags.resume_dir.empty() ? flags.resume_dir : flags.journal_dir;
  if (!journal_dir.empty()) {
    auto opened = RunJournal::Open(journal_dir);
    if (!opened.ok()) return Fail(opened.status().ToString());
    journal = std::move(*opened);
    options.journal = journal.get();
    options.resume = !flags.resume_dir.empty();
  }
  if (options.resume) {
    // Warn (W104) about checkpoints for steps this workflow does not have;
    // resume ignores them, but the operator should know they exist.
    auto lines = ReadFileToString(RunJournal::LinesPath(journal_dir));
    if (lines.ok()) {
      lint::LintReport journal_lint = lint::CheckJournal(
          lint::JournalSpec::FromJsonLines(*lines), workflow->GraphSpec());
      for (const lint::Diagnostic& diagnostic : journal_lint.diagnostics()) {
        std::fprintf(stderr, "daspos: %s\n", diagnostic.Render().c_str());
      }
    }
  }

  auto faults = MakeFaultPlan(flags.fault_spec);
  if (!faults.ok()) return Fail(faults.status().ToString());
  options.step_faults = faults->get();

  const bool tracing = !flags.trace_out.empty();
  if (tracing) Tracer::Global().Enable();
  auto report = workflow->Execute(&context, &provenance, options);
  size_t span_count = 0;
  if (tracing) {
    // Export even when the run failed — a trace of the failure is exactly
    // what the operator wants to open.
    Tracer::Global().Disable();
    std::vector<SpanEvent> spans = Tracer::Global().Drain();
    span_count = spans.size();
    if (auto status =
            WriteStringToFile(flags.trace_out, TraceEventJson(spans));
        !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (!report.ok()) return Fail(report.status().ToString());

  if (flags.json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
    return report->fully_succeeded() ? 0 : 1;
  }
  std::printf("%s\n",
              report->RenderTimingTable("standard chain execution:").c_str());
  size_t resumed = 0;
  for (const WorkflowReport::StepResult& step : report->steps) {
    if (step.from_checkpoint) ++resumed;
  }
  if (resumed > 0) {
    std::printf("resumed %zu step(s) from journal checkpoints in %s\n",
                resumed, journal_dir.c_str());
  }
  PrintFaultSummary(faults->get());
  if (tracing) {
    std::printf("trace: %zu span(s) written to %s\n", span_count,
                flags.trace_out.c_str());
  }
  std::printf("total: %s across %zu datasets in %s ms on %zu thread(s); "
              "%zu provenance record(s) captured\n",
              FormatBytes(context.TotalBytes()).c_str(),
              context.DatasetNames().size(),
              FormatDouble(report->wall_ms, 3).c_str(),
              report->threads_used, provenance.size());
  if (!report->fully_succeeded()) {
    std::printf("partial success: failed [%s], skipped [%s]\n",
                Join(report->failed_steps, ", ").c_str(),
                Join(report->skipped_steps, ", ").c_str());
    return 1;
  }
  return 0;
}

// The continuous-validation farm. --capture freezes a campaign package
// (chain config + per-analysis reference histograms + dataset digests) into
// the archive; without it, every campaign x analysis cell is re-executed
// through the workflow engine and compared against its archived references.
// Exit: 0 all pass, 2 warnings only, 1 any failure (or unreadable store).
int CmdValidate(const Args& args, const CliFlags& flags) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  RegisterStandardMetrics(registry);
  const uint64_t walk_before =
      registry.CounterValue(metric_names::kArchiveWalkErrorsTotal);
  auto store = OpenObjectStore(args[0]);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto recovered = archive.RecoverCatalog();
  if (!recovered.ok()) return Fail(recovered.status().ToString());

  if (!flags.capture.empty()) {
    validate::CampaignSpec campaign;
    campaign.name = flags.capture;
    auto process = ProcessFromName(flags.process);
    if (!process.ok()) return Fail(process.status().ToString());
    campaign.process = *process;
    campaign.events = static_cast<size_t>(flags.events);
    campaign.seed = flags.seed;
    for (const std::string& analysis : Split(flags.analyses, ',')) {
      std::string trimmed(Trim(analysis));
      if (!trimmed.empty()) campaign.analyses.push_back(std::move(trimmed));
    }
    auto id = validate::CaptureCampaign(&archive, std::move(campaign));
    if (!id.ok()) return Fail(id.status().ToString());
    std::printf("captured campaign '%s' as %s\n", flags.capture.c_str(),
                id->c_str());
    return 0;
  }

  auto pool = MakePool(flags.threads, /*fallback=*/0);
  if (!pool.ok()) return Fail(pool.status().ToString());
  auto faults = MakeFaultPlan(flags.fault_spec);
  if (!faults.ok()) return Fail(faults.status().ToString());

  validate::ValidateOptions options;
  options.thresholds = flags.thresholds;
  options.max_step_retries = static_cast<int>(flags.retries);
  options.retry_backoff_ms = flags.retries > 0 ? 1.0 : 0.0;
  options.step_faults = faults->get();
  options.journal_root = flags.journal_dir;
  options.pool = pool->get();
  options.campaign_filter = flags.campaign_filter;
  options.analysis_filter = flags.analysis_filter;

  auto report = validate::ValidateArchive(archive, options);
  if (!report.ok()) return Fail(report.status().ToString());

  if (!flags.report_path.empty()) {
    if (auto status =
            WriteStringToFile(flags.report_path, report->ToJson().Dump(2));
        !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (!flags.prometheus_path.empty()) {
    if (auto status = WriteStringToFile(flags.prometheus_path,
                                        registry.RenderPrometheus());
        !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (flags.json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report->RenderText().c_str());
    PrintFaultSummary(faults->get());
  }
  const uint64_t walk_errors =
      registry.CounterValue(metric_names::kArchiveWalkErrorsTotal) -
      walk_before;
  if (walk_errors > 0) {
    return Fail(std::to_string(walk_errors) +
                " store walk error(s); archive may be unreadable");
  }
  switch (report->Overall()) {
    case validate::Verdict::kPass: return 0;
    case validate::Verdict::kWarn: return 2;
    case validate::Verdict::kFail: return 1;
  }
  return 1;
}

// Static preservation checks over one or more artifacts: workflow
// provenance chains, LHADA descriptions, archive directories, and
// conditions dumps. Artifact kind is detected from content; nothing is
// executed. Exit 0 when no finding reaches the fail-on threshold.
int CmdLint(const Args& paths, const CliFlags& flags) {
  lint::Severity fail_on = lint::Severity::kError;
  if (!lint::ParseSeverity(flags.fail_on, &fail_on)) {
    return Fail("bad --fail-on value '" + flags.fail_on +
                "' (info|warning|error)");
  }
  auto pool = MakePool(flags.threads);
  if (!pool.ok()) return Fail(pool.status().ToString());
  // Artifacts lint independently; merge in argument order so the report is
  // identical at any thread count.
  std::vector<lint::LintReport> parts = ParallelMap<lint::LintReport>(
      pool->get(), paths.size(),
      [&paths](size_t i) { return lint::LintPath(paths[i]); });
  lint::LintReport report;
  for (lint::LintReport& part : parts) {
    report.Merge(std::move(part));
  }
  if (flags.json) {
    std::printf("%s\n", report.ToJson().Dump(2).c_str());
  } else if (report.empty()) {
    std::printf("lint: %zu artifact(s) clean\n", paths.size());
  } else {
    std::printf("%s", report.RenderText().c_str());
  }
  return report.CountAtLeast(fail_on) > 0 ? 1 : 0;
}

// Prometheus text exposition (version 0.0.4) of the full metric catalogue.
// With the optional positional workload (process, events, seed) the standard
// chain runs first so the dump shows real traffic; without it every
// instrument is present but zero — useful for discovering metric names.
int CmdMetrics(const Args& args, const CliFlags&) {
  if (args.size() != 0 && args.size() != 3) return Usage();
  RegisterStandardMetrics();
  if (!args.empty()) {
    ConditionsDb conditions;
    auto workflow = StandardChain(args, &conditions);
    if (!workflow.ok()) return Fail(workflow.status().ToString());
    auto threads = ResolveThreads("", /*fallback=*/0);
    if (!threads.ok()) return Fail(threads.status().ToString());
    WorkflowContext context;
    context.set_conditions(&conditions);
    ExecuteOptions options;
    options.max_threads = *threads;
    auto report = workflow->Execute(&context, nullptr, options);
    if (!report.ok()) return Fail(report.status().ToString());
  }
  std::printf("%s", MetricsRegistry::Global().RenderPrometheus().c_str());
  return 0;
}

// Incremental bit-preservation scrub over N replica stores: verify every
// object on every replica, heal rot/holes from a healthy replica, resume an
// interrupted pass from the --cursor directory. Exit mirrors validate:
// 0 pass, 2 warn (truncated pass), 1 fail (unrepairable object or error).
int CmdScrub(const Args& roots, const CliFlags& flags) {
  RegisterStandardMetrics();
  std::vector<std::unique_ptr<ObjectStore>> stores;
  std::vector<ObjectStore*> replicas;
  stores.reserve(roots.size());
  for (const std::string& root : roots) {
    auto store = OpenObjectStore(root);
    if (!store.ok()) return Fail(store.status().ToString());
    stores.push_back(std::move(*store));
    replicas.push_back(stores.back().get());
  }
  ScrubOptions options;
  options.cursor_dir = flags.cursor_dir;
  options.max_objects = static_cast<size_t>(flags.max_objects);
  options.rate_limit_per_s = flags.rate;
  options.batch_size = static_cast<size_t>(flags.batch);
  auto pool = MakePool(flags.threads, /*fallback=*/0);
  if (!pool.ok()) return Fail(pool.status().ToString());
  options.pool = pool->get();

  auto report = ScrubReplicas(replicas, options);
  if (!report.ok()) return Fail(report.status().ToString());
  if (!flags.report_path.empty()) {
    if (auto status =
            WriteStringToFile(flags.report_path, report->ToJson().Dump(2));
        !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (flags.json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report->RenderText().c_str());
  }
  switch (report->Verdict()) {
    case ScrubVerdict::kPass: return 0;
    case ScrubVerdict::kWarn: return 2;
    case ScrubVerdict::kFail: return 1;
  }
  return 1;
}

// Copy-verify-swap generation migration of `source` into `target`, whose
// root directory is `target_root`. Durable state (cursor + generation
// marker) defaults to <target_root>/migrate-state; a crashed or
// fault-aborted run resumes from it. Returns 0 only after every object
// re-verified on the target and the generation marker swapped.
int Migrate(ObjectStore& source, ObjectStore& target,
            const std::string& target_root, const CliFlags& flags) {
  RegisterStandardMetrics();
  MigrateOptions options;
  // Durable state lands inside the target's root directory (both backends
  // ignore unknown subdirectories), so `migrate pack:dst` needs no --state.
  options.state_dir = flags.state_dir.empty()
                          ? target_root + "/migrate-state"
                          : flags.state_dir;
  options.batch_size = static_cast<size_t>(flags.batch);
  auto pool = MakePool(flags.threads, /*fallback=*/0);
  if (!pool.ok()) return Fail(pool.status().ToString());
  options.pool = pool->get();
  auto faults = MakeFaultPlan(flags.fault_spec);
  if (!faults.ok()) return Fail(faults.status().ToString());
  options.faults = faults->get();

  auto report = MigrateGeneration(source, target, options);
  if (!report.ok()) {
    // Progress survives in the state dir; rerunning resumes the copy.
    return Fail(report.status().ToString() +
                " (state preserved; rerun to resume)");
  }
  if (auto* pack = dynamic_cast<PackObjectStore*>(&target)) {
    // Seal the final segment so the next open skips the rebuild scan.
    if (auto status = pack->Flush(); !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (flags.json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report->RenderText().c_str());
    PrintFaultSummary(faults->get());
  }
  return 0;
}

int CmdMigrate(const Args& args, const CliFlags& flags) {
  auto source = OpenObjectStore(args[0]);
  if (!source.ok()) return Fail(source.status().ToString());
  auto target_spec = ParseStoreSpec(args[1]);
  if (!target_spec.ok()) return Fail(target_spec.status().ToString());
  std::unique_ptr<ObjectStore> target = OpenObjectStore(*target_spec);
  return Migrate(**source, *target, target_spec->root, flags);
}

// Repacks any store into the packfile backend: Migrate drives the copy (so
// an interrupted repack resumes from its cursor), then the space accounting
// is printed. `daspos repack file:src dst` is the upgrade path for stores
// created before the packfile backend existed.
int CmdRepack(const Args& args, const CliFlags& flags) {
  auto source = OpenObjectStore(args[0]);
  if (!source.ok()) return Fail(source.status().ToString());
  PackOptions pack_options;
  pack_options.compress = flags.compress;
  PackObjectStore target(args[1], pack_options);
  if (int code = Migrate(**source, target, args[1], flags); code != 0) {
    return code;
  }
  size_t objects = 0;
  Status walk = target.ForEachId([&objects](const std::string&) {
    ++objects;
    return Status::OK();
  });
  if (!walk.ok()) return Fail(walk.ToString());
  const uint64_t raw = target.TotalBytes();
  const uint64_t stored = target.StoredBytes();
  std::printf("packed %zu object(s) into %zu segment(s): %s raw",
              objects, target.SegmentCount(),
              FormatBytes(raw).c_str());
  if (flags.compress && raw > 0) {
    std::printf(", %s stored (%.1f%% saved)", FormatBytes(stored).c_str(),
                100.0 * (1.0 - static_cast<double>(stored) /
                                   static_cast<double>(raw)));
  }
  std::printf("\n");
  return 0;
}

/// `daspos connect <host:port> <verb> [...]` — the network client face of
/// the archive verbs, speaking docs/PROTOCOL.md to a running dasposd.
int CmdConnect(const Args& positionals, const CliFlags&) {
  const std::string& host_port = positionals[0];
  const Args args(positionals.begin() + 1, positionals.end());
  auto client = net::Client::Connect(host_port);
  if (!client.ok()) return Fail(client.status().ToString());
  const std::string& verb = args[0];

  if (verb == "ping" && args.size() == 1) {
    if (auto status = client->Ping(); !status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("pong from %s\n", host_port.c_str());
    return 0;
  }
  if (verb == "put" && args.size() == 2) {
    auto bytes = ReadFileToString(args[1]);
    if (!bytes.ok()) return Fail(bytes.status().ToString());
    auto id = client->Put(*bytes);
    if (!id.ok()) return Fail(id.status().ToString());
    std::printf("%s  %s (%s)\n", id->c_str(), args[1].c_str(),
                FormatBytes(bytes->size()).c_str());
    return 0;
  }
  if (verb == "get" && args.size() == 3) {
    auto bytes = client->Get(args[1]);
    if (!bytes.ok()) return Fail(bytes.status().ToString());
    if (auto status = WriteStringToFile(args[2], *bytes); !status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("wrote %s (%s)\n", args[2].c_str(),
                FormatBytes(bytes->size()).c_str());
    return 0;
  }
  if (verb == "verify" && args.size() == 2) {
    if (auto status = client->Verify(args[1]); !status.ok()) {
      return Fail(status.ToString());
    }
    std::printf("verified %s\n", args[1].c_str());
    return 0;
  }
  if (verb == "put-batch" && args.size() >= 2) {
    std::vector<std::string> blobs;
    for (size_t i = 1; i < args.size(); ++i) {
      auto bytes = ReadFileToString(args[i]);
      if (!bytes.ok()) return Fail(bytes.status().ToString());
      blobs.push_back(std::move(*bytes));
    }
    auto ids = client->PutBatch(blobs);
    if (!ids.ok()) return Fail(ids.status().ToString());
    for (size_t i = 0; i < ids->size(); ++i) {
      std::printf("%s  %s\n", (*ids)[i].c_str(), args[i + 1].c_str());
    }
    return 0;
  }
  if (verb == "lint" && args.size() >= 2) {
    std::vector<net::LintArtifact> artifacts;
    for (size_t i = 1; i < args.size(); ++i) {
      net::LintArtifact artifact;
      // Submit under the base name: the server lints bytes, not paths.
      const size_t slash = args[i].find_last_of('/');
      artifact.name =
          slash == std::string::npos ? args[i] : args[i].substr(slash + 1);
      auto bytes = ReadFileToString(args[i]);
      if (!bytes.ok()) return Fail(bytes.status().ToString());
      artifact.bytes = std::move(*bytes);
      artifacts.push_back(std::move(artifact));
    }
    auto report = client->Lint(artifacts);
    if (!report.ok()) return Fail(report.status().ToString());
    std::printf("%s\n", report->c_str());
    return 0;
  }
  if (verb == "chain" && args.size() == 4) {
    auto events = ParseU64(args[2]);
    if (!events.ok()) return Fail("bad event count '" + args[2] + "'");
    auto seed = ParseU64(args[3]);
    if (!seed.ok()) return Fail("bad seed '" + args[3] + "'");
    auto report = client->Chain(args[1], *events, *seed);
    if (!report.ok()) return Fail(report.status().ToString());
    std::printf("%s\n", report->c_str());
    return 0;
  }
  if (verb == "stat" && args.size() == 1) {
    auto stat = client->Stat();
    if (!stat.ok()) return Fail(stat.status().ToString());
    std::printf("%s\n", stat->c_str());
    return 0;
  }
  return Usage();
}

/// One `daspos` command: its positionals (as the usage shows them and as
/// an arity range), the flags it accepts, and its handler.
struct Command {
  const char* name;
  const char* synopsis;
  size_t min_args;
  size_t max_args;
  std::vector<Flag> flags;
  int (*run)(const Args& args, const CliFlags& flags);
};

constexpr size_t kVariadic = SIZE_MAX;

/// The command table, with every flag bound to its field in `f`.
std::vector<Command> Commands(CliFlags* f) {
  const Flag threads = Flag::String("threads", &f->threads, "N");
  const Flag json = Flag::Bool("json", &f->json);
  const Flag retries = Flag::U64("retries", &f->retries, 0, 1000);
  const Flag journal = Flag::String("journal", &f->journal_dir, "DIR");
  const Flag report = Flag::String("report", &f->report_path, "FILE");
  const Flag faults = Flag::String("inject-faults", &f->fault_spec, "SPEC");
  const Flag state = Flag::String("state", &f->state_dir, "DIR");
  const Flag batch = Flag::U64("batch", &f->batch, 1);
  return {
      {"inspect", "<file>", 1, 1, {}, CmdInspect},
      {"generate", "<process> <n-events> <seed> <out-file> [gen|raw|reco|aod]",
       4, 5, {}, CmdGenerate},
      {"holdings", "<archive-store>", 1, 1, {}, CmdHoldings},
      {"audit", "<archive-store>", 1, 1, {threads}, CmdAudit},
      {"ingest", "<archive-store> <title> <file...>", 3, kVariadic, {threads},
       CmdIngest},
      {"retrieve", "<archive-store> <archive-id> <out-dir>", 3, 3, {},
       CmdRetrieve},
      {"lhada-run", "<description-file> <aod-file>", 2, 2, {}, CmdLhadaRun},
      {"lhada-check", "<description-file>", 1, 1, {}, CmdLhadaCheck},
      {"display", "<reco-or-aod-file> <event-index>", 2, 2, {}, CmdDisplay},
      {"convert", "<in-file> <from-exp> <to-exp> <out-file>", 4, 4, {},
       CmdConvert},
      {"export", "<reco-file> <experiment> <out-file>", 3, 3, {}, CmdExport},
      {"chain", "<process> <n-events> <seed> [threads]", 3, 4,
       {threads, json, retries,
        Flag::Double("step-timeout", &f->step_timeout_s, 0.0, "SECONDS"),
        Flag::Bool("keep-going", &f->keep_going), journal,
        Flag::String("resume", &f->resume_dir, "DIR"),
        Flag::Path("trace-out", &f->trace_out, "FILE"), faults},
       CmdChain},
      {"lint", "<artifact...>", 1, kVariadic,
       {json, Flag::String("fail-on", &f->fail_on, "info|warning|error"),
        threads},
       CmdLint},
      {"metrics", "[<process> <n-events> <seed>]", 0, 3, {}, CmdMetrics},
      {"connect", "<host:port> <verb> [args...]", 2, kVariadic, {},
       CmdConnect},
      {"scrub", "<replica-store...>", 1, kVariadic,
       {Flag::String("cursor", &f->cursor_dir, "DIR"),
        Flag::U64("max-objects", &f->max_objects),
        Flag::Double("rate", &f->rate, 0.0, "N"), batch, threads, json,
        report},
       CmdScrub},
      {"migrate", "<source-store> <target-store>", 2, 2,
       {state, batch, threads, faults, json}, CmdMigrate},
      {"repack", "<source-store> <target-dir>", 2, 2,
       {Flag::Bool("compress", &f->compress), state, batch, threads, faults,
        json},
       CmdRepack},
      {"validate", "<archive-store>", 1, 1,
       {Flag::String("capture", &f->capture, "NAME"),
        Flag::String("process", &f->process, "P"),
        Flag::U64("events", &f->events),
        Flag::U64("seed", &f->seed),
        Flag::String("analyses", &f->analyses, "A,B"), json, threads, retries,
        journal, report,
        Flag::String("prometheus", &f->prometheus_path, "FILE"),
        Flag::String("campaign", &f->campaign_filter, "NAME"),
        Flag::String("analysis", &f->analysis_filter, "NAME"), faults,
        Flag::Double("fail-chi2", &f->thresholds.fail_chi2, 0.0, "X"),
        Flag::Double("warn-chi2", &f->thresholds.warn_chi2, 0.0, "X"),
        Flag::Double("warn-ks", &f->thresholds.warn_ks, 0.0, "X")},
       CmdValidate},
  };
}

int Usage() {
  CliFlags unused;
  std::string text = "usage:\n";
  for (const Command& command : Commands(&unused)) {
    text += UsageLine(std::string("  daspos ") + command.name + " " +
                          command.synopsis,
                      command.flags, 15);
  }
  text +=
      "connect verbs: ping | put <file> | get <object-id> <out-file> |\n"
      "               verify <object-id> | put-batch <file...> |\n"
      "               lint <file...> | chain <process> <n-events> <seed> | "
      "stat\n"
      "processes: minbias z_ll w_lnu h_gammagamma qcd_dijet d_meson "
      "zprime_ll\n"
      "threads: --threads=N (or DASPOS_THREADS env) sizes the worker pool;\n"
      "         0 = one per hardware thread, 1 = strictly serial\n"
      "stores : file:DIR (loose sharded), pack:DIR (packfiles),\n"
      "         pack+z:DIR (compressed packfiles); a bare DIR sniffs the "
      "layout\n";
  std::fputs(text.c_str(), stderr);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  const Args args(argv + 2, argv + argc);
  CliFlags flags;
  for (const Command& command : Commands(&flags)) {
    if (name != command.name) continue;
    // A command without flags takes its arguments verbatim, so a file name
    // may start with '-'.
    auto positionals = command.flags.empty()
                           ? Result<Args>(args)
                           : ParseFlags(name, command.flags, args);
    if (!positionals.ok()) return Fail(positionals.status().message());
    if (positionals->size() < command.min_args ||
        positionals->size() > command.max_args) {
      return Usage();
    }
    return command.run(*positionals, flags);
  }
  return Usage();
}
