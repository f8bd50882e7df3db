// daspos — command-line companion for the preservation stack.
//
//   daspos inspect <file>                     identify + summarize a file
//   daspos generate <process> <n> <seed> <out>  produce a GEN dataset
//   daspos holdings <archive-dir>             list archive packages
//   daspos audit <archive-dir>                fixity-audit an archive
//   daspos ingest <archive-dir> <title> <f..> deposit files as a package
//   daspos retrieve <archive-dir> <id> <dir>  extract a package
//   daspos lhada-run <description> <aod>      run a cutflow
//   daspos lhada-check <description>          validate + canonicalize
//   daspos lint [flags] <artifact...>         static preservation checks
//   daspos chain <process> <n> <seed>         run the standard chain
//   daspos metrics [<process> <n> <seed>]     Prometheus metrics dump
//   daspos scrub <replica-store...>           incremental fixity scrub+repair
//   daspos migrate <src-store> <dst-store>    copy-verify-swap migration
//   daspos repack <src-store> <dst-dir>       repack a store into packfiles
//   daspos connect <host:port> <verb> [...]   talk to a running dasposd
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
#include <cstring>
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
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/threadpool.h"
#include "support/trace.h"
#include "tiers/dataset.h"
#include "tiers/skimslim.h"
#include "validate/validate.h"
#include "workflow/journal.h"
#include "workflow/steps.h"

using namespace daspos;

namespace {

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

/// A pool sized for `threads` workers, or null (serial) for threads <= 1.
/// 0 expands to the hardware concurrency.
std::unique_ptr<ThreadPool> MakePool(size_t threads) {
  if (threads == 0) {
    threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  daspos inspect <file>\n"
               "  daspos generate <process> <n-events> <seed> <out-file> "
               "[gen|raw|reco|aod]\n"
               "  daspos holdings <archive-store>\n"
               "  daspos audit <archive-store> [--threads=N]\n"
               "  daspos ingest <archive-store> <title> <file...> "
               "[--threads=N]\n"
               "  daspos retrieve <archive-store> <archive-id> <out-dir>\n"
               "  daspos lhada-run <description-file> <aod-file>\n"
               "  daspos lhada-check <description-file>\n"
               "  daspos display <reco-or-aod-file> <event-index>\n"
               "  daspos convert <in-file> <from-exp> <to-exp> <out-file>\n"
               "  daspos export <reco-file> <experiment> <out-file>\n"
               "  daspos chain <process> <n-events> <seed> [threads] "
               "[--threads=N] [--json]\n"
               "               [--retries=N] [--step-timeout=SECONDS] "
               "[--keep-going]\n"
               "               [--journal=DIR] [--resume=DIR] "
               "[--trace-out=FILE]\n"
               "  daspos lint [--json] [--fail-on=info|warning|error] "
               "[--threads=N] <artifact...>\n"
               "  daspos metrics [<process> <n-events> <seed>]\n"
               "  daspos connect <host:port> ping\n"
               "  daspos connect <host:port> put <file>\n"
               "  daspos connect <host:port> get <object-id> <out-file>\n"
               "  daspos connect <host:port> verify <object-id>\n"
               "  daspos connect <host:port> put-batch <file...>\n"
               "  daspos connect <host:port> lint <file...>\n"
               "  daspos connect <host:port> chain <process> <n-events> "
               "<seed>\n"
               "  daspos connect <host:port> stat\n"
               "  daspos scrub <replica-store...> [--cursor=DIR] "
               "[--max-objects=N] [--rate=N]\n"
               "               [--batch=N] [--threads=N] [--json] "
               "[--report=FILE]\n"
               "  daspos migrate <source-store> <target-store> "
               "[--state=DIR] [--batch=N]\n"
               "               [--threads=N] [--inject-faults=SPEC] "
               "[--json]\n"
               "  daspos repack <source-store> <target-dir> [--compress] "
               "[--state=DIR]\n"
               "               [--batch=N] [--threads=N] "
               "[--inject-faults=SPEC] [--json]\n"
               "  daspos validate <archive-store> --capture=NAME "
               "[--process=P] [--events=N]\n"
               "               [--seed=N] [--analyses=A,B]\n"
               "  daspos validate <archive-store> [--json] [--threads=N] "
               "[--retries=N]\n"
               "               [--journal=DIR] [--report=FILE] "
               "[--prometheus=FILE]\n"
               "               [--campaign=NAME] [--analysis=NAME] "
               "[--inject-faults=SPEC]\n"
               "               [--fail-chi2=X] [--warn-chi2=X] "
               "[--warn-ks=X]\n"
               "processes: minbias z_ll w_lnu h_gammagamma qcd_dijet "
               "d_meson zprime_ll\n"
               "threads: --threads=N (or DASPOS_THREADS env) sizes the "
               "worker pool;\n"
               "         0 = one per hardware thread, 1 = strictly serial\n"
               "stores : file:DIR (loose sharded), pack:DIR (packfiles),\n"
               "         pack+z:DIR (compressed packfiles); a bare DIR "
               "sniffs the layout\n");
  return 1;
}

int CmdInspect(const std::string& path) {
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

int CmdGenerate(const std::string& process_name, const std::string& count,
                const std::string& seed, const std::string& out,
                const std::string& tier_name) {
  Process process = Process::kMinimumBias;
  bool known = false;
  for (const ProcessInfo& info : AllProcesses()) {
    if (info.name == process_name) {
      process = info.id;
      known = true;
    }
  }
  if (!known) return Fail("unknown process '" + process_name + "'");
  auto n = ParseU64(count);
  if (!n.ok()) return Fail("bad event count '" + count + "'");
  auto seed_value = ParseU64(seed);
  if (!seed_value.ok()) return Fail("bad seed '" + seed + "'");
  if (tier_name != "gen" && tier_name != "raw" && tier_name != "reco" &&
      tier_name != "aod") {
    return Fail("tier must be gen, raw, reco, or aod");
  }

  GeneratorConfig config;
  config.process = process;
  config.seed = *seed_value;
  EventGenerator generator(config);
  std::vector<GenEvent> truth =
      generator.GenerateMany(static_cast<size_t>(*n));

  DatasetInfo info;
  info.name = process_name + "_seed" + seed + "_" + tier_name;
  info.producer = "daspos-cli generate";
  info.description = GetProcessInfo(process).description;

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

int CmdHoldings(const std::string& spec) {
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

int CmdAudit(const std::string& spec, size_t threads) {
  // Store-walk errors around catalog recovery + audit: an unreadable store
  // enumerates as empty, so without this delta the audit of a damaged
  // archive would pass vacuously.
  const uint64_t walk_before = MetricsRegistry::Global().CounterValue(
      metric_names::kArchiveWalkErrorsTotal);
  auto store = OpenObjectStore(spec);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto recovered = archive.RecoverCatalog();
  if (!recovered.ok()) return Fail(recovered.status().ToString());
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  FixityReport report = archive.AuditFixity(pool.get());
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
int CmdIngest(const std::string& spec, const std::string& title,
              const std::vector<std::string>& files, size_t threads) {
  auto store = OpenObjectStore(spec);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto recovered = archive.RecoverCatalog();
  if (!recovered.ok()) return Fail(recovered.status().ToString());

  SubmissionPackage package;
  package.title = title;
  package.creator = "daspos-cli ingest";
  for (const std::string& path : files) {
    auto bytes = ReadFileToString(path);
    if (!bytes.ok()) return Fail(bytes.status().ToString());
    PackageFile file;
    size_t slash = path.find_last_of('/');
    file.logical_name =
        slash == std::string::npos ? path : path.substr(slash + 1);
    file.bytes = std::move(*bytes);
    package.files.push_back(std::move(file));
  }

  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  auto archive_id = archive.Deposit(package, pool.get());
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

int CmdRetrieve(const std::string& spec, const std::string& id,
                const std::string& out_dir) {
  auto store = OpenObjectStore(spec);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto package = archive.Retrieve(id);
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

int CmdLhadaRun(const std::string& description_path,
                const std::string& aod_path) {
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

int CmdLhadaCheck(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return Fail(text.status().ToString());
  auto description = lhada::AnalysisDescription::Parse(*text);
  if (!description.ok()) return Fail(description.status().ToString());
  std::printf("%s", description->Serialize().c_str());
  return 0;
}

int CmdDisplay(const std::string& path, const std::string& index_text) {
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

int CmdConvert(const std::string& in, const std::string& from_name,
               const std::string& to_name, const std::string& out) {
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

int CmdExport(const std::string& in, const std::string& experiment_name,
              const std::string& out) {
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

// Flags for `daspos chain` beyond the positional process/count/seed.
struct ChainFlags {
  std::string threads;  // empty -> DASPOS_THREADS env -> hardware default
  bool as_json = false;
  int retries = 0;
  double step_timeout_s = 0.0;
  bool keep_going = false;
  std::string journal_dir;  // checkpoint as the run progresses
  std::string resume_dir;   // checkpoint AND restore prior checkpoints
  std::string fault_spec;   // hidden: --inject-faults=<spec> (CI chaos runs)
  std::string trace_out;    // Chrome trace_event JSON export path
};

Result<Process> ParseProcessName(const std::string& process_name) {
  for (const ProcessInfo& info : AllProcesses()) {
    if (info.name == process_name) return info.id;
  }
  return Status::InvalidArgument("unknown process '" + process_name + "'");
}

// Runs the standard GEN->RAW->RECO->AOD->derived chain in memory on the
// parallel workflow engine and prints the per-step timing table (or, with
// --json, the full execution report as JSON). With a journal the run is
// checkpointed step by step; --resume restores verified checkpoints instead
// of re-executing their steps.
int CmdChain(const std::string& process_name, const std::string& count,
             const std::string& seed, const ChainFlags& flags) {
  auto process = ParseProcessName(process_name);
  if (!process.ok()) return Fail(process.status().ToString());
  auto n = ParseU64(count);
  if (!n.ok()) return Fail("bad event count '" + count + "'");
  auto seed_value = ParseU64(seed);
  if (!seed_value.ok()) return Fail("bad seed '" + seed + "'");
  auto threads = ResolveThreads(flags.threads, /*fallback=*/0);
  if (!threads.ok()) return Fail(threads.status().ToString());

  Workflow workflow = StandardChainWorkflow(
      *process, static_cast<size_t>(*n), *seed_value);

  ConditionsDb conditions;
  CalibrationSet calib;
  if (auto status = conditions.Append(kCalibrationTag, 1, calib.ToPayload());
      !status.ok()) {
    return Fail(status.ToString());
  }
  WorkflowContext context;
  context.set_conditions(&conditions);
  ProvenanceStore provenance;
  ExecuteOptions options;
  options.max_threads = static_cast<size_t>(*threads);
  options.max_step_retries = flags.retries;
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
          lint::JournalSpec::FromJsonLines(*lines), workflow.GraphSpec());
      for (const lint::Diagnostic& diagnostic : journal_lint.diagnostics()) {
        std::fprintf(stderr, "daspos: %s\n", diagnostic.Render().c_str());
      }
    }
  }

  std::unique_ptr<FaultPlan> faults;
  if (!flags.fault_spec.empty()) {
    auto spec = FaultSpec::Parse(flags.fault_spec);
    if (!spec.ok()) return Fail(spec.status().ToString());
    faults = std::make_unique<FaultPlan>(*spec);
    options.step_faults = faults.get();
  }

  const bool tracing = !flags.trace_out.empty();
  if (tracing) Tracer::Global().Enable();
  auto report = workflow.Execute(&context, &provenance, options);
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

  if (flags.as_json) {
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
  if (faults != nullptr) {
    std::printf("fault injection: %llu fault(s) across %llu operation(s)\n",
                static_cast<unsigned long long>(faults->injected()),
                static_cast<unsigned long long>(faults->operations()));
  }
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

struct ValidateFlags {
  std::string capture;   // campaign name; non-empty selects capture mode
  std::string process = "z_ll";
  std::string events = "200";
  std::string seed = "42";
  std::string analyses;  // comma-separated; empty = every registered one
  bool as_json = false;
  std::string threads;
  int retries = 0;
  std::string fault_spec;       // --inject-faults=<spec> (chaos validation)
  std::string journal_dir;      // per-campaign journals under this root
  std::string report_path;      // JSON report file
  std::string prometheus_path;  // metrics exposition file
  std::string campaign_filter;
  std::string analysis_filter;
  validate::Thresholds thresholds;
};

// The continuous-validation farm. --capture freezes a campaign package
// (chain config + per-analysis reference histograms + dataset digests) into
// the archive; without it, every campaign x analysis cell is re-executed
// through the workflow engine and compared against its archived references.
// Exit: 0 all pass, 2 warnings only, 1 any failure (or unreadable store).
int CmdValidate(const std::string& spec, const ValidateFlags& flags) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  RegisterStandardMetrics(registry);
  const uint64_t walk_before =
      registry.CounterValue(metric_names::kArchiveWalkErrorsTotal);
  auto store = OpenObjectStore(spec);
  if (!store.ok()) return Fail(store.status().ToString());
  Archive archive(store->get());
  auto recovered = archive.RecoverCatalog();
  if (!recovered.ok()) return Fail(recovered.status().ToString());

  if (!flags.capture.empty()) {
    validate::CampaignSpec campaign;
    campaign.name = flags.capture;
    auto process = ParseProcessName(flags.process);
    if (!process.ok()) return Fail(process.status().ToString());
    campaign.process = *process;
    auto events = ParseU64(flags.events);
    if (!events.ok()) return Fail("bad --events value '" + flags.events + "'");
    campaign.events = static_cast<size_t>(*events);
    auto seed = ParseU64(flags.seed);
    if (!seed.ok()) return Fail("bad --seed value '" + flags.seed + "'");
    campaign.seed = *seed;
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

  auto threads = ResolveThreads(flags.threads, /*fallback=*/0);
  if (!threads.ok()) return Fail(threads.status().ToString());
  std::unique_ptr<ThreadPool> pool = MakePool(*threads);
  std::unique_ptr<FaultPlan> faults;
  if (!flags.fault_spec.empty()) {
    auto fault_spec = FaultSpec::Parse(flags.fault_spec);
    if (!fault_spec.ok()) return Fail(fault_spec.status().ToString());
    faults = std::make_unique<FaultPlan>(*fault_spec);
  }

  validate::ValidateOptions options;
  options.thresholds = flags.thresholds;
  options.max_step_retries = flags.retries;
  options.retry_backoff_ms = flags.retries > 0 ? 1.0 : 0.0;
  options.step_faults = faults.get();
  options.journal_root = flags.journal_dir;
  options.pool = pool.get();
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
  if (flags.as_json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report->RenderText().c_str());
    if (faults != nullptr) {
      std::printf("fault injection: %llu fault(s) across %llu operation(s)\n",
                  static_cast<unsigned long long>(faults->injected()),
                  static_cast<unsigned long long>(faults->operations()));
    }
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
int CmdLint(const std::vector<std::string>& paths, bool as_json,
            lint::Severity fail_on, size_t threads) {
  // Artifacts lint independently; merge in argument order so the report is
  // identical at any thread count.
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  std::vector<lint::LintReport> parts = ParallelMap<lint::LintReport>(
      pool.get(), paths.size(),
      [&paths](size_t i) { return lint::LintPath(paths[i]); });
  lint::LintReport report;
  for (lint::LintReport& part : parts) {
    report.Merge(std::move(part));
  }
  if (as_json) {
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
int CmdMetrics(const std::vector<std::string>& args) {
  RegisterStandardMetrics();
  if (!args.empty()) {
    auto process = ParseProcessName(args[0]);
    if (!process.ok()) return Fail(process.status().ToString());
    auto n = ParseU64(args[1]);
    if (!n.ok()) return Fail("bad event count '" + args[1] + "'");
    auto seed = ParseU64(args[2]);
    if (!seed.ok()) return Fail("bad seed '" + args[2] + "'");
    auto threads = ResolveThreads("", /*fallback=*/0);
    if (!threads.ok()) return Fail(threads.status().ToString());

    Workflow workflow =
        StandardChainWorkflow(*process, static_cast<size_t>(*n), *seed);
    ConditionsDb conditions;
    CalibrationSet calib;
    if (auto status =
            conditions.Append(kCalibrationTag, 1, calib.ToPayload());
        !status.ok()) {
      return Fail(status.ToString());
    }
    WorkflowContext context;
    context.set_conditions(&conditions);
    ExecuteOptions options;
    options.max_threads = *threads;
    auto report = workflow.Execute(&context, nullptr, options);
    if (!report.ok()) return Fail(report.status().ToString());
  }
  std::printf("%s", MetricsRegistry::Global().RenderPrometheus().c_str());
  return 0;
}

struct ScrubFlags {
  std::string cursor_dir;
  std::string max_objects;
  std::string rate;
  std::string batch;
  std::string threads;
  std::string report_path;
  bool as_json = false;
};

// Incremental bit-preservation scrub over N replica stores: verify every
// object on every replica, heal rot/holes from a healthy replica, resume an
// interrupted pass from the --cursor directory. Exit mirrors validate:
// 0 pass, 2 warn (truncated pass), 1 fail (unrepairable object or error).
int CmdScrub(const std::vector<std::string>& roots, const ScrubFlags& flags) {
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
  if (!flags.max_objects.empty()) {
    auto value = ParseU64(flags.max_objects);
    if (!value.ok()) {
      return Fail("bad --max-objects value '" + flags.max_objects + "'");
    }
    options.max_objects = static_cast<size_t>(*value);
  }
  if (!flags.rate.empty()) {
    auto value = ParseDouble(flags.rate);
    if (!value.ok() || *value < 0.0) {
      return Fail("bad --rate value '" + flags.rate + "'");
    }
    options.rate_limit_per_s = *value;
  }
  if (!flags.batch.empty()) {
    auto value = ParseU64(flags.batch);
    if (!value.ok() || *value == 0) {
      return Fail("bad --batch value '" + flags.batch + "'");
    }
    options.batch_size = static_cast<size_t>(*value);
  }
  auto threads = ResolveThreads(flags.threads, /*fallback=*/0);
  if (!threads.ok()) return Fail(threads.status().ToString());
  std::unique_ptr<ThreadPool> pool = MakePool(*threads);
  options.pool = pool.get();

  auto report = ScrubReplicas(replicas, options);
  if (!report.ok()) return Fail(report.status().ToString());
  if (!flags.report_path.empty()) {
    if (auto status =
            WriteStringToFile(flags.report_path, report->ToJson().Dump(2));
        !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (flags.as_json) {
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

struct MigrateFlags {
  std::string state_dir;
  std::string batch;
  std::string threads;
  std::string fault_spec;
  bool as_json = false;
};

// Copy-verify-swap generation migration from one store root to another.
// Durable state (cursor + generation marker) defaults to
// <target>/migrate-state; a crashed or fault-aborted run resumes from it.
// Exit 0 only after every object re-verified on the target and the
// generation marker swapped.
int CmdMigrate(const std::string& source_spec, const std::string& target_spec,
               const MigrateFlags& flags) {
  RegisterStandardMetrics();
  auto source = OpenObjectStore(source_spec);
  if (!source.ok()) return Fail(source.status().ToString());
  auto parsed_target = ParseStoreSpec(target_spec);
  if (!parsed_target.ok()) return Fail(parsed_target.status().ToString());
  std::unique_ptr<ObjectStore> target = OpenObjectStore(*parsed_target);
  MigrateOptions options;
  // Durable state lands inside the target's root directory (both backends
  // ignore unknown subdirectories), so `migrate pack:dst` needs no --state.
  options.state_dir = flags.state_dir.empty()
                          ? parsed_target->root + "/migrate-state"
                          : flags.state_dir;
  if (!flags.batch.empty()) {
    auto value = ParseU64(flags.batch);
    if (!value.ok() || *value == 0) {
      return Fail("bad --batch value '" + flags.batch + "'");
    }
    options.batch_size = static_cast<size_t>(*value);
  }
  auto threads = ResolveThreads(flags.threads, /*fallback=*/0);
  if (!threads.ok()) return Fail(threads.status().ToString());
  std::unique_ptr<ThreadPool> pool = MakePool(*threads);
  options.pool = pool.get();
  std::unique_ptr<FaultPlan> faults;
  if (!flags.fault_spec.empty()) {
    auto spec = FaultSpec::Parse(flags.fault_spec);
    if (!spec.ok()) return Fail(spec.status().ToString());
    faults = std::make_unique<FaultPlan>(*spec);
    options.faults = faults.get();
  }

  auto report = MigrateGeneration(*source->get(), *target, options);
  if (!report.ok()) {
    // Progress survives in the state dir; rerunning resumes the copy.
    return Fail(report.status().ToString() +
                " (state preserved; rerun to resume)");
  }
  if (auto* pack = dynamic_cast<PackObjectStore*>(target.get())) {
    // Seal the final segment so the next open skips the rebuild scan.
    if (auto status = pack->Flush(); !status.ok()) {
      return Fail(status.ToString());
    }
  }
  if (flags.as_json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report->RenderText().c_str());
    if (faults != nullptr) {
      std::printf("fault injection: %llu fault(s) across %llu operation(s)\n",
                  static_cast<unsigned long long>(faults->injected()),
                  static_cast<unsigned long long>(faults->operations()));
    }
  }
  return 0;
}

struct RepackFlags {
  std::string state_dir;
  std::string batch;
  std::string threads;
  std::string fault_spec;
  bool compress = false;
  bool as_json = false;
};

// Repacks any store into the packfile backend: the copy-verify-swap
// migrator drives the copy (so an interrupted repack resumes from its
// cursor), then the final segment is sealed and the space accounting
// printed. `daspos repack file:src dst` is the upgrade path for stores
// created before the packfile backend existed.
int CmdRepack(const std::string& source_spec, const std::string& target_dir,
              const RepackFlags& flags) {
  RegisterStandardMetrics();
  auto source = OpenObjectStore(source_spec);
  if (!source.ok()) return Fail(source.status().ToString());
  PackOptions pack_options;
  pack_options.compress = flags.compress;
  PackObjectStore target(target_dir, pack_options);
  MigrateOptions options;
  options.state_dir = flags.state_dir.empty() ? target_dir + "/migrate-state"
                                              : flags.state_dir;
  if (!flags.batch.empty()) {
    auto value = ParseU64(flags.batch);
    if (!value.ok() || *value == 0) {
      return Fail("bad --batch value '" + flags.batch + "'");
    }
    options.batch_size = static_cast<size_t>(*value);
  }
  auto threads = ResolveThreads(flags.threads, /*fallback=*/0);
  if (!threads.ok()) return Fail(threads.status().ToString());
  std::unique_ptr<ThreadPool> pool = MakePool(*threads);
  options.pool = pool.get();
  std::unique_ptr<FaultPlan> faults;
  if (!flags.fault_spec.empty()) {
    auto spec = FaultSpec::Parse(flags.fault_spec);
    if (!spec.ok()) return Fail(spec.status().ToString());
    faults = std::make_unique<FaultPlan>(*spec);
    options.faults = faults.get();
  }

  auto report = MigrateGeneration(*source->get(), target, options);
  if (!report.ok()) {
    return Fail(report.status().ToString() +
                " (state preserved; rerun to resume)");
  }
  if (auto status = target.Flush(); !status.ok()) {
    return Fail(status.ToString());
  }
  const uint64_t raw = target.TotalBytes();
  const uint64_t stored = target.StoredBytes();
  if (flags.as_json) {
    std::printf("%s\n", report->ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report->RenderText().c_str());
    if (faults != nullptr) {
      std::printf("fault injection: %llu fault(s) across %llu operation(s)\n",
                  static_cast<unsigned long long>(faults->injected()),
                  static_cast<unsigned long long>(faults->operations()));
    }
  }
  std::printf("packed %zu object(s) into %zu segment(s): %s raw",
              target.Ids().size(), target.SegmentCount(),
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
int CmdConnect(const std::string& host_port,
               const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "inspect" && argc == 3) return CmdInspect(argv[2]);
  if (command == "generate" && (argc == 6 || argc == 7)) {
    return CmdGenerate(argv[2], argv[3], argv[4], argv[5],
                       argc == 7 ? argv[6] : "gen");
  }
  if (command == "holdings" && argc == 3) return CmdHoldings(argv[2]);
  if (command == "audit" && (argc == 3 || argc == 4)) {
    std::string threads_text;
    if (argc == 4) {
      std::string arg = argv[3];
      if (arg.rfind("--threads=", 0) != 0) {
        return Fail("unknown audit flag '" + arg + "'");
      }
      threads_text = arg.substr(10);
    }
    auto threads = ResolveThreads(threads_text);
    if (!threads.ok()) return Fail(threads.status().ToString());
    return CmdAudit(argv[2], *threads);
  }
  if (command == "ingest" && argc >= 5) {
    std::string threads_text;
    std::vector<std::string> files;
    for (int i = 4; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--threads=", 0) == 0) {
        threads_text = arg.substr(10);
      } else if (!arg.empty() && arg[0] == '-') {
        return Fail("unknown ingest flag '" + arg + "'");
      } else {
        files.push_back(std::move(arg));
      }
    }
    if (files.empty()) return Usage();
    auto threads = ResolveThreads(threads_text);
    if (!threads.ok()) return Fail(threads.status().ToString());
    return CmdIngest(argv[2], argv[3], files, *threads);
  }
  if (command == "retrieve" && argc == 5) {
    return CmdRetrieve(argv[2], argv[3], argv[4]);
  }
  if (command == "lhada-run" && argc == 4) {
    return CmdLhadaRun(argv[2], argv[3]);
  }
  if (command == "lhada-check" && argc == 3) return CmdLhadaCheck(argv[2]);
  if (command == "display" && argc == 4) return CmdDisplay(argv[2], argv[3]);
  if (command == "convert" && argc == 6) {
    return CmdConvert(argv[2], argv[3], argv[4], argv[5]);
  }
  if (command == "export" && argc == 5) {
    return CmdExport(argv[2], argv[3], argv[4]);
  }
  if (command == "lint" && argc >= 3) {
    bool as_json = false;
    lint::Severity fail_on = lint::Severity::kError;
    std::string threads_text;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        as_json = true;
      } else if (arg.rfind("--threads=", 0) == 0) {
        threads_text = arg.substr(10);
      } else if (arg.rfind("--fail-on=", 0) == 0) {
        if (!lint::ParseSeverity(arg.substr(10), &fail_on)) {
          return Fail("bad --fail-on value '" + arg.substr(10) +
                      "' (info|warning|error)");
        }
      } else if (!arg.empty() && arg[0] == '-') {
        return Fail("unknown lint flag '" + arg + "'");
      } else {
        paths.push_back(std::move(arg));
      }
    }
    if (paths.empty()) return Usage();
    auto threads = ResolveThreads(threads_text);
    if (!threads.ok()) return Fail(threads.status().ToString());
    return CmdLint(paths, as_json, fail_on, *threads);
  }
  if (command == "chain" && argc >= 5) {
    ChainFlags flags;
    for (int i = 5; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        flags.as_json = true;
      } else if (arg == "--keep-going") {
        flags.keep_going = true;
      } else if (arg.rfind("--threads=", 0) == 0) {
        flags.threads = arg.substr(10);
      } else if (arg.rfind("--retries=", 0) == 0) {
        auto retries = ParseU64(arg.substr(10));
        if (!retries.ok() || *retries > 1000) {
          return Fail("bad --retries value '" + arg.substr(10) + "'");
        }
        flags.retries = static_cast<int>(*retries);
      } else if (arg.rfind("--step-timeout=", 0) == 0) {
        auto seconds = ParseDouble(arg.substr(15));
        if (!seconds.ok() || *seconds < 0.0) {
          return Fail("bad --step-timeout value '" + arg.substr(15) + "'");
        }
        flags.step_timeout_s = *seconds;
      } else if (arg.rfind("--journal=", 0) == 0) {
        flags.journal_dir = arg.substr(10);
      } else if (arg.rfind("--resume=", 0) == 0) {
        flags.resume_dir = arg.substr(9);
      } else if (arg.rfind("--inject-faults=", 0) == 0) {
        flags.fault_spec = arg.substr(16);
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        flags.trace_out = arg.substr(12);
        if (flags.trace_out.empty()) {
          return Fail("--trace-out needs a file path");
        }
      } else if (!arg.empty() && arg[0] == '-') {
        return Fail("unknown chain flag '" + arg + "'");
      } else {
        flags.threads = std::move(arg);
      }
    }
    return CmdChain(argv[2], argv[3], argv[4], flags);
  }
  if (command == "validate" && argc >= 3) {
    ValidateFlags flags;
    for (int i = 3; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        flags.as_json = true;
      } else if (arg.rfind("--capture=", 0) == 0) {
        flags.capture = arg.substr(10);
      } else if (arg.rfind("--process=", 0) == 0) {
        flags.process = arg.substr(10);
      } else if (arg.rfind("--events=", 0) == 0) {
        flags.events = arg.substr(9);
      } else if (arg.rfind("--seed=", 0) == 0) {
        flags.seed = arg.substr(7);
      } else if (arg.rfind("--analyses=", 0) == 0) {
        flags.analyses = arg.substr(11);
      } else if (arg.rfind("--threads=", 0) == 0) {
        flags.threads = arg.substr(10);
      } else if (arg.rfind("--retries=", 0) == 0) {
        auto retries = ParseU64(arg.substr(10));
        if (!retries.ok() || *retries > 1000) {
          return Fail("bad --retries value '" + arg.substr(10) + "'");
        }
        flags.retries = static_cast<int>(*retries);
      } else if (arg.rfind("--inject-faults=", 0) == 0) {
        flags.fault_spec = arg.substr(16);
      } else if (arg.rfind("--journal=", 0) == 0) {
        flags.journal_dir = arg.substr(10);
      } else if (arg.rfind("--report=", 0) == 0) {
        flags.report_path = arg.substr(9);
      } else if (arg.rfind("--prometheus=", 0) == 0) {
        flags.prometheus_path = arg.substr(13);
      } else if (arg.rfind("--campaign=", 0) == 0) {
        flags.campaign_filter = arg.substr(11);
      } else if (arg.rfind("--analysis=", 0) == 0) {
        flags.analysis_filter = arg.substr(11);
      } else if (arg.rfind("--fail-chi2=", 0) == 0) {
        auto value = ParseDouble(arg.substr(12));
        if (!value.ok() || *value < 0.0) {
          return Fail("bad --fail-chi2 value '" + arg.substr(12) + "'");
        }
        flags.thresholds.fail_chi2 = *value;
      } else if (arg.rfind("--warn-chi2=", 0) == 0) {
        auto value = ParseDouble(arg.substr(12));
        if (!value.ok() || *value < 0.0) {
          return Fail("bad --warn-chi2 value '" + arg.substr(12) + "'");
        }
        flags.thresholds.warn_chi2 = *value;
      } else if (arg.rfind("--warn-ks=", 0) == 0) {
        auto value = ParseDouble(arg.substr(10));
        if (!value.ok() || *value < 0.0) {
          return Fail("bad --warn-ks value '" + arg.substr(10) + "'");
        }
        flags.thresholds.warn_ks = *value;
      } else {
        return Fail("unknown validate flag '" + arg + "'");
      }
    }
    return CmdValidate(argv[2], flags);
  }
  if (command == "scrub" && argc >= 3) {
    ScrubFlags flags;
    std::vector<std::string> roots;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        flags.as_json = true;
      } else if (arg.rfind("--cursor=", 0) == 0) {
        flags.cursor_dir = arg.substr(9);
      } else if (arg.rfind("--max-objects=", 0) == 0) {
        flags.max_objects = arg.substr(14);
      } else if (arg.rfind("--rate=", 0) == 0) {
        flags.rate = arg.substr(7);
      } else if (arg.rfind("--batch=", 0) == 0) {
        flags.batch = arg.substr(8);
      } else if (arg.rfind("--threads=", 0) == 0) {
        flags.threads = arg.substr(10);
      } else if (arg.rfind("--report=", 0) == 0) {
        flags.report_path = arg.substr(9);
      } else if (!arg.empty() && arg[0] == '-') {
        return Fail("unknown scrub flag '" + arg + "'");
      } else {
        roots.push_back(std::move(arg));
      }
    }
    if (roots.empty()) return Usage();
    return CmdScrub(roots, flags);
  }
  if (command == "migrate" && argc >= 4) {
    MigrateFlags flags;
    std::vector<std::string> dirs;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        flags.as_json = true;
      } else if (arg.rfind("--state=", 0) == 0) {
        flags.state_dir = arg.substr(8);
      } else if (arg.rfind("--batch=", 0) == 0) {
        flags.batch = arg.substr(8);
      } else if (arg.rfind("--threads=", 0) == 0) {
        flags.threads = arg.substr(10);
      } else if (arg.rfind("--inject-faults=", 0) == 0) {
        flags.fault_spec = arg.substr(16);
      } else if (!arg.empty() && arg[0] == '-') {
        return Fail("unknown migrate flag '" + arg + "'");
      } else {
        dirs.push_back(std::move(arg));
      }
    }
    if (dirs.size() != 2) return Usage();
    return CmdMigrate(dirs[0], dirs[1], flags);
  }
  if (command == "repack" && argc >= 4) {
    RepackFlags flags;
    std::vector<std::string> dirs;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json") {
        flags.as_json = true;
      } else if (arg == "--compress") {
        flags.compress = true;
      } else if (arg.rfind("--state=", 0) == 0) {
        flags.state_dir = arg.substr(8);
      } else if (arg.rfind("--batch=", 0) == 0) {
        flags.batch = arg.substr(8);
      } else if (arg.rfind("--threads=", 0) == 0) {
        flags.threads = arg.substr(10);
      } else if (arg.rfind("--inject-faults=", 0) == 0) {
        flags.fault_spec = arg.substr(16);
      } else if (!arg.empty() && arg[0] == '-') {
        return Fail("unknown repack flag '" + arg + "'");
      } else {
        dirs.push_back(std::move(arg));
      }
    }
    if (dirs.size() != 2) return Usage();
    return CmdRepack(dirs[0], dirs[1], flags);
  }
  if (command == "connect" && argc >= 4) {
    std::vector<std::string> args;
    for (int i = 3; i < argc; ++i) args.emplace_back(argv[i]);
    return CmdConnect(argv[2], args);
  }
  if (command == "metrics" && (argc == 2 || argc == 5)) {
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
    return CmdMetrics(args);
  }
  return Usage();
}
