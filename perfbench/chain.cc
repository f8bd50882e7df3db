// The chain workload: the §3.2 re-execution path through the workflow
// engine, and its traced decomposition into direct calls per module.
#include <memory>
#include <string>
#include <vector>

#include "conditions/store.h"
#include "detsim/simulation.h"
#include "event/aod.h"
#include "mc/generator.h"
#include "reco/reconstruction.h"
#include "support/parallel.h"
#include "support/sha256.h"
#include "support/threadpool.h"
#include "tiers/dataset.h"
#include "tiers/skimslim.h"
#include "workflow/steps.h"
#include "workloads.h"

namespace perfbench {
namespace {

using daspos::Result;
using daspos::Status;

constexpr daspos::Process kProcess = daspos::Process::kZToLL;
constexpr size_t kEvents = 2000;
// Two workers exercise the pool (so parallel-stage work can show) and leave
// headroom on a small shared host.
constexpr size_t kThreads = 2;
constexpr double kTailP = 0.9;
// Throughput is the median over this many slices of a run; latency
// percentiles are taken over the whole run (at least 100 executions, as
// the p90 tail rule needs).
constexpr size_t kRateSlices = 5;

struct ChainFixture {
  uint64_t seed = 0;
  daspos::ConditionsDb conditions;
  daspos::Workflow workflow;
  std::string reference_digest;  ///< derived blob of the 1-thread run
};

// One engine execution; returns the derived blob and the Execute wall time.
Result<std::string> Execute(const ChainFixture& fixture, size_t threads,
                            double* wall_us) {
  daspos::WorkflowContext context;
  context.set_conditions(&fixture.conditions);
  daspos::ExecuteOptions options;
  options.max_threads = threads;
  const int64_t start = NowNs();
  auto report = fixture.workflow.Execute(&context, nullptr, options);
  *wall_us = static_cast<double>(NowNs() - start) / 1e3;
  if (!report.ok()) return report.status();
  if (!report->fully_succeeded()) {
    return Status::FailedPrecondition("chain execution incomplete");
  }
  DASPOS_ASSIGN_OR_RETURN(std::string_view derived,
                          context.GetDataset("derived"));
  return std::string(derived);
}

// Conditions DB, the 1-thread reference run, and one untimed warm-up at the
// measured thread count (whose digest must already match the reference).
Result<std::unique_ptr<ChainFixture>> SetUp(uint64_t seed, Tally* tally) {
  auto fixture = std::make_unique<ChainFixture>();
  fixture->seed = seed;
  fixture->workflow = daspos::StandardChainWorkflow(kProcess, kEvents, seed);
  daspos::CalibrationSet calib;
  DASPOS_RETURN_IF_ERROR(fixture->conditions.Append(
      daspos::kCalibrationTag, 1, calib.ToPayload()));
  double wall_us = 0.0;
  DASPOS_ASSIGN_OR_RETURN(std::string reference,
                          Execute(*fixture, 1, &wall_us));
  fixture->reference_digest = daspos::Sha256::HashHex(reference);
  DASPOS_ASSIGN_OR_RETURN(std::string warm,
                          Execute(*fixture, kThreads, &wall_us));
  if (daspos::Sha256::HashHex(warm) != fixture->reference_digest) {
    tally->Fail("chain warm-up digest differs from the 1-thread reference");
  }
  return fixture;
}

// One checked engine execution, timed; returns the derived blob. An engine
// error fails the loop: it will not go away by repeating.
Result<std::string> CheckedExecute(const ChainFixture& fixture, Tally* tally,
                                   double* wall_us) {
  auto derived = Execute(fixture, kThreads, wall_us);
  if (!derived.ok()) {
    tally->Record(false, "chain: " + derived.status().ToString());
    return derived.status();
  }
  tally->Record(daspos::Sha256::HashHex(*derived) == fixture.reference_digest,
                "chain derived digest differs from the 1-thread reference");
  return derived;
}

// The engine's calls made directly, step by step with the configuration of
// StandardChainWorkflow, each timed as a span. Each block is one step:
// only the dataset blob crosses a block, as only the blob crosses a step
// under the engine, so decoded events are freed at the same points. Runs
// as a task on `pool` so parallel stages see the same helpers as under the
// engine (the calling worker plus the pool's other worker).
Result<std::string> DecomposedChain(const ChainFixture& fixture,
                                    daspos::ThreadPool* pool,
                                    SpanRecorder* spans, int64_t parent) {
  using namespace daspos;
  GeneratorConfig gen_config;
  gen_config.process = kProcess;
  gen_config.seed = fixture.seed;
  SimulationConfig sim_config;
  sim_config.seed = fixture.seed + 1;
  const uint32_t run_number = 1;

  std::string gen_blob;
  {
    std::vector<GenEvent> events = Traced(spans, "mc.generate", parent, [&] {
      EventGenerator generator(gen_config);
      return generator.GenerateMany(kEvents);
    });
    DatasetInfo info;
    info.tier = DataTier::kGen;
    info.name = "gen";
    info.producer = "generation v1.0";
    info.description = GetProcessInfo(kProcess).description;
    gen_blob = Traced(spans, "tiers.encode", parent,
                      [&] { return WriteGenDataset(info, events); });
  }

  std::string raw_blob;
  {
    DatasetInfo input;
    DASPOS_ASSIGN_OR_RETURN(
        std::vector<GenEvent> truth,
        Traced(spans, "tiers.decode", parent,
               [&] { return ReadGenDataset(gen_blob, &input); }));
    DetectorSimulation simulation(sim_config);
    std::vector<RawEvent> raw = Traced(spans, "detsim.simulate", parent, [&] {
      return ParallelMap<RawEvent>(
          pool, truth.size(),
          [&](size_t i) { return simulation.Simulate(truth[i], run_number); },
          /*grain=*/1);
    });
    DatasetInfo info;
    info.tier = DataTier::kRaw;
    info.name = "raw";
    info.producer = "simulation v1.0";
    info.parents = {input.name};
    info.description = "digitized detector response";
    raw_blob = Traced(spans, "tiers.encode", parent,
                      [&] { return WriteRawDataset(info, raw); });
  }

  std::string reco_blob;
  {
    DatasetInfo input;
    DASPOS_ASSIGN_OR_RETURN(
        std::vector<RawEvent> raw,
        Traced(spans, "tiers.decode", parent,
               [&] { return ReadRawDataset(raw_blob, &input); }));
    if (raw.empty()) return Status::InvalidArgument("RAW dataset is empty");
    DASPOS_ASSIGN_OR_RETURN(
        std::string payload,
        fixture.conditions.GetPayload(kCalibrationTag,
                                      raw.front().run_number));
    DASPOS_ASSIGN_OR_RETURN(CalibrationSet calib,
                            CalibrationSet::FromPayload(payload));
    ReconstructionConfig config;
    config.geometry = sim_config.geometry;
    config.calib = calib;
    Reconstructor reconstructor(config);
    std::vector<RecoEvent> reco =
        Traced(spans, "reco.reconstruct", parent,
               [&] { return reconstructor.ReconstructAll(raw, pool); });
    DatasetInfo info;
    info.tier = DataTier::kReco;
    info.name = "reco";
    info.producer =
        "reconstruction v1.0 (calib v" + std::to_string(calib.version) + ")";
    info.parents = {input.name};
    info.description = "tracks, clusters, candidate physics objects";
    reco_blob = Traced(spans, "tiers.encode", parent,
                       [&] { return WriteRecoDataset(info, reco); });
  }

  std::string aod_blob;
  {
    DatasetInfo input;
    DASPOS_ASSIGN_OR_RETURN(
        std::vector<RecoEvent> reco,
        Traced(spans, "tiers.decode", parent,
               [&] { return ReadRecoDataset(reco_blob, &input); }));
    std::vector<AodEvent> aod =
        Traced(spans, "event.aod_from_reco", parent, [&] {
          return ParallelMap<AodEvent>(
              pool, reco.size(),
              [&](size_t i) { return AodEvent::FromReco(reco[i]); },
              /*grain=*/8);
        });
    DatasetInfo info;
    info.tier = DataTier::kAod;
    info.name = "aod";
    info.producer = "aod_reduction v1.0";
    info.parents = {input.name};
    info.description = "refined physics objects only";
    aod_blob = Traced(spans, "tiers.encode", parent,
                      [&] { return WriteAodDataset(info, aod); });
  }

  return Traced(spans, "tiers.derive", parent, [&] {
    DerivationStats stats;
    return DeriveDataset(aod_blob, "derived",
                         SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0),
                         SlimSpec::LeptonsOnly(10.0), &stats, pool);
  });
}

}  // namespace

Result<TimedResult> RunChainTimed(const RunOptions& options, Tally* tally) {
  TimedResult result;
  std::vector<double> setups;
  std::unique_ptr<ChainFixture> fixture;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    fixture.reset();
    const int64_t start = NowNs();
    DASPOS_ASSIGN_OR_RETURN(fixture, SetUp(options.seed, tally));
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  result.setup_s = Median(setups);

  // Measured time is the engine's own wall time: the digest check between
  // executions is the benchmark's work, not the system's.
  SlicedRun run(options.seconds, kRateSlices, 1, options.seed);
  int64_t busy_ns = 0;
  while (run.NeedsMore(busy_ns, kTailP)) {
    double wall_us = 0.0;
    if (!CheckedExecute(*fixture, tally, &wall_us).ok()) break;
    busy_ns += static_cast<int64_t>(wall_us * 1e3);
    run.Record(busy_ns, static_cast<double>(kEvents), wall_us);
  }
  if (run.operations() == 0) return Status::FailedPrecondition("chain: no runs");
  result.throughput_per_s = run.Throughput();
  result.peak_rss_mib = run.PeakRssMib();
  DASPOS_ASSIGN_OR_RETURN(result.latency_us, run.Latency(kTailP));
  result.notes.push_back("chain: " + std::to_string(kEvents) +
                         " z_ll events per Execute, max_threads=" +
                         std::to_string(kThreads) +
                         ", every derived digest equal to the 1-thread "
                         "reference " +
                         fixture->reference_digest.substr(0, 16));
  return result;
}

Result<double> TraceChain(const RunOptions& options, Tally* tally,
                          SpanRecorder* spans, std::vector<Metric>* metrics) {
  DASPOS_ASSIGN_OR_RETURN(std::unique_ptr<ChainFixture> fixture,
                          SetUp(options.seed, tally));
  daspos::ThreadPool pool(kThreads);
  std::vector<double> engine_us;
  std::vector<double> decomposed_us;
  SlicedRun engine_run(options.seconds, kRateSlices, 1, options.seed);
  int64_t engine_busy_ns = 0;
  // Engine and decomposed runs alternate so drift hits both alike. At least
  // a few pairs, so the medians mean something.
  const int64_t start = NowNs();
  while (static_cast<double>(NowNs() - start) < options.seconds * 1e9 ||
         engine_us.size() < 5) {
    double wall_us = 0.0;
    auto engine = CheckedExecute(*fixture, tally, &wall_us);
    if (!engine.ok()) break;
    const int64_t engine_end = NowNs();
    spans->Record("workflow.execute",
                  engine_end - static_cast<int64_t>(wall_us * 1e3),
                  engine_end);
    engine_us.push_back(wall_us);
    engine_busy_ns += static_cast<int64_t>(wall_us * 1e3);
    engine_run.Record(engine_busy_ns, static_cast<double>(kEvents), wall_us);

    const int64_t root = spans->Begin("workflow.decomposed");
    const int64_t decomposed_start = NowNs();
    Result<std::string> decomposed = Status::FailedPrecondition("not run");
    pool.Submit([&] {
      decomposed = DecomposedChain(*fixture, &pool, spans, root);
    });
    pool.Wait();
    decomposed_us.push_back(static_cast<double>(NowNs() - decomposed_start) /
                            1e3);
    spans->End(root);
    tally->Record(decomposed.ok() && *decomposed == *engine,
                  "decomposed chain derived blob differs from the engine's");
    if (!decomposed.ok()) break;
  }

  const double events = static_cast<double>(kEvents * decomposed_us.size());
  auto per_event = [&](const char* span) {
    return spans->TotalNs(span) / 1e3 / events;
  };
  metrics->push_back({"mc.generate_us_per_event", per_event("mc.generate"),
                      "us"});
  metrics->push_back({"detsim.simulate_us_per_event",
                      per_event("detsim.simulate"), "us"});
  metrics->push_back({"reco.reconstruct_us_per_event",
                      per_event("reco.reconstruct"), "us"});
  metrics->push_back({"event.aod_from_reco_us_per_event",
                      per_event("event.aod_from_reco"), "us"});
  metrics->push_back({"tiers.encode_us_per_event", per_event("tiers.encode"),
                      "us"});
  metrics->push_back({"tiers.decode_us_per_event", per_event("tiers.decode"),
                      "us"});
  metrics->push_back({"tiers.derive_us_per_event", per_event("tiers.derive"),
                      "us"});
  metrics->push_back({"workflow.overhead_us_per_run",
                      Median(engine_us) - Median(decomposed_us), "us"});
  const double serial_ns = spans->TotalNs("mc.generate") +
                           spans->TotalNs("tiers.encode") +
                           spans->TotalNs("tiers.decode");
  metrics->push_back({"workflow.serial_share",
                      serial_ns / spans->TotalNs("workflow.decomposed"),
                      "share"});
  return engine_run.Throughput();
}

}  // namespace perfbench
