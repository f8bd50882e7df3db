#include "workflow/steps.h"

#include "conditions/store.h"
#include "support/parallel.h"
#include "support/sha256.h"
#include "tiers/dataset.h"

namespace daspos {

namespace {

/// Producer kinds. A step's name is its kind qualified by its output
/// dataset ("generation[batch_a]"), so a workflow can hold several steps of
/// one kind; provenance records the name, and RebuildStep dispatches on the
/// kind.
constexpr char kGenerationKind[] = "generation";
constexpr char kSimulationKind[] = "simulation";
constexpr char kReconstructionKind[] = "reconstruction";
constexpr char kAodReductionKind[] = "aod_reduction";
constexpr char kDerivationKind[] = "derivation";
constexpr char kMergeKind[] = "merge";

std::string StepName(const char* kind, const std::string& dataset) {
  return std::string(kind) + "[" + dataset + "]";
}

/// The engine's worker pool for a step's parallel loops and codecs; null
/// (serial) without a context.
ThreadPool* PoolOf(const WorkflowContext* context) {
  return context != nullptr ? context->worker_pool() : nullptr;
}

/// A step's output: the sealed blob, and the events it encodes for this
/// run's consumers of the dataset.
template <typename Event>
StepOutput WithEvents(std::string blob, DatasetInfo info,
                      std::vector<Event> events) {
  const uint64_t count = events.size();
  return StepOutput{std::move(blob), count,
                    std::make_shared<const DatasetPayload>(DatasetPayload{
                        std::move(info), std::move(events)})};
}

}  // namespace

Json GeneratorConfigToJson(const GeneratorConfig& config) {
  Json json = Json::Object();
  json["process"] = static_cast<int>(config.process);
  json["process_name"] = GetProcessInfo(config.process).name;
  json["seed"] = config.seed;
  json["pileup_mean"] = config.pileup_mean;
  json["zprime_mass"] = config.zprime_mass;
  json["zprime_width"] = config.zprime_width;
  json["tune_activity"] = config.tune_activity;
  json["lepton_flavor"] = config.lepton_flavor;
  return json;
}

Result<GeneratorConfig> GeneratorConfigFromJson(const Json& json) {
  if (!json.is_object() || !json.Has("process")) {
    return Status::InvalidArgument("generator config JSON missing 'process'");
  }
  GeneratorConfig config;
  DASPOS_ASSIGN_OR_RETURN(int64_t process,
                          ReadInteger<int64_t>(json, "process"));
  DASPOS_ASSIGN_OR_RETURN(config.process, ProcessFromId(process));
  DASPOS_ASSIGN_OR_RETURN(config.seed, ReadInteger<uint64_t>(json, "seed"));
  config.pileup_mean = json.Get("pileup_mean").as_number();
  if (json.Has("zprime_mass")) {
    config.zprime_mass = json.Get("zprime_mass").as_number();
  }
  if (json.Has("zprime_width")) {
    config.zprime_width = json.Get("zprime_width").as_number();
  }
  if (json.Has("tune_activity")) {
    config.tune_activity = json.Get("tune_activity").as_number();
  }
  if (json.Has("lepton_flavor")) {
    DASPOS_ASSIGN_OR_RETURN(config.lepton_flavor,
                            ReadInteger<int>(json, "lepton_flavor"));
  }
  return config;
}

Json GeometryToJson(const DetectorGeometry& geometry) {
  // Complete capture: a replayed chain must rebuild the exact detector.
  Json json = Json::Object();
  json["name"] = geometry.name;
  json["tracker_layers"] = geometry.tracker_layers;
  json["tracker_inner_radius_m"] = geometry.tracker_inner_radius_m;
  json["tracker_layer_spacing_m"] = geometry.tracker_layer_spacing_m;
  json["tracker_eta_max"] = geometry.tracker_eta_max;
  json["tracker_eta_cells"] = geometry.tracker_eta_cells;
  json["tracker_phi_cells"] = geometry.tracker_phi_cells;
  json["field_tesla"] = geometry.field_tesla;
  json["tracker_hit_efficiency"] = geometry.tracker_hit_efficiency;
  json["ecal_eta_max"] = geometry.ecal_eta_max;
  json["ecal_eta_cells"] = geometry.ecal_eta_cells;
  json["ecal_phi_cells"] = geometry.ecal_phi_cells;
  json["ecal_stochastic"] = geometry.ecal_stochastic;
  json["ecal_constant"] = geometry.ecal_constant;
  json["hcal_eta_max"] = geometry.hcal_eta_max;
  json["hcal_eta_cells"] = geometry.hcal_eta_cells;
  json["hcal_phi_cells"] = geometry.hcal_phi_cells;
  json["hcal_stochastic"] = geometry.hcal_stochastic;
  json["hcal_constant"] = geometry.hcal_constant;
  json["muon_layers"] = geometry.muon_layers;
  json["muon_eta_max"] = geometry.muon_eta_max;
  json["muon_eta_cells"] = geometry.muon_eta_cells;
  json["muon_phi_cells"] = geometry.muon_phi_cells;
  json["muon_hit_efficiency"] = geometry.muon_hit_efficiency;
  return json;
}

Result<DetectorGeometry> GeometryFromJson(const Json& json) {
  if (!json.is_object() || !json.Has("tracker_layers")) {
    return Status::InvalidArgument("geometry JSON missing fields");
  }
  DetectorGeometry g;
  g.name = json.Get("name").as_string();
  DASPOS_ASSIGN_OR_RETURN(g.tracker_layers,
                          ReadInteger<int>(json, "tracker_layers"));
  g.tracker_inner_radius_m = json.Get("tracker_inner_radius_m").as_number();
  g.tracker_layer_spacing_m =
      json.Get("tracker_layer_spacing_m").as_number();
  g.tracker_eta_max = json.Get("tracker_eta_max").as_number();
  DASPOS_ASSIGN_OR_RETURN(g.tracker_eta_cells,
                          ReadInteger<int>(json, "tracker_eta_cells"));
  DASPOS_ASSIGN_OR_RETURN(g.tracker_phi_cells,
                          ReadInteger<int>(json, "tracker_phi_cells"));
  g.field_tesla = json.Get("field_tesla").as_number();
  g.tracker_hit_efficiency =
      json.Get("tracker_hit_efficiency").as_number();
  g.ecal_eta_max = json.Get("ecal_eta_max").as_number();
  DASPOS_ASSIGN_OR_RETURN(g.ecal_eta_cells,
                          ReadInteger<int>(json, "ecal_eta_cells"));
  DASPOS_ASSIGN_OR_RETURN(g.ecal_phi_cells,
                          ReadInteger<int>(json, "ecal_phi_cells"));
  g.ecal_stochastic = json.Get("ecal_stochastic").as_number();
  g.ecal_constant = json.Get("ecal_constant").as_number();
  g.hcal_eta_max = json.Get("hcal_eta_max").as_number();
  DASPOS_ASSIGN_OR_RETURN(g.hcal_eta_cells,
                          ReadInteger<int>(json, "hcal_eta_cells"));
  DASPOS_ASSIGN_OR_RETURN(g.hcal_phi_cells,
                          ReadInteger<int>(json, "hcal_phi_cells"));
  g.hcal_stochastic = json.Get("hcal_stochastic").as_number();
  g.hcal_constant = json.Get("hcal_constant").as_number();
  DASPOS_ASSIGN_OR_RETURN(g.muon_layers,
                          ReadInteger<int>(json, "muon_layers"));
  g.muon_eta_max = json.Get("muon_eta_max").as_number();
  DASPOS_ASSIGN_OR_RETURN(g.muon_eta_cells,
                          ReadInteger<int>(json, "muon_eta_cells"));
  DASPOS_ASSIGN_OR_RETURN(g.muon_phi_cells,
                          ReadInteger<int>(json, "muon_phi_cells"));
  g.muon_hit_efficiency = json.Get("muon_hit_efficiency").as_number();
  return g;
}

Json SimulationConfigToJson(const SimulationConfig& config) {
  Json json = Json::Object();
  json["geometry"] = GeometryToJson(config.geometry);
  json["calib_payload"] = config.calib.ToPayload();
  json["seed"] = config.seed;
  json["noise_cells_mean"] = config.noise_cells_mean;
  json["trig_egamma_et"] = config.trig_egamma_et;
  json["trig_muon_pt"] = config.trig_muon_pt;
  json["trig_ht"] = config.trig_ht;
  json["minbias_prescale"] = config.minbias_prescale;
  return json;
}

Result<SimulationConfig> SimulationConfigFromJson(const Json& json) {
  if (!json.is_object() || !json.Has("geometry")) {
    return Status::InvalidArgument("simulation config JSON missing fields");
  }
  SimulationConfig config;
  DASPOS_ASSIGN_OR_RETURN(config.geometry,
                          GeometryFromJson(json.Get("geometry")));
  DASPOS_ASSIGN_OR_RETURN(
      config.calib,
      CalibrationSet::FromPayload(json.Get("calib_payload").as_string()));
  DASPOS_ASSIGN_OR_RETURN(config.seed, ReadInteger<uint64_t>(json, "seed"));
  config.noise_cells_mean = json.Get("noise_cells_mean").as_number();
  config.trig_egamma_et = json.Get("trig_egamma_et").as_number();
  config.trig_muon_pt = json.Get("trig_muon_pt").as_number();
  config.trig_ht = json.Get("trig_ht").as_number();
  DASPOS_ASSIGN_OR_RETURN(config.minbias_prescale,
                          ReadInteger<uint32_t>(json, "minbias_prescale"));
  return config;
}

// ------------------------------------------------------------- Generation

GenerationStep::GenerationStep(GeneratorConfig config, size_t event_count,
                               std::string dataset_name)
    : config_(config),
      event_count_(event_count),
      dataset_name_(std::move(dataset_name)) {}

std::string GenerationStep::name() const {
  return StepName(kGenerationKind, dataset_name_);
}

Json GenerationStep::Config() const {
  Json json = Json::Object();
  json["generator"] = GeneratorConfigToJson(config_);
  json["event_count"] = static_cast<uint64_t>(event_count_);
  return json;
}

Result<StepOutput> GenerationStep::Run(
    std::vector<DatasetInput> inputs, WorkflowContext* context) const {
  if (!inputs.empty()) {
    return Status::InvalidArgument("generation takes no inputs");
  }
  EventGenerator generator(config_);
  std::vector<GenEvent> events = generator.GenerateMany(event_count_);

  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = dataset_name_;
  info.producer = "generation v1.0";
  info.description = GetProcessInfo(config_.process).description;
  std::string blob = WriteGenDataset(info, events, PoolOf(context));
  return WithEvents(std::move(blob), std::move(info), std::move(events));
}

// ------------------------------------------------------------- Simulation

SimulationStep::SimulationStep(SimulationConfig config, uint32_t run_number,
                               std::string dataset_name)
    : config_(config),
      run_number_(run_number),
      dataset_name_(std::move(dataset_name)) {}

std::string SimulationStep::name() const {
  return StepName(kSimulationKind, dataset_name_);
}

Json SimulationStep::Config() const {
  Json json = Json::Object();
  json["simulation"] = SimulationConfigToJson(config_);
  json["run_number"] = run_number_;
  return json;
}

Result<StepOutput> SimulationStep::Run(
    std::vector<DatasetInput> inputs, WorkflowContext* context) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument("simulation takes exactly one GEN input");
  }
  ThreadPool* pool = PoolOf(context);
  DASPOS_ASSIGN_OR_RETURN(InputEvents<GenEvent> gen,
                          ReadInput<GenEvent>(std::move(inputs[0]), pool));
  const std::vector<GenEvent>& truth = *gen.events;
  DetectorSimulation simulation(config_);
  // Simulate's randomness is event-local (seeded from the event number), so
  // events digitize independently and in parallel with identical output.
  std::vector<RawEvent> raw = ParallelMap<RawEvent>(
      pool, truth.size(),
      [&simulation, &truth, this](size_t i) {
        return simulation.Simulate(truth[i], run_number_);
      },
      /*grain=*/1);
  gen.events.reset();

  DatasetInfo info;
  info.tier = DataTier::kRaw;
  info.name = dataset_name_;
  info.producer = "simulation v1.0";
  info.parents = {gen.info.name};
  info.description = "digitized detector response";
  std::string blob = WriteRawDataset(info, raw, pool);
  return WithEvents(std::move(blob), std::move(info), std::move(raw));
}

// --------------------------------------------------------- Reconstruction

ReconstructionStep::ReconstructionStep(DetectorGeometry geometry,
                                       std::string dataset_name)
    : geometry_(std::move(geometry)), dataset_name_(std::move(dataset_name)) {}

std::string ReconstructionStep::name() const {
  return StepName(kReconstructionKind, dataset_name_);
}

Json ReconstructionStep::Config() const {
  Json json = Json::Object();
  json["geometry"] = GeometryToJson(geometry_);
  json["conditions_tag"] = kCalibrationTag;
  return json;
}

Result<StepOutput> ReconstructionStep::Run(
    std::vector<DatasetInput> inputs, WorkflowContext* context) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument(
        "reconstruction takes exactly one RAW input");
  }
  if (context->conditions() == nullptr) {
    return Status::FailedPrecondition(
        "reconstruction requires a conditions provider (calibration "
        "constants), §3.2");
  }
  ThreadPool* pool = context->worker_pool();
  DASPOS_ASSIGN_OR_RETURN(InputEvents<RawEvent> input,
                          ReadInput<RawEvent>(std::move(inputs[0]), pool));
  const std::vector<RawEvent>& raw = *input.events;
  if (raw.empty()) {
    return Status::InvalidArgument("RAW dataset is empty");
  }
  uint32_t run = raw.front().run_number;
  DASPOS_ASSIGN_OR_RETURN(
      std::string payload,
      context->conditions()->GetPayload(kCalibrationTag, run));
  DASPOS_ASSIGN_OR_RETURN(CalibrationSet calib,
                          CalibrationSet::FromPayload(payload));

  ReconstructionConfig config;
  config.geometry = geometry_;
  config.calib = calib;
  Reconstructor reconstructor(config);

  std::vector<RecoEvent> reco = reconstructor.ReconstructAll(raw, pool);
  input.events.reset();

  DatasetInfo info;
  info.tier = DataTier::kReco;
  info.name = dataset_name_;
  info.producer = "reconstruction v1.0 (calib v" +
                  std::to_string(calib.version) + ")";
  info.parents = {input.info.name};
  info.description = "tracks, clusters, candidate physics objects";
  std::string blob = WriteRecoDataset(info, reco, pool);
  return WithEvents(std::move(blob), std::move(info), std::move(reco));
}

// ------------------------------------------------------------- AOD

AodReductionStep::AodReductionStep(std::string dataset_name)
    : dataset_name_(std::move(dataset_name)) {}

std::string AodReductionStep::name() const {
  return StepName(kAodReductionKind, dataset_name_);
}

Json AodReductionStep::Config() const {
  Json json = Json::Object();
  json["drops"] = "tracks, clusters (basic and intermediate categories)";
  return json;
}

Result<StepOutput> AodReductionStep::Run(
    std::vector<DatasetInput> inputs, WorkflowContext* context) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument(
        "AOD reduction takes exactly one RECO input");
  }
  ThreadPool* pool = PoolOf(context);
  DASPOS_ASSIGN_OR_RETURN(InputEvents<RecoEvent> input,
                          ReadInput<RecoEvent>(std::move(inputs[0]), pool));
  const std::vector<RecoEvent>& reco = *input.events;
  std::vector<AodEvent> aod = ParallelMap<AodEvent>(
      pool, reco.size(),
      [&reco](size_t i) { return AodEvent::FromReco(reco[i]); },
      /*grain=*/8);
  input.events.reset();

  DatasetInfo info;
  info.tier = DataTier::kAod;
  info.name = dataset_name_;
  info.producer = "aod_reduction v1.0";
  info.parents = {input.info.name};
  info.description = "refined physics objects only";
  std::string blob = WriteAodDataset(info, aod, pool);
  return WithEvents(std::move(blob), std::move(info), std::move(aod));
}

// ------------------------------------------------------------- Derivation

DerivationStep::DerivationStep(SkimSpec skim, SlimSpec slim,
                               std::string dataset_name)
    : skim_(std::move(skim)),
      slim_(std::move(slim)),
      dataset_name_(std::move(dataset_name)) {}

std::string DerivationStep::name() const {
  return StepName(kDerivationKind, dataset_name_);
}

Json DerivationStep::Config() const {
  Json json = Json::Object();
  json["skim"] = skim_.ToJson();
  json["slim"] = slim_.ToJson();
  return json;
}

Result<StepOutput> DerivationStep::Run(
    std::vector<DatasetInput> inputs, WorkflowContext* context) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument("derivation takes exactly one AOD input");
  }
  ThreadPool* pool = PoolOf(context);
  DASPOS_ASSIGN_OR_RETURN(InputEvents<AodEvent> input,
                          ReadInput<AodEvent>(std::move(inputs[0]), pool));
  // Skim and slim run inside the encode, so the input events live until
  // the derived blob is sealed. The derived events are not handed over:
  // a reader of a derived dataset decodes it.
  DerivationStats stats;
  DASPOS_ASSIGN_OR_RETURN(
      std::string blob,
      DeriveDataset(input.info, *input.events, dataset_name_, skim_, slim_,
                    &stats, pool));
  return StepOutput{std::move(blob), stats.output_events};
}

// ------------------------------------------------------------------ Merge

MergeStep::MergeStep(std::string dataset_name)
    : dataset_name_(std::move(dataset_name)) {}

std::string MergeStep::name() const {
  return StepName(kMergeKind, dataset_name_);
}

Json MergeStep::Config() const {
  Json json = Json::Object();
  json["operation"] = "concatenate records of same-tier datasets";
  return json;
}

Result<StepOutput> MergeStep::Run(
    std::vector<DatasetInput> inputs, WorkflowContext* context) const {
  (void)context;
  if (inputs.empty()) {
    return Status::InvalidArgument("merge needs at least one input");
  }
  DatasetInfo merged_info;
  std::vector<ContainerReader> readers;
  readers.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    // Bytes handed over with their events were sealed in this Execute, and
    // hashed then; any other bytes are verified here.
    DASPOS_ASSIGN_OR_RETURN(
        ContainerReader reader,
        inputs[i].payload != nullptr
            ? ContainerReader::OpenUnverified(inputs[i].bytes)
            : ContainerReader::Open(inputs[i].bytes));
    inputs[i].payload.reset();  // records are copied as bytes
    DASPOS_ASSIGN_OR_RETURN(DatasetInfo info,
                            DatasetInfo::FromJson(reader.metadata()));
    if (i == 0) {
      merged_info = info;
      merged_info.parents.clear();  // replaced by the merge input list
    } else if (info.tier != merged_info.tier) {
      return Status::InvalidArgument(
          "cannot merge tiers " + std::string(TierName(merged_info.tier)) +
          " and " + std::string(TierName(info.tier)));
    }
    merged_info.parents.push_back(info.name);
    readers.push_back(std::move(reader));
  }
  // The first input's name also landed in parents; keep the list as the
  // full input set and rename the output.
  merged_info.name = dataset_name_;
  merged_info.producer = "merge v1.0";

  Json meta = merged_info.ToJson();
  meta["schema"] = std::string(TierSchema(merged_info.tier));
  meta["schema_version"] = 1;
  ContainerWriter writer(meta);
  uint64_t events = 0;
  for (const ContainerReader& reader : readers) {
    for (std::string_view record : reader.records()) {
      writer.AddRecord(record);
      ++events;
    }
  }
  return StepOutput{writer.Finish(), events};
}

Workflow ChainWorkflow(const GeneratorConfig& generator,
                       const SimulationConfig& simulation, size_t event_count,
                       DataTier last_tier) {
  Workflow workflow;
  (void)workflow.AddStep(
      std::make_shared<GenerationStep>(generator, event_count, "gen"), {},
      "gen");
  if (last_tier == DataTier::kGen) return workflow;
  (void)workflow.AddStep(
      std::make_shared<SimulationStep>(simulation, 1, "raw"), {"gen"}, "raw");
  if (last_tier == DataTier::kRaw) return workflow;
  (void)workflow.AddStep(
      std::make_shared<ReconstructionStep>(simulation.geometry, "reco"),
      {"raw"}, "reco");
  if (last_tier == DataTier::kReco) return workflow;
  (void)workflow.AddStep(std::make_shared<AodReductionStep>("aod"), {"reco"},
                         "aod");
  if (last_tier == DataTier::kAod) return workflow;
  (void)workflow.AddStep(
      std::make_shared<DerivationStep>(
          SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0),
          SlimSpec::LeptonsOnly(10.0), "derived"),
      {"aod"}, "derived");
  return workflow;
}

Workflow StandardChainWorkflow(Process process, size_t event_count,
                               uint64_t seed, DataTier last_tier) {
  GeneratorConfig generator;
  generator.process = process;
  generator.seed = seed;
  SimulationConfig simulation;
  simulation.seed = seed + 1;
  return ChainWorkflow(generator, simulation, event_count, last_tier);
}

Result<WorkflowReport> ExecuteChain(const Workflow& workflow,
                                    const CalibrationSet& calib,
                                    WorkflowContext* context,
                                    ProvenanceStore* provenance,
                                    const ExecuteOptions& options) {
  ConditionsDb conditions;
  DASPOS_RETURN_IF_ERROR(
      conditions.Append(kCalibrationTag, 1, calib.ToPayload()));
  context->set_conditions(&conditions);
  Result<WorkflowReport> report =
      workflow.Execute(context, provenance, options);
  context->set_conditions(nullptr);
  return report;
}

Result<std::shared_ptr<WorkflowStep>> RebuildStep(
    const ProvenanceRecord& record) {
  const Json& config = record.config;
  const std::string kind = record.producer.substr(0, record.producer.find('['));
  std::shared_ptr<WorkflowStep> step;
  if (kind == kGenerationKind) {
    DASPOS_ASSIGN_OR_RETURN(GeneratorConfig generator,
                            GeneratorConfigFromJson(config.Get("generator")));
    DASPOS_ASSIGN_OR_RETURN(size_t events,
                            ReadInteger<size_t>(config, "event_count"));
    step = std::make_shared<GenerationStep>(generator, events, record.dataset);
  } else if (kind == kSimulationKind) {
    DASPOS_ASSIGN_OR_RETURN(
        SimulationConfig simulation,
        SimulationConfigFromJson(config.Get("simulation")));
    DASPOS_ASSIGN_OR_RETURN(uint32_t run,
                            ReadInteger<uint32_t>(config, "run_number"));
    step = std::make_shared<SimulationStep>(simulation, run, record.dataset);
  } else if (kind == kReconstructionKind) {
    DASPOS_ASSIGN_OR_RETURN(DetectorGeometry geometry,
                            GeometryFromJson(config.Get("geometry")));
    step = std::make_shared<ReconstructionStep>(geometry, record.dataset);
  } else if (kind == kAodReductionKind) {
    step = std::make_shared<AodReductionStep>(record.dataset);
  } else if (kind == kDerivationKind) {
    DASPOS_ASSIGN_OR_RETURN(SkimSpec skim,
                            SkimSpec::FromJson(config.Get("skim")));
    DASPOS_ASSIGN_OR_RETURN(SlimSpec slim,
                            SlimSpec::FromJson(config.Get("slim")));
    step = std::make_shared<DerivationStep>(skim, slim, record.dataset);
  } else if (kind == kMergeKind) {
    step = std::make_shared<MergeStep>(record.dataset);
  } else {
    return Status::Unimplemented(
        "producer '" + record.producer +
        "' is not machine-reconstructible from provenance; preserve its "
        "code directly");
  }
  // The resume gate's identity rule: a rebuilt step is the recorded one
  // only if its config hashes to the recorded config_hash.
  const std::string rebuilt_hash = Sha256::HashHex(step->Config().Dump());
  if (rebuilt_hash != record.config_hash) {
    return Status::FailedPrecondition(
        "provenance record '" + record.dataset + "': config_hash '" +
        record.config_hash + "' is stale, its config hashes to " +
        rebuilt_hash);
  }
  return step;
}

Result<Workflow> ReplayWorkflow(const ProvenanceStore& provenance) {
  Workflow workflow;
  for (const std::string& dataset : provenance.Datasets()) {
    DASPOS_ASSIGN_OR_RETURN(ProvenanceRecord record, provenance.Get(dataset));
    DASPOS_ASSIGN_OR_RETURN(std::shared_ptr<WorkflowStep> step,
                            RebuildStep(record));
    DASPOS_RETURN_IF_ERROR(
        workflow.AddStep(std::move(step), record.parents, dataset));
  }
  return workflow;
}

}  // namespace daspos
