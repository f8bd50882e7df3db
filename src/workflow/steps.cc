#include "workflow/steps.h"

#include "support/parallel.h"
#include "tiers/dataset.h"

namespace daspos {

namespace {

/// The engine's worker pool for a step's parallel loops and codecs; null
/// (serial) without a context.
ThreadPool* PoolOf(const WorkflowContext* context) {
  return context != nullptr ? context->worker_pool() : nullptr;
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
  config.process = static_cast<Process>(json.Get("process").as_int());
  config.seed = static_cast<uint64_t>(json.Get("seed").as_int());
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
    config.lepton_flavor = static_cast<int>(json.Get("lepton_flavor").as_int());
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
  g.tracker_layers = static_cast<int>(json.Get("tracker_layers").as_int());
  g.tracker_inner_radius_m = json.Get("tracker_inner_radius_m").as_number();
  g.tracker_layer_spacing_m =
      json.Get("tracker_layer_spacing_m").as_number();
  g.tracker_eta_max = json.Get("tracker_eta_max").as_number();
  g.tracker_eta_cells =
      static_cast<int>(json.Get("tracker_eta_cells").as_int());
  g.tracker_phi_cells =
      static_cast<int>(json.Get("tracker_phi_cells").as_int());
  g.field_tesla = json.Get("field_tesla").as_number();
  g.tracker_hit_efficiency =
      json.Get("tracker_hit_efficiency").as_number();
  g.ecal_eta_max = json.Get("ecal_eta_max").as_number();
  g.ecal_eta_cells = static_cast<int>(json.Get("ecal_eta_cells").as_int());
  g.ecal_phi_cells = static_cast<int>(json.Get("ecal_phi_cells").as_int());
  g.ecal_stochastic = json.Get("ecal_stochastic").as_number();
  g.ecal_constant = json.Get("ecal_constant").as_number();
  g.hcal_eta_max = json.Get("hcal_eta_max").as_number();
  g.hcal_eta_cells = static_cast<int>(json.Get("hcal_eta_cells").as_int());
  g.hcal_phi_cells = static_cast<int>(json.Get("hcal_phi_cells").as_int());
  g.hcal_stochastic = json.Get("hcal_stochastic").as_number();
  g.hcal_constant = json.Get("hcal_constant").as_number();
  g.muon_layers = static_cast<int>(json.Get("muon_layers").as_int());
  g.muon_eta_max = json.Get("muon_eta_max").as_number();
  g.muon_eta_cells = static_cast<int>(json.Get("muon_eta_cells").as_int());
  g.muon_phi_cells = static_cast<int>(json.Get("muon_phi_cells").as_int());
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
  config.seed = static_cast<uint64_t>(json.Get("seed").as_int());
  config.noise_cells_mean = json.Get("noise_cells_mean").as_number();
  config.trig_egamma_et = json.Get("trig_egamma_et").as_number();
  config.trig_muon_pt = json.Get("trig_muon_pt").as_number();
  config.trig_ht = json.Get("trig_ht").as_number();
  config.minbias_prescale =
      static_cast<uint32_t>(json.Get("minbias_prescale").as_int());
  return config;
}

// ------------------------------------------------------------- Generation

GenerationStep::GenerationStep(GeneratorConfig config, size_t event_count,
                               std::string dataset_name)
    : config_(config),
      event_count_(event_count),
      dataset_name_(std::move(dataset_name)) {}

Json GenerationStep::Config() const {
  Json json = Json::Object();
  json["generator"] = GeneratorConfigToJson(config_);
  json["event_count"] = static_cast<uint64_t>(event_count_);
  return json;
}

Result<StepOutput> GenerationStep::Run(
    const std::vector<std::string_view>& inputs,
    WorkflowContext* context) const {
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
  return StepOutput{WriteGenDataset(info, events, PoolOf(context)),
                    events.size()};
}

// ------------------------------------------------------------- Simulation

SimulationStep::SimulationStep(SimulationConfig config, uint32_t run_number,
                               std::string dataset_name)
    : config_(config),
      run_number_(run_number),
      dataset_name_(std::move(dataset_name)) {}

Json SimulationStep::Config() const {
  Json json = Json::Object();
  json["simulation"] = SimulationConfigToJson(config_);
  json["run_number"] = run_number_;
  return json;
}

Result<StepOutput> SimulationStep::Run(
    const std::vector<std::string_view>& inputs,
    WorkflowContext* context) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument("simulation takes exactly one GEN input");
  }
  ThreadPool* pool = PoolOf(context);
  DatasetInfo gen_info;
  DASPOS_ASSIGN_OR_RETURN(std::vector<GenEvent> truth,
                          ReadGenDataset(inputs[0], &gen_info, pool));
  DetectorSimulation simulation(config_);
  // Simulate's randomness is event-local (seeded from the event number), so
  // events digitize independently and in parallel with identical output.
  std::vector<RawEvent> raw = ParallelMap<RawEvent>(
      pool, truth.size(),
      [&simulation, &truth, this](size_t i) {
        return simulation.Simulate(truth[i], run_number_);
      },
      /*grain=*/1);

  DatasetInfo info;
  info.tier = DataTier::kRaw;
  info.name = dataset_name_;
  info.producer = "simulation v1.0";
  info.parents = {gen_info.name};
  info.description = "digitized detector response";
  return StepOutput{WriteRawDataset(info, raw, pool), raw.size()};
}

// --------------------------------------------------------- Reconstruction

ReconstructionStep::ReconstructionStep(DetectorGeometry geometry,
                                       std::string dataset_name)
    : geometry_(std::move(geometry)), dataset_name_(std::move(dataset_name)) {}

Json ReconstructionStep::Config() const {
  Json json = Json::Object();
  json["geometry"] = GeometryToJson(geometry_);
  json["conditions_tag"] = kCalibrationTag;
  return json;
}

Result<StepOutput> ReconstructionStep::Run(
    const std::vector<std::string_view>& inputs,
    WorkflowContext* context) const {
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
  DatasetInfo raw_info;
  DASPOS_ASSIGN_OR_RETURN(std::vector<RawEvent> raw,
                          ReadRawDataset(inputs[0], &raw_info, pool));
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

  DatasetInfo info;
  info.tier = DataTier::kReco;
  info.name = dataset_name_;
  info.producer = "reconstruction v1.0 (calib v" +
                  std::to_string(calib.version) + ")";
  info.parents = {raw_info.name};
  info.description = "tracks, clusters, candidate physics objects";
  return StepOutput{WriteRecoDataset(info, reco, pool), reco.size()};
}

// ------------------------------------------------------------- AOD

AodReductionStep::AodReductionStep(std::string dataset_name)
    : dataset_name_(std::move(dataset_name)) {}

Json AodReductionStep::Config() const {
  Json json = Json::Object();
  json["drops"] = "tracks, clusters (basic and intermediate categories)";
  return json;
}

Result<StepOutput> AodReductionStep::Run(
    const std::vector<std::string_view>& inputs,
    WorkflowContext* context) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument(
        "AOD reduction takes exactly one RECO input");
  }
  ThreadPool* pool = PoolOf(context);
  DatasetInfo reco_info;
  DASPOS_ASSIGN_OR_RETURN(std::vector<RecoEvent> reco,
                          ReadRecoDataset(inputs[0], &reco_info, pool));
  std::vector<AodEvent> aod = ParallelMap<AodEvent>(
      pool, reco.size(),
      [&reco](size_t i) { return AodEvent::FromReco(reco[i]); },
      /*grain=*/8);

  DatasetInfo info;
  info.tier = DataTier::kAod;
  info.name = dataset_name_;
  info.producer = "aod_reduction v1.0";
  info.parents = {reco_info.name};
  info.description = "refined physics objects only";
  return StepOutput{WriteAodDataset(info, aod, pool), aod.size()};
}

// ------------------------------------------------------------- Derivation

DerivationStep::DerivationStep(SkimSpec skim, SlimSpec slim,
                               std::string dataset_name)
    : skim_(std::move(skim)),
      slim_(std::move(slim)),
      dataset_name_(std::move(dataset_name)) {}

Json DerivationStep::Config() const {
  Json json = Json::Object();
  json["skim"] = skim_.ToJson();
  json["slim"] = slim_.ToJson();
  return json;
}

Result<StepOutput> DerivationStep::Run(
    const std::vector<std::string_view>& inputs,
    WorkflowContext* context) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument("derivation takes exactly one AOD input");
  }
  DerivationStats stats;
  DASPOS_ASSIGN_OR_RETURN(
      std::string blob,
      DeriveDataset(inputs[0], dataset_name_, skim_, slim_, &stats,
                    PoolOf(context)));
  return StepOutput{std::move(blob), stats.output_events};
}

// ------------------------------------------------------------------ Merge

MergeStep::MergeStep(std::string dataset_name)
    : dataset_name_(std::move(dataset_name)) {}

Json MergeStep::Config() const {
  Json json = Json::Object();
  json["operation"] = "concatenate records of same-tier datasets";
  return json;
}

Result<StepOutput> MergeStep::Run(
    const std::vector<std::string_view>& inputs,
    WorkflowContext* context) const {
  (void)context;
  if (inputs.empty()) {
    return Status::InvalidArgument("merge needs at least one input");
  }
  DatasetInfo merged_info;
  std::vector<ContainerReader> readers;
  readers.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    DASPOS_ASSIGN_OR_RETURN(ContainerReader reader,
                            ContainerReader::Open(inputs[i]));
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

Workflow StandardChainWorkflow(Process process, size_t event_count,
                               uint64_t seed) {
  GeneratorConfig gen_config;
  gen_config.process = process;
  gen_config.seed = seed;
  SimulationConfig sim_config;
  sim_config.seed = seed + 1;

  Workflow workflow;
  (void)workflow.AddStep(
      std::make_shared<GenerationStep>(gen_config, event_count, "gen"), {},
      "gen");
  (void)workflow.AddStep(
      std::make_shared<SimulationStep>(sim_config, 1, "raw"), {"gen"}, "raw");
  (void)workflow.AddStep(
      std::make_shared<ReconstructionStep>(sim_config.geometry, "reco"),
      {"raw"}, "reco");
  (void)workflow.AddStep(std::make_shared<AodReductionStep>("aod"), {"reco"},
                         "aod");
  (void)workflow.AddStep(
      std::make_shared<DerivationStep>(
          SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0),
          SlimSpec::LeptonsOnly(10.0), "derived"),
      {"aod"}, "derived");
  return workflow;
}

}  // namespace daspos
