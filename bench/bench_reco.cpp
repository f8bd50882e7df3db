// E8 — the Reconstruction step of §3.2: per-stage throughput (tracking,
// clustering, full reconstruction) across physics processes and pileup
// levels, with the physics yield counters that make the numbers meaningful.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "detsim/simulation.h"
#include "event/pdg.h"
#include "mc/generator.h"
#include "reco/clustering.h"
#include "reco/reconstruction.h"
#include "reco/tracking.h"
#include "support/strings.h"
#include "support/table.h"

using namespace daspos;

namespace {

std::vector<RawEvent> MakeRawSample(Process process, double pileup, int n) {
  GeneratorConfig gen_config;
  gen_config.process = process;
  gen_config.lepton_flavor = pdg::kMuon;
  gen_config.pileup_mean = pileup;
  gen_config.seed = 77;
  EventGenerator generator(gen_config);
  SimulationConfig sim_config;
  sim_config.seed = 78;
  DetectorSimulation simulation(sim_config);
  std::vector<RawEvent> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(simulation.Simulate(generator.Generate(), 1));
  }
  return out;
}

ReconstructionConfig DefaultReco() {
  SimulationConfig sim_config;
  ReconstructionConfig config;
  config.geometry = sim_config.geometry;
  config.calib = sim_config.calib;
  return config;
}

void BM_Tracking(benchmark::State& state) {
  double pileup = static_cast<double>(state.range(0));
  auto sample = MakeRawSample(Process::kZToLL, pileup, 20);
  ReconstructionConfig config = DefaultReco();
  TrackFinder finder(config.geometry, config.calib);
  size_t index = 0;
  for (auto _ : state) {
    auto tracks = finder.FindTracks(sample[index % sample.size()]);
    ++index;
    benchmark::DoNotOptimize(tracks);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel("pileup mu=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Tracking)->Arg(0)->Arg(20)->Arg(50);

void BM_Clustering(benchmark::State& state) {
  auto sample = MakeRawSample(Process::kQcdDijet, 20.0, 20);
  ReconstructionConfig config = DefaultReco();
  CaloClusterer clusterer(config.geometry, config.calib);
  size_t index = 0;
  for (auto _ : state) {
    auto clusters = clusterer.Cluster(sample[index % sample.size()]);
    ++index;
    benchmark::DoNotOptimize(clusters);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Clustering);

void BM_FullReconstruction(benchmark::State& state) {
  Process process = static_cast<Process>(state.range(0));
  auto sample = MakeRawSample(process, 10.0, 20);
  Reconstructor reconstructor(DefaultReco());
  size_t index = 0;
  for (auto _ : state) {
    RecoEvent event = reconstructor.Reconstruct(sample[index % sample.size()]);
    ++index;
    benchmark::DoNotOptimize(event);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(GetProcessInfo(process).name);
}
BENCHMARK(BM_FullReconstruction)
    ->Arg(static_cast<int>(Process::kMinimumBias))
    ->Arg(static_cast<int>(Process::kZToLL))
    ->Arg(static_cast<int>(Process::kQcdDijet));

void PrintYields() {
  TextTable table;
  table.SetTitle("\nReconstruction yields (20 events each, pileup mu=10):");
  table.SetHeader({"process", "raw hits/evt", "tracks/evt", "clusters/evt",
                   "objects/evt", "vertices/evt"});
  Reconstructor reconstructor(DefaultReco());
  for (Process process : {Process::kMinimumBias, Process::kZToLL,
                          Process::kWToLNu, Process::kQcdDijet,
                          Process::kHiggsToGammaGamma}) {
    auto sample = MakeRawSample(process, 10.0, 20);
    double hits = 0.0;
    double tracks = 0.0;
    double clusters = 0.0;
    double objects = 0.0;
    double vertices = 0.0;
    for (const RawEvent& raw : sample) {
      RecoEvent event = reconstructor.Reconstruct(raw);
      hits += static_cast<double>(raw.hits.size());
      tracks += static_cast<double>(event.tracks.size());
      clusters += static_cast<double>(event.clusters.size());
      objects += static_cast<double>(event.objects.size());
      vertices += event.vertex_count;
    }
    double n = static_cast<double>(sample.size());
    table.AddRow({GetProcessInfo(process).name, FormatDouble(hits / n, 4),
                  FormatDouble(tracks / n, 3), FormatDouble(clusters / n, 3),
                  FormatDouble(objects / n, 3),
                  FormatDouble(vertices / n, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Shape to reproduce (§3.2): reconstruction converts raw channel data\n"
      "into recognizable objects, then refined candidates; cost scales with\n"
      "occupancy (pileup), which the tracking benchmark sweep shows.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== E8: reconstruction throughput and yields ====\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintYields();
  return 0;
}
