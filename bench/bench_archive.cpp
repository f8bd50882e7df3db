// E6 — archive operations at the core of the DASPOS mission: deposit
// (SIP -> AIP) throughput, fixity-audit rate, verified retrieval, and
// format migration, over realistic dataset payloads.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "archive/archive.h"
#include "archive/object_store.h"
#include "mc/generator.h"
#include "support/strings.h"
#include "support/table.h"
#include "tiers/dataset.h"

using namespace daspos;

namespace {

std::string DatasetBlob(int events) {
  GeneratorConfig config;
  config.process = Process::kQcdDijet;
  config.seed = 33;
  EventGenerator generator(config);
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "bench_dataset";
  info.producer = "bench";
  return WriteGenDataset(info, generator.GenerateMany(
                                   static_cast<size_t>(events)));
}

SubmissionPackage MakeSubmission(const std::string& blob, int salt) {
  SubmissionPackage sip;
  sip.title = "bench deposit " + std::to_string(salt);
  sip.creator = "bench";
  sip.description = "synthetic dataset";
  sip.files.push_back(
      {"data.dspc", "application/x-daspos-container", blob});
  return sip;
}

void BM_Deposit(benchmark::State& state) {
  std::string blob = DatasetBlob(static_cast<int>(state.range(0)));
  int salt = 0;
  for (auto _ : state) {
    MemoryObjectStore store;
    Archive archive(&store);
    auto id = archive.Deposit(MakeSubmission(blob, ++salt));
    benchmark::DoNotOptimize(id);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
  state.SetLabel(std::to_string(state.range(0)) + " events/file");
}
BENCHMARK(BM_Deposit)->Arg(50)->Arg(500);

void BM_FixityAudit(benchmark::State& state) {
  MemoryObjectStore store;
  Archive archive(&store);
  std::string blob = DatasetBlob(100);
  for (int i = 0; i < state.range(0); ++i) {
    SubmissionPackage sip = MakeSubmission(blob, i);
    sip.files[0].bytes += std::to_string(i);  // distinct objects
    (void)archive.Deposit(sip);
  }
  for (auto _ : state) {
    FixityReport report = archive.AuditFixity();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 2);
  state.SetLabel(std::to_string(state.range(0)) + " packages");
}
BENCHMARK(BM_FixityAudit)->Arg(4)->Arg(32);

void BM_VerifiedRetrieve(benchmark::State& state) {
  MemoryObjectStore store;
  Archive archive(&store);
  std::string blob = DatasetBlob(200);
  auto id = archive.Deposit(MakeSubmission(blob, 0));
  for (auto _ : state) {
    auto package = archive.Retrieve(*id);
    benchmark::DoNotOptimize(package);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_VerifiedRetrieve);

void BM_Migrate(benchmark::State& state) {
  std::string blob = DatasetBlob(200);
  for (auto _ : state) {
    state.PauseTiming();
    MemoryObjectStore store;
    Archive archive(&store);
    auto id = archive.Deposit(MakeSubmission(blob, 0));
    state.ResumeTiming();
    auto migrated = archive.Migrate(
        *id,
        [](const PackageFile& file) -> Result<PackageFile> {
          PackageFile out = file;
          out.logical_name += ".v2";
          return out;
        },
        "v1 -> v2");
    benchmark::DoNotOptimize(migrated);
  }
}
BENCHMARK(BM_Migrate)->Unit(benchmark::kMicrosecond);

void PrintSummary() {
  MemoryObjectStore store;
  Archive archive(&store);
  std::string small = DatasetBlob(50);
  std::string large = DatasetBlob(500);
  (void)archive.Deposit(MakeSubmission(small, 1));
  (void)archive.Deposit(MakeSubmission(large, 2));
  // Duplicate data deduplicates in the content store.
  SubmissionPackage duplicate = MakeSubmission(large, 3);
  (void)archive.Deposit(duplicate);

  TextTable table;
  table.SetTitle("\nArchive holdings and store accounting:");
  table.SetHeader({"seq", "title", "files", "package bytes"});
  uint64_t package_total = 0;
  for (const HoldingSummary& holding : archive.Holdings()) {
    table.AddRow({std::to_string(holding.deposit_sequence), holding.title,
                  std::to_string(holding.file_count),
                  FormatBytes(holding.total_bytes)});
    package_total += holding.total_bytes;
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("logical package bytes : %s\n",
              FormatBytes(package_total).c_str());
  std::printf("physical store bytes  : %s  (content addressing "
              "deduplicates the shared payload)\n",
              FormatBytes(store.TotalBytes()).c_str());
  FixityReport report = archive.AuditFixity();
  std::printf("fixity: %llu objects checked, clean=%s\n",
              static_cast<unsigned long long>(report.objects_checked),
              report.clean() ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== E6: preservation-archive operations ====\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary();
  return 0;
}
