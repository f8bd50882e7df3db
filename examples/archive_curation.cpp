// Curation walkthrough (§2.2 / Appendix A): fill in the Data Interview
// Template, render the maturity report, deposit a dataset with its
// documentation in the archive, audit fixity (catching injected bit rot),
// and migrate the holdings to a new format version with lineage.
#include <cstdio>

#include "archive/archive.h"
#include "archive/object_store.h"
#include "event/pdg.h"
#include "interview/interview.h"
#include "mc/generator.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "tiers/dataset.h"

using namespace daspos;

int main() {
  std::printf("=== Archive curation walkthrough ===\n\n");

  // --- the documentation: a filled-in data interview --------------------
  interview::DataInterview interview = interview::ExampleInterviews()[3];
  std::printf("%s\n", interview.RenderReport().c_str());

  // --- a dataset to preserve -------------------------------------------
  GeneratorConfig config;
  config.process = Process::kDMeson;
  config.seed = 99;
  EventGenerator generator(config);
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "dmeson_gen_run99";
  info.producer = "generation v1.0";
  info.description = "charm sample for the D-lifetime master class";
  std::string dataset_blob = WriteGenDataset(info, generator.GenerateMany(300));

  MemoryObjectStore store;
  Archive archive(&store);
  SubmissionPackage sip;
  sip.title = "D-meson lifetime sample + documentation";
  sip.creator = "LHCb-like outreach team";
  sip.description = info.description;
  sip.keywords = {"charm", "lifetime", "master class"};
  sip.context = interview.ToJson();
  sip.files.push_back({"data/dmeson_gen.dspc",
                       "application/x-daspos-container", dataset_blob});
  sip.files.push_back({"docs/interview.json", "application/json",
                       interview.ToJson().Dump(2)});
  auto archive_id = archive.Deposit(sip);
  if (!archive_id.ok()) {
    std::printf("deposit failed: %s\n",
                archive_id.status().ToString().c_str());
    return 1;
  }
  std::printf("deposited package %s (%s of data)\n\n",
              archive_id->substr(0, 16).c_str(),
              FormatBytes(dataset_blob.size()).c_str());

  // --- fixity: clean audit, inject bit rot, audit again -----------------
  auto clean = ArchiveInventory::Take(store).Fixity();
  std::printf("fixity audit #1: %llu objects, clean=%s\n",
              static_cast<unsigned long long>(clean.objects_checked),
              clean.clean() ? "yes" : "NO");
  std::string data_object_id = Sha256::HashHex(dataset_blob);
  (void)store.CorruptForTesting(data_object_id, dataset_blob.size() / 2);
  auto dirty = ArchiveInventory::Take(store).Fixity();
  std::printf("fixity audit #2 (after injected bit flip): corrupted=%zu "
              "-> damage detected: %s\n",
              dirty.corrupted_objects.size(),
              dirty.clean() ? "NO (BUG!)" : "yes");
  // Repair by re-depositing the good bytes (content addressing heals).
  (void)store.Put(dataset_blob);
  std::printf("re-put pristine bytes: audit #3 clean=%s\n\n",
              ArchiveInventory::Take(store).Fixity().clean() ? "yes" : "NO");

  // --- format migration --------------------------------------------------
  auto migrated_id = archive.Migrate(
      *archive_id,
      [](const PackageFile& file) -> Result<PackageFile> {
        PackageFile out = file;
        if (file.media_type == "application/json") {
          // Stand-in for a real schema migration.
          out.logical_name += ".v2";
        }
        return out;
      },
      "interview schema v1 -> v2");
  if (!migrated_id.ok()) {
    std::printf("migration failed: %s\n",
                migrated_id.status().ToString().c_str());
    return 1;
  }
  std::printf("holdings after migration:\n");
  for (const HoldingSummary& holding : archive.Holdings()) {
    std::printf("  #%llu %-45s %2zu files %10s%s\n",
                static_cast<unsigned long long>(holding.deposit_sequence),
                holding.title.c_str(), holding.file_count,
                FormatBytes(holding.total_bytes).c_str(),
                holding.migrated_from.empty()
                    ? ""
                    : ("  [migrated from " +
                       holding.migrated_from.substr(0, 12) + "...]")
                          .c_str());
  }
  std::printf("\noriginals are retained; lineage is recorded in the AIP.\n");
  return 0;
}
