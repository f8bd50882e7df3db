#include "archive/archive.h"

#include <optional>

#include "support/parallel.h"

namespace daspos {

namespace {

/// AIP manifests are recognized by shape; anything else in a store is
/// package payload.
bool IsAipManifest(const Json& json) {
  return json.is_object() && json.Has("aip_version") && json.Has("files");
}

}  // namespace

ArchiveInventory ArchiveInventory::Take(const ObjectStore& store,
                                        ThreadPool* pool, bool verify) {
  ArchiveInventory inventory;
  std::vector<std::string> ids;
  inventory.walk = store.ForEachId([&ids](const std::string& id) {
    ids.push_back(id);
    return Status::OK();
  });
  std::vector<std::optional<Json>> manifests(ids.size());
  std::vector<Object> reads = ParallelMap<Object>(
      pool, ids.size(),
      [&](size_t i) {
        Object object;
        std::string bytes;
        if (verify) {
          object.status = store.Verify(ids[i], &bytes);
        } else {
          auto got = store.Get(ids[i]);
          object.status = got.status();
          if (got.ok()) bytes = std::move(got).value();
        }
        if (!object.status.ok()) return object;
        object.stored_bytes = bytes.size();
        auto json = Json::Parse(bytes);
        if (json.ok() && IsAipManifest(*json)) manifests[i] = *json;
        return object;
      },
      /*grain=*/1);
  for (size_t i = 0; i < ids.size(); ++i) {
    Object& object = reads[i];
    if (!object.status.ok()) {
      object.kind = Kind::kCorrupted;
    } else if (manifests[i]) {
      object.kind = Kind::kManifest;
      inventory.manifests.emplace(ids[i], std::move(*manifests[i]));
    }
    inventory.objects.emplace(ids[i], std::move(object));
  }
  for (const auto& [manifest_id, manifest] : inventory.manifests) {
    const Json& files = manifest.Get("files");
    for (size_t i = 0; i < files.size(); ++i) {
      const Json& entry = files.at(i);
      inventory.references.push_back(
          {manifest_id, entry.Get("name").as_string(),
           static_cast<uint64_t>(entry.Get("bytes").as_int()),
           entry.Get("sha256").as_string()});
      auto [it, absent] =
          inventory.objects.try_emplace(inventory.references.back().object_id);
      if (absent) {
        it->second.kind = Kind::kMissing;
      } else if (it->second.kind == Kind::kOrphan) {
        it->second.kind = Kind::kPayload;
      }
    }
  }
  auto quarantined = store.QuarantinedIds();
  inventory.quarantine = quarantined.status();
  for (const std::string& id : quarantined.value_or({})) {
    auto [it, absent] = inventory.objects.try_emplace(id);
    if (absent) it->second.kind = Kind::kQuarantined;
    it->second.quarantined = true;
  }
  return inventory;
}

FixityReport ArchiveInventory::Fixity() const {
  FixityReport report;
  report.objects_checked = objects.size();
  for (const auto& [id, object] : objects) {
    if (object.kind == Kind::kCorrupted) {
      report.corrupted_objects.push_back(id);
    } else if (object.kind == Kind::kMissing) {
      report.missing_objects.push_back(id);
    }
  }
  return report;
}

Result<std::string> Archive::Deposit(const SubmissionPackage& submission,
                                     ThreadPool* pool) {
  if (submission.title.empty()) {
    return Status::InvalidArgument("deposit requires a title");
  }
  if (submission.files.empty()) {
    return Status::InvalidArgument("deposit requires at least one file");
  }
  for (const PackageFile& file : submission.files) {
    if (file.logical_name.empty()) {
      return Status::InvalidArgument("package file needs a logical name");
    }
  }
  return Store(submission, Json::Object(), pool);
}

Result<std::string> Archive::Store(const SubmissionPackage& package,
                                   const Json& lineage, ThreadPool* pool) {
  Json manifest = Json::Object();
  manifest["aip_version"] = 1;
  manifest["title"] = package.title;
  manifest["creator"] = package.creator;
  manifest["description"] = package.description;
  Json keywords = Json::Array();
  for (const std::string& keyword : package.keywords) {
    keywords.push_back(keyword);
  }
  manifest["keywords"] = std::move(keywords);
  manifest["context"] = package.context;
  for (const auto& [key, value] : lineage.members()) manifest[key] = value;

  std::vector<std::string_view> blobs;
  blobs.reserve(package.files.size());
  for (const PackageFile& file : package.files) blobs.push_back(file.bytes);
  DASPOS_ASSIGN_OR_RETURN(std::vector<std::string> object_ids,
                          store_->PutBatch(blobs, pool));

  Json files = Json::Array();
  for (size_t i = 0; i < package.files.size(); ++i) {
    const PackageFile& file = package.files[i];
    Json entry = Json::Object();
    entry["name"] = file.logical_name;
    entry["media_type"] = file.media_type;
    entry["bytes"] = static_cast<uint64_t>(file.bytes.size());
    entry["sha256"] = object_ids[i];
    files.push_back(std::move(entry));
  }
  manifest["files"] = std::move(files);

  DASPOS_ASSIGN_OR_RETURN(std::string archive_id,
                          store_->Put(manifest.Dump(2)));
  // A byte-identical re-deposit maps to the same AIP; don't double-list it.
  if (sequences_.count(archive_id) > 0) return archive_id;
  sequences_[archive_id] = next_sequence_++;
  catalog_.push_back(archive_id);
  return archive_id;
}

Result<size_t> Archive::RecoverCatalog(const ArchiveInventory& inventory) {
  // A partial catalog that a later audit would certify is worse than none.
  DASPOS_RETURN_IF_ERROR(inventory.walk);
  for (const auto& [id, object] : inventory.objects) {
    if (!object.status.IsCorruption()) DASPOS_RETURN_IF_ERROR(object.status);
  }
  for (const auto& [id, manifest] : inventory.manifests) {
    if (sequences_.emplace(id, next_sequence_).second) {
      ++next_sequence_;
      catalog_.push_back(id);
    }
  }
  return inventory.manifests.size();
}

Result<size_t> Archive::RecoverCatalog() {
  return RecoverCatalog(
      ArchiveInventory::Take(*store_, /*pool=*/nullptr, /*verify=*/false));
}

Result<Json> Archive::LoadManifest(const std::string& archive_id) const {
  DASPOS_ASSIGN_OR_RETURN(std::string manifest_text, store_->Get(archive_id));
  DASPOS_ASSIGN_OR_RETURN(Json manifest, Json::Parse(manifest_text));
  if (!manifest.Has("files")) {
    return Status::Corruption("AIP manifest without file list: " + archive_id);
  }
  return manifest;
}

Result<DisseminationPackage> Archive::Retrieve(
    const std::string& archive_id) const {
  DASPOS_ASSIGN_OR_RETURN(Json manifest, LoadManifest(archive_id));

  DisseminationPackage package;
  package.archive_id = archive_id;
  package.content.title = manifest.Get("title").as_string();
  package.content.creator = manifest.Get("creator").as_string();
  package.content.description = manifest.Get("description").as_string();
  const Json& keywords = manifest.Get("keywords");
  for (size_t i = 0; i < keywords.size(); ++i) {
    package.content.keywords.push_back(keywords.at(i).as_string());
  }
  package.content.context = manifest.Get("context");

  const Json& files = manifest.Get("files");
  for (size_t i = 0; i < files.size(); ++i) {
    const Json& entry = files.at(i);
    std::string object_id = entry.Get("sha256").as_string();
    PackageFile file;
    DASPOS_RETURN_IF_ERROR(store_->Verify(object_id, &file.bytes));
    file.logical_name = entry.Get("name").as_string();
    file.media_type = entry.Get("media_type").as_string();
    package.content.files.push_back(std::move(file));
  }
  return package;
}

std::vector<HoldingSummary> Archive::Holdings() const {
  std::vector<HoldingSummary> out;
  for (const std::string& archive_id : catalog_) {
    auto manifest = LoadManifest(archive_id);
    if (!manifest.ok()) continue;  // surfaced by the audit instead
    HoldingSummary summary;
    summary.archive_id = archive_id;
    summary.title = manifest->Get("title").as_string();
    auto seq = sequences_.find(archive_id);
    summary.deposit_sequence = seq != sequences_.end() ? seq->second : 0;
    const Json& files = manifest->Get("files");
    summary.file_count = files.size();
    for (size_t i = 0; i < files.size(); ++i) {
      summary.total_bytes +=
          static_cast<uint64_t>(files.at(i).Get("bytes").as_int());
    }
    summary.migrated_from = manifest->Get("migrated_from").as_string();
    out.push_back(std::move(summary));
  }
  return out;
}

Result<std::string> Archive::Migrate(const std::string& archive_id,
                                     const FileTransform& transform,
                                     const std::string& migration_note) {
  DASPOS_ASSIGN_OR_RETURN(DisseminationPackage original,
                          Retrieve(archive_id));

  SubmissionPackage migrated = std::move(original.content);
  for (PackageFile& file : migrated.files) {
    DASPOS_ASSIGN_OR_RETURN(file, transform(file));
  }
  Json lineage = Json::Object();
  lineage["migrated_from"] = archive_id;
  lineage["migration_note"] = migration_note;
  return Store(migrated, lineage, /*pool=*/nullptr);
}

}  // namespace daspos
