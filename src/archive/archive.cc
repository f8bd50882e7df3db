#include "archive/archive.h"

#include <algorithm>

#include "support/parallel.h"

namespace daspos {

bool IsAipManifest(const Json& json) {
  return json.is_object() && json.Has("aip_version") && json.Has("files");
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

Result<size_t> Archive::RecoverCatalog() {
  size_t found = 0;
  // Stream the store's ids (ascending) instead of materializing the full
  // listing. A store whose walk or a read failed now fails recovery
  // outright — rebuilding a partial catalog that a later audit would
  // certify is worse than refusing. A rotted object is the exception: it
  // cannot say whether it was a manifest, so it is kept for the audit.
  DASPOS_RETURN_IF_ERROR(store_->ForEachId([&](const std::string& id) {
    auto bytes = store_->Get(id);
    if (bytes.status().IsCorruption()) {
      rotted_.insert(id);
      return Status::OK();
    }
    if (!bytes.ok()) return bytes.status();
    // AIP manifests are recognized by shape; anything else in the store is
    // package payload.
    auto json = Json::Parse(*bytes);
    if (!json.ok() || !IsAipManifest(*json)) return Status::OK();
    ++found;
    if (sequences_.count(id) == 0) {
      sequences_[id] = next_sequence_++;
      catalog_.push_back(id);
    }
    return Status::OK();
  }));
  return found;
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
    DASPOS_RETURN_IF_ERROR(store_->Verify(object_id));
    DASPOS_ASSIGN_OR_RETURN(std::string bytes, store_->Get(object_id));
    PackageFile file;
    file.logical_name = entry.Get("name").as_string();
    file.media_type = entry.Get("media_type").as_string();
    file.bytes = std::move(bytes);
    package.content.files.push_back(std::move(file));
  }
  return package;
}

std::vector<HoldingSummary> Archive::Holdings() const {
  std::vector<HoldingSummary> out;
  for (const std::string& archive_id : catalog_) {
    auto manifest = LoadManifest(archive_id);
    if (!manifest.ok()) continue;  // surfaced by AuditFixity instead
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

FixityReport Archive::AuditFixity(ThreadPool* pool) const {
  FixityReport report;
  // Phase 1 (serial): verify each manifest and collect the referenced file
  // objects in (catalog, manifest) order. Manifests are few and small; the
  // payload blobs dominate the hash cost.
  std::vector<std::string> file_objects;
  for (const std::string& archive_id : catalog_) {
    // The manifest itself is an object too.
    ++report.objects_checked;
    Status manifest_status = store_->Verify(archive_id);
    if (manifest_status.IsNotFound()) {
      report.missing_objects.push_back(archive_id);
      continue;
    }
    if (!manifest_status.ok()) {
      report.corrupted_objects.push_back(archive_id);
      continue;
    }
    auto manifest = LoadManifest(archive_id);
    if (!manifest.ok()) {
      report.corrupted_objects.push_back(archive_id);
      continue;
    }
    const Json& files = manifest->Get("files");
    for (size_t i = 0; i < files.size(); ++i) {
      file_objects.push_back(files.at(i).Get("sha256").as_string());
    }
  }
  // Phase 2: hash every payload blob, concurrently when a pool is given.
  // Statuses land in a pre-sized vector, so the report classification below
  // walks them in the same order as the serial audit.
  std::vector<Status> verdicts = ParallelMap<Status>(
      pool, file_objects.size(),
      [this, &file_objects](size_t i) {
        return store_->Verify(file_objects[i]);
      },
      /*grain=*/1);
  for (size_t i = 0; i < file_objects.size(); ++i) {
    ++report.objects_checked;
    if (verdicts[i].IsNotFound()) {
      report.missing_objects.push_back(file_objects[i]);
    } else if (!verdicts[i].ok()) {
      report.corrupted_objects.push_back(file_objects[i]);
    }
  }
  // Phase 3: objects recovery found rotted that no manifest above reached
  // (a rotted manifest, or a payload only it referenced).
  for (const std::string& id : rotted_) {
    if (std::find(report.corrupted_objects.begin(),
                  report.corrupted_objects.end(),
                  id) != report.corrupted_objects.end()) {
      continue;
    }
    ++report.objects_checked;
    if (store_->Verify(id).IsCorruption()) {
      report.corrupted_objects.push_back(id);
    }
  }
  return report;
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
