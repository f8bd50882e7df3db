// The preservation archive: OAIS-flavoured deposits over a content-
// addressed store. A submission (SIP) of files + descriptive metadata is
// ingested into an archival package (AIP) whose manifest records every
// file's content hash; retrieval produces a verified dissemination package
// (DIP); fixity audits and format migrations operate on the holdings.
// This is the curation infrastructure whose absence §2.2 laments
// ("none of these modes of preservation would fit the characterization of
// proper curation").
#ifndef DASPOS_ARCHIVE_ARCHIVE_H_
#define DASPOS_ARCHIVE_ARCHIVE_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "archive/object_store.h"
#include "serialize/json.h"
#include "support/result.h"

namespace daspos {

/// One file inside a package.
struct PackageFile {
  std::string logical_name;
  std::string media_type = "application/octet-stream";
  std::string bytes;
};

/// What a depositor submits (SIP).
struct SubmissionPackage {
  std::string title;
  std::string creator;
  std::string description;
  std::vector<std::string> keywords;
  /// Free-form structured context: provenance chains, interview reports.
  Json context = Json::Object();
  std::vector<PackageFile> files;
};

/// What a consumer gets back (DIP): the SIP content plus archive identity.
struct DisseminationPackage {
  std::string archive_id;
  SubmissionPackage content;
};

/// Summary of one archival package (from its AIP manifest).
struct HoldingSummary {
  std::string archive_id;
  std::string title;
  uint64_t deposit_sequence = 0;
  size_t file_count = 0;
  uint64_t total_bytes = 0;
  /// Set when this package was produced by migrating another.
  std::string migrated_from;
};

/// True if `json` has the shape of an AIP manifest (a JSON object carrying
/// aip_version and a file list). Shared by catalog recovery and the
/// preservation linter, which both scan raw object stores.
bool IsAipManifest(const Json& json);

/// Result of a fixity audit over all holdings.
struct FixityReport {
  uint64_t objects_checked = 0;
  std::vector<std::string> corrupted_objects;
  std::vector<std::string> missing_objects;
  bool clean() const {
    return corrupted_objects.empty() && missing_objects.empty();
  }
};

class Archive {
 public:
  /// The archive borrows the object store (not owned).
  explicit Archive(ObjectStore* store) : store_(store) {}

  /// Ingests a SIP; returns the archive id (content id of the AIP
  /// manifest). Requires a title and at least one file. With a pool, the
  /// file blobs are hashed and stored concurrently (PutBatch); the manifest
  /// and catalog update are identical either way.
  Result<std::string> Deposit(const SubmissionPackage& submission,
                              ThreadPool* pool = nullptr);

  /// Rebuilds the catalog from the object store by scanning for AIP
  /// manifests — how a fresh process re-adopts a long-lived (disk-backed)
  /// archive. Packages are re-sequenced in object-id order; already-known
  /// ids are kept. An object that fails fixity is skipped and left for
  /// AuditFixity to report; any other read or walk error fails recovery.
  /// Returns the number of packages found.
  Result<size_t> RecoverCatalog();

  /// Fetches and fixity-verifies a package.
  Result<DisseminationPackage> Retrieve(const std::string& archive_id) const;

  /// All deposited packages, in deposit order.
  std::vector<HoldingSummary> Holdings() const;

  /// Verifies every object referenced by every manifest, then every object
  /// recovery skipped as rotted, listing each corrupted id once. With a
  /// pool, the per-file verifications run concurrently; the report lists
  /// objects in the same (catalog, manifest, id) order as the serial audit.
  FixityReport AuditFixity(ThreadPool* pool = nullptr) const;

  /// Format migration: applies `transform` to each file of a package and
  /// deposits the result as a new package whose manifest records the
  /// origin. The original is retained (migrations must be reversible by
  /// retention, not by inverse transforms).
  using FileTransform = std::function<Result<PackageFile>(const PackageFile&)>;
  Result<std::string> Migrate(const std::string& archive_id,
                              const FileTransform& transform,
                              const std::string& migration_note);

 private:
  Result<Json> LoadManifest(const std::string& archive_id) const;
  /// Stores a checked `package`'s files and AIP manifest and catalogs it
  /// once per archive id; `lineage` members land just before "files".
  Result<std::string> Store(const SubmissionPackage& package,
                            const Json& lineage, ThreadPool* pool);

  ObjectStore* store_;
  /// Catalog: archive ids in deposit order (the manifest itself lives in
  /// the object store). The deposit sequence is catalog state, not manifest
  /// content, so byte-identical re-deposits stay idempotent.
  std::vector<std::string> catalog_;
  std::map<std::string, uint64_t> sequences_;
  uint64_t next_sequence_ = 1;
  /// Objects RecoverCatalog could not read for failed fixity.
  std::set<std::string> rotted_;
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_ARCHIVE_H_
