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

/// Result of a fixity audit: the distinct ids classified (stored, missing,
/// quarantined), and two lists in ascending id order at every thread count.
struct FixityReport {
  uint64_t objects_checked = 0;
  std::vector<std::string> corrupted_objects;
  std::vector<std::string> missing_objects;
  bool clean() const {
    return corrupted_objects.empty() && missing_objects.empty();
  }
};

/// One walk of an object store: the facts catalog recovery, `daspos audit`
/// and lint's A-codes all read, so they cannot disagree. ForEachId runs
/// once; each walked id gets one Get (an AIP manifest, recognized by shape,
/// is parsed once) and, when verifying, one Verify, on `pool` when given.
struct ArchiveInventory {
  enum class Kind {
    kManifest,     // an AIP manifest that read (and verified) clean
    kPayload,      // readable and referenced by a manifest
    kOrphan,       // readable and referenced by no manifest
    kMissing,      // referenced by a manifest, absent from the store
    kCorrupted,    // stored, but its Get or Verify failed
    kQuarantined,  // only in the quarantine area
  };
  struct Object {
    Kind kind = Kind::kOrphan;
    uint64_t stored_bytes = 0;  // what Get returned
    Status status;              // the failed read, for kCorrupted
    bool quarantined = false;   // listed by QuarantinedIds
  };
  /// One file entry of a manifest.
  struct Reference {
    std::string manifest_id;
    std::string name;
    uint64_t declared_bytes = 0;
    std::string object_id;
  };

  /// Without `verify`, only the read gate can find an object corrupted
  /// (catalog recovery outside the audit).
  static ArchiveInventory Take(const ObjectStore& store,
                               ThreadPool* pool = nullptr, bool verify = true);
  /// The CORRUPTED and MISSING ids `daspos audit` prints.
  FixityReport Fixity() const;

  std::map<std::string, Object> objects;  // every id classified
  std::map<std::string, Json> manifests;  // the kManifest objects, parsed
  std::vector<Reference> references;      // in (manifest id, file) order
  Status walk;        // ForEachId's: an unreadable store is never empty
  Status quarantine;  // QuarantinedIds'
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

  /// Rebuilds the catalog from the manifests of `inventory` — how a fresh
  /// process re-adopts a long-lived (disk-backed) archive. Packages are
  /// re-sequenced in object-id order; already-known ids are kept. A
  /// corrupted object is left for the audit; a walk error or any other
  /// read error fails recovery. Returns the number of packages found.
  Result<size_t> RecoverCatalog(const ArchiveInventory& inventory);
  /// The same over an unverified inventory of the store.
  Result<size_t> RecoverCatalog();

  /// Fetches and fixity-verifies a package.
  Result<DisseminationPackage> Retrieve(const std::string& archive_id) const;

  /// All deposited packages, in deposit order.
  std::vector<HoldingSummary> Holdings() const;

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
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_ARCHIVE_H_
