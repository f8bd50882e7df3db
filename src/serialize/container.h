// Self-describing record container — the on-disk format for every data tier.
//
// The paper stresses that preserved formats must be self-documenting
// (Table 1 row "self-documenting?"; §3.2 provenance discussion). A container
// therefore embeds a JSON metadata document (schema name + version, producer,
// parent files) ahead of the payload records, and ends with a footer that
// carries the record count and a SHA-256 of everything before it, so fixity
// is verifiable without external information.
//
// Layout:
//   "DSPC" | u32 container_version | metadata json (len-prefixed)
//   repeated: varint record_len | record bytes
//   "DSPE" | u64 record_count | 32-byte sha256 of all preceding bytes
#ifndef DASPOS_SERIALIZE_CONTAINER_H_
#define DASPOS_SERIALIZE_CONTAINER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serialize/json.h"
#include "support/result.h"
#include "support/sha256.h"

namespace daspos {

/// Current container layout version.
inline constexpr uint32_t kContainerVersion = 1;

/// Builds a container in memory. The fixity hash is computed incrementally
/// as records are appended, so Finish only digests the last few bytes.
class ContainerWriter {
 public:
  /// `metadata` should carry at least "schema" and "schema_version"; callers
  /// add producer / parentage fields (see workflow/provenance.h).
  explicit ContainerWriter(const Json& metadata);

  /// Appends one opaque record.
  void AddRecord(std::string_view record);

  /// Appends `count` pre-framed records in one splice. `encoded` must be
  /// exactly the bytes AddRecord would have produced for those records
  /// (varint length + payload each) — this is how parallel producers merge
  /// per-chunk record buffers without re-framing.
  void AppendEncodedRecords(std::string_view encoded, size_t count);

  size_t record_count() const { return record_count_; }

  /// Seals the container (writes the footer) and returns the bytes.
  /// The writer must not be reused afterwards.
  std::string Finish();

 private:
  /// Feeds the unhashed tail of buffer_ to the hasher once at least
  /// `min_bytes` of it are pending.
  void HashPending(size_t min_bytes);

  std::string buffer_;
  Sha256 hasher_;
  size_t hashed_bytes_ = 0;
  size_t record_count_ = 0;
  bool finished_ = false;
};

/// Reads a container; validates magic, version, footer, and fixity hash on
/// open, so any truncation or bit-rot is caught before records are consumed.
class ContainerReader {
 public:
  /// Parses and verifies `data` (which must outlive the reader).
  static Result<ContainerReader> Open(std::string_view data);

  /// Opens without verifying the fixity hash (for salvage tooling, or to
  /// work on the records while VerifyFixity runs).
  static Result<ContainerReader> OpenUnverified(std::string_view data);

  /// Checks only the fixity hash of `data`. Open is OpenUnverified plus
  /// this check: when OpenUnverified succeeds, Open fails exactly when
  /// VerifyFixity does, with the same error.
  static Status VerifyFixity(std::string_view data);

  /// The fixity digest the footer of `data` declares (its last 32 bytes),
  /// unverified; empty when `data` is shorter than a footer.
  static std::string_view DeclaredDigest(std::string_view data);

  const Json& metadata() const { return metadata_; }
  uint64_t record_count() const { return record_count_; }

  /// Record payloads, in order. Views into the underlying data.
  const std::vector<std::string_view>& records() const { return records_; }

 private:
  ContainerReader() = default;
  static Result<ContainerReader> OpenImpl(std::string_view data, bool verify);

  Json metadata_;
  uint64_t record_count_ = 0;
  std::vector<std::string_view> records_;
};

}  // namespace daspos

#endif  // DASPOS_SERIALIZE_CONTAINER_H_
