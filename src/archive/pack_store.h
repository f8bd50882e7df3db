// Packfile object-store backend: small blobs packed into large append-only
// segments, served by mmap.
//
// Why: the loose-file backend pays an open/read/close syscall triple plus a
// full SHA-256 re-hash on every cold Get, and a file-per-object on-disk
// layout wastes media on small blobs. Packing (the git-packfile / LSM-SST
// idea, and the rct DB-backend pattern) turns a cold read into a sorted-map
// lookup plus a memcpy out of a long-lived mapping.
//
// On-disk layout under <root>/ (full spec in docs/PACKFILE.md):
//   segments/NNNNNN.seg   append-only record log: 16-byte segment header,
//                         then [64-byte record header | payload]*
//   segments/NNNNNN.idx   sidecar index written atomically at seal time:
//                         16-byte header + sorted fixed-width 72-byte
//                         entries {raw id, offset, raw_len, stored_len,
//                         checksum, flags}
//   quarantine.jsonl      append-fsynced log of records that Quarantine
//                         set aside (the bad bytes stay in the immutable
//                         segment as the forensic copy)
//
// Integrity model (two tiers, like git's SHA-1 ids + pack CRC32s):
//   - The SHA-256 id <-> bytes binding is established at Put time (the id
//     IS the hash of the bytes) and re-audited by Verify, which always
//     decompresses and re-hashes the full payload. Scrub and `daspos audit`
//     build on Verify, so mass fixity checking is exactly as strong as on
//     the loose backend.
//   - Get is gated by a fast 64-bit checksum (support/checksum.h) stored in
//     the record header and computed over the *stored* (possibly
//     compressed) payload. It catches media rot and torn writes at memory
//     bandwidth; a mismatch fails with Corruption, never serving the
//     bytes, and leaves the record in place for scrub or read repair.
//   - Compression never changes identity: ids and Verify always apply to
//     the uncompressed bytes (fixity over raw bytes; "DZ01" streams are a
//     storage encoding, not content).
//
// Crash-safety rules:
//   - A segment with a valid .idx is sealed: immutable forever, mmap-served.
//   - Appends go only to the newest segment; appending to a previously
//     sealed segment first unlinks its .idx (crash after the unlink just
//     means a rebuild scan on next open).
//   - On open, a segment without a valid .idx is scanned record by record
//     (checksums included); a torn tail is truncated away (counted in
//     daspos_pack_torn_records_total) and the segment becomes the append
//     target again. Rebuild scans make the .idx purely an optimization: the
//     segment log is the single source of truth.
//   - Every append is fsynced before Put returns (PutBatch batches the
//     fsync); segment creation fsyncs the segments/ directory so the file
//     name itself survives a crash.
#ifndef DASPOS_ARCHIVE_PACK_STORE_H_
#define DASPOS_ARCHIVE_PACK_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "archive/object_store.h"
#include "support/mmap.h"
#include "support/result.h"
#include "support/sync.h"

namespace daspos {

class Counter;
class Histogram;

struct PackOptions {
  /// Compress payloads with the self-contained LZSS codec
  /// (support/compress.h) when it actually shrinks them; incompressible
  /// blobs are stored raw (per-record flag). Ids are unchanged either way.
  bool compress = false;
  /// Rollover threshold: a segment past this size is sealed and a new one
  /// started. 256 MiB keeps mappings coarse without unbounded segments.
  uint64_t max_segment_bytes = 256ull * 1024 * 1024;
};

// On-disk format constants, exported for tests and tooling.
// Segment: 8-byte magic, u32 format version, u32 reserved.
inline constexpr char kPackSegmentMagic[8] = {'D', 'P', 'S', 'E',
                                              'G', '0', '0', '1'};
inline constexpr size_t kPackSegmentHeaderSize = 16;
// Record header: 4-byte magic, u8 flags, 3 reserved bytes, 32-byte raw id,
// u64 raw_len, u64 stored_len, u64 checksum64(stored payload).
inline constexpr char kPackRecordMagic[4] = {'D', 'P', 'R', 'C'};
inline constexpr size_t kPackRecordHeaderSize = 64;
// Byte offsets inside the record header.
inline constexpr size_t kPackRecordFlagsOffset = 4;
inline constexpr size_t kPackRecordIdOffset = 8;
inline constexpr size_t kPackRecordRawLenOffset = 40;
inline constexpr size_t kPackRecordStoredLenOffset = 48;
inline constexpr size_t kPackRecordChecksumOffset = 56;
inline constexpr uint8_t kPackFlagCompressed = 0x01;
// Index: 8-byte magic, u32 format version, u32 entry count, then entries:
// 32-byte raw id, u64 offset, u64 raw_len, u64 stored_len, u64 checksum,
// u8 flags, 7 reserved bytes — fixed width, sorted by id.
inline constexpr char kPackIndexMagic[8] = {'D', 'P', 'I', 'D',
                                             'X', '0', '0', '1'};
inline constexpr size_t kPackIndexHeaderSize = 16;
inline constexpr size_t kPackIndexEntrySize = 72;

/// Packfile backend. Put/Get/Verify/PutBatch are safe to call
/// concurrently; appends serialize on an internal mutex while reads of
/// sealed segments run lock-free on long-lived mappings. Re-putting an id
/// whose record fails the read gate, or that Quarantine dropped, appends a
/// superseding record (the index always points at the newest), which is
/// what makes replicated read-repair and scrub healing work over this
/// backend.
class PackObjectStore : public ObjectStore {
 public:
  /// Opens (or creates) the store at `root`, loading sealed indexes and
  /// rebuild-scanning any segment that lacks one.
  explicit PackObjectStore(std::string root, PackOptions options = {});
  /// Best-effort Flush(): an unclean destructor loses only the seal
  /// optimization, never data.
  ~PackObjectStore() override;

  PackObjectStore(const PackObjectStore&) = delete;
  PackObjectStore& operator=(const PackObjectStore&) = delete;

  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  Status Verify(const std::string& id,
                std::string* bytes = nullptr) const override;
  /// Appends one line to quarantine.jsonl for the record the index names
  /// and drops it from the index. The segment bytes are untouched
  /// (immutable forensic copy in place).
  Status Quarantine(const std::string& id, const std::string& reason) override;
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override;
  /// Logical (uncompressed) bytes, mirroring the loose backend's semantics.
  Result<uint64_t> TotalBytes() const override;
  Result<std::vector<std::string>> QuarantinedIds() const override;

  /// Hashes (and compresses) blobs concurrently on `pool`, then appends
  /// them under one lock with a single fsync for the whole batch.
  Result<std::vector<std::string>> PutBatch(
      const std::vector<std::string_view>& blobs,
      ThreadPool* pool = nullptr) override;

  /// Seals the active segment by writing its .idx sidecar. Idempotent; a
  /// sealed store opens without any rebuild scan.
  Status Flush();

  /// Physical payload bytes on disk (after compression) — for repack
  /// reporting and benchmarks.
  uint64_t StoredBytes() const;
  /// Number of .seg files currently backing the store.
  size_t SegmentCount() const;

 private:
  /// In-memory index entry: where the newest record for an id lives.
  struct Entry {
    uint32_t segment = 0;
    uint8_t flags = 0;
    uint64_t offset = 0;  // of the stored payload, not the record header
    uint64_t raw_len = 0;
    uint64_t stored_len = 0;
    uint64_t checksum = 0;
  };

  /// A blob prepared for append (hash + optional compression done outside
  /// the lock).
  struct Prepared {
    std::string id;
    std::string stored;  // compressed or raw payload bytes
    uint64_t raw_len = 0;
    uint8_t flags = 0;
    uint64_t checksum = 0;
  };

  std::string SegmentPath(uint32_t segment) const;
  std::string IndexPath(uint32_t segment) const;

  /// Open-time recovery: loads every segment's index, rebuild-scanning (and
  /// tail-truncating) segments without a valid one, then replays the
  /// quarantine log. Failures leave the store empty-but-alive; they are
  /// logged and the first one is kept in open_status_ so writes fail loudly
  /// instead of forking history.
  void Open() DASPOS_EXCLUDES(mutex_);
  Status LoadIndex(uint32_t segment, uint64_t segment_size)
      DASPOS_REQUIRES(mutex_);
  Status ScanSegment(uint32_t segment, bool truncate_torn_tail)
      DASPOS_REQUIRES(mutex_);
  void ReplayQuarantineLog() DASPOS_REQUIRES(mutex_);

  Prepared PrepareBlob(std::string_view bytes) const;
  /// Appends one prepared record to the active segment (creating/unsealing
  /// one as needed). Does NOT fsync — callers sync once per Put or batch.
  Status AppendLocked(const Prepared& blob) DASPOS_REQUIRES(mutex_);
  /// `force_new` skips the reuse-the-tail path: rollover must start a fresh
  /// segment even though the one it just sealed is still under the size cap.
  Status EnsureActiveSegmentLocked(bool force_new = false)
      DASPOS_REQUIRES(mutex_);
  Status SyncActiveLocked() DASPOS_REQUIRES(mutex_);
  Status FlushLocked() DASPOS_REQUIRES(mutex_);
  /// After a failed record append: cuts the segment back to the last
  /// known-good offset (partial bytes landed at the true EOF while
  /// active_size_ did not advance, so every later offset would be wrong).
  /// If even the truncate fails, the segment is retired from appending —
  /// its committed records stay readable, the garbage tail stays as
  /// evidence — and the next append starts a fresh segment.
  void RepairActiveTailLocked() DASPOS_REQUIRES(mutex_);
  /// Returns the long-lived mapping for a sealed segment, creating it on
  /// first use.
  Result<const MemoryMappedFile*> SealedMappingLocked(uint32_t segment) const
      DASPOS_REQUIRES(mutex_);
  /// Moves any cached mapping of `segment` to the retired list (kept alive
  /// so views already handed to readers stay valid) so the next read
  /// remaps at the segment's current size. Called when a tail segment is
  /// unsealed for appending and when a read finds its cached view too
  /// short.
  void RetireMappingLocked(uint32_t segment) const DASPOS_REQUIRES(mutex_);

  /// Reads the stored payload of `entry` and returns the raw bytes
  /// (decompressing if flagged), checksum-gated: a failed gate is
  /// Corruption naming the reason. `via_mmap` reports whether the read was
  /// served zero-copy from a sealed mapping.
  Result<std::string> ReadRecord(const std::string& id, const Entry& entry,
                                 bool* via_mmap) const
      DASPOS_EXCLUDES(mutex_);
  /// The one read behind Get and Verify: looks `id` up in the index, reads
  /// its record through ReadRecord and counts it in daspos_pack_reads_total
  /// (with its bytes, and whether the mapping served it).
  Result<std::string> ReadIndexed(const std::string& id) const
      DASPOS_EXCLUDES(mutex_);

  std::string root_;
  PackOptions options_;

  mutable Mutex mutex_;
  std::map<std::string, Entry> index_ DASPOS_GUARDED_BY(mutex_);
  /// Every id that ever had a quarantine log line (QuarantinedIds reports
  /// history, matching the loose backend's surviving forensic copies).
  std::set<std::string> quarantine_log_ DASPOS_GUARDED_BY(mutex_);
  /// Lazily created mappings of sealed segments. Mappings are never evicted
  /// while the store lives, so views handed to readers stay valid without
  /// holding the lock.
  mutable std::map<uint32_t, std::unique_ptr<MemoryMappedFile>> mmaps_
      DASPOS_GUARDED_BY(mutex_);
  /// Mappings that went stale (their segment was unsealed and grew) but
  /// must outlive any reader still holding a view into them. Bounded by
  /// the number of unseal events, not by reads.
  mutable std::vector<std::unique_ptr<MemoryMappedFile>> retired_mmaps_
      DASPOS_GUARDED_BY(mutex_);
  /// Read/write fds for segments opened this process (append target plus
  /// any segment read before it was mapped); closed only on destruction.
  std::map<uint32_t, int> segment_fds_ DASPOS_GUARDED_BY(mutex_);
  uint32_t active_segment_ DASPOS_GUARDED_BY(mutex_) = 0;
  bool has_active_ DASPOS_GUARDED_BY(mutex_) = false;
  uint64_t active_size_ DASPOS_GUARDED_BY(mutex_) = 0;
  uint64_t next_segment_ DASPOS_GUARDED_BY(mutex_) = 0;
  /// Segments present on disk (enumerated at Open, plus ones created
  /// since). Numbering can be sparse after external compaction, so this is
  /// what SegmentCount() reports — not next_segment_.
  uint64_t segment_count_ DASPOS_GUARDED_BY(mutex_) = 0;
  /// Segments whose tail could not be repaired after a failed append:
  /// never reused as the append target.
  std::set<uint32_t> retired_segments_ DASPOS_GUARDED_BY(mutex_);
  Status open_status_ DASPOS_GUARDED_BY(mutex_);

  Counter* appends_total_;
  Counter* append_bytes_total_;
  Counter* reads_total_;
  Counter* read_bytes_total_;
  Counter* mmap_reads_total_;
  Counter* compressed_total_;
  Counter* compression_saved_bytes_;
  Counter* checksum_failures_;
  Counter* index_rebuilds_;
  Counter* torn_records_;
  Counter* segments_created_;
  Counter* quarantines_;
  Histogram* get_wall_ms_;
  Histogram* put_wall_ms_;
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_PACK_STORE_H_
