// Content-addressed object storage: objects are keyed by the SHA-256 of
// their bytes, so identity, deduplication, and fixity verification are all
// the same operation — the foundation of the preservation archive.
#ifndef DASPOS_ARCHIVE_OBJECT_STORE_H_
#define DASPOS_ARCHIVE_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "support/result.h"
#include "support/sync.h"

namespace daspos {

class Counter;
class Histogram;
class ThreadPool;

/// Checks that `id` is a well-formed content id: exactly 64 lowercase hex
/// characters. Rejects empty ids, path separators, `..`, absolute paths, and
/// anything else that could escape a store root when spliced into a path.
Status ValidateObjectId(const std::string& id);

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Stores `bytes` and returns their content id (64 hex chars).
  /// Re-putting identical bytes is a no-op returning the same id.
  virtual Result<std::string> Put(std::string_view bytes) = 0;

  /// The two reads. Get is each backend's read gate and what a daemon
  /// serves: the memory and file stores gate it by SHA-256, the packfile
  /// store only by a 64-bit checksum and its record header. Verify is the
  /// proving read: it re-hashes the stored bytes with SHA-256 on every
  /// backend and compares them with the id; Corruption on mismatch (bit rot
  /// or a forgery past a weaker gate), NotFound if absent. When `bytes` is
  /// given and the proof passes, it holds the proven bytes; any failure
  /// leaves it untouched. A caller that needs both the bytes and the proof
  /// makes this one call, so no object is read twice or hashed again.
  ///
  /// Reads never write: Get, Verify, ForEachId, TotalBytes and
  /// QuarantinedIds change nothing on disk, so a rotted copy fails the
  /// same way on every read until Quarantine or a re-Put replaces it.
  virtual Result<std::string> Get(const std::string& id) const = 0;
  virtual Status Verify(const std::string& id,
                        std::string* bytes = nullptr) const = 0;

  /// Sets the stored copy of `id` aside as forensic evidence of `reason`,
  /// so the store no longer holds it and a later Put stores good bytes
  /// fresh. The one write that follows a failed read; only scrub and read
  /// repair call it. Backends without a quarantine area keep nothing (the
  /// memory store's Put overwrites a rotted copy anyway).
  virtual Status Quarantine(const std::string& /*id*/,
                            const std::string& /*reason*/) {
    return Status::OK();
  }

  /// Streams every stored id in ascending order — the one way to enumerate
  /// a store (scrubs, audits, migrations, lint). `fn` returning non-OK
  /// aborts the walk immediately and that status is returned. A store whose
  /// walk partially failed keeps going, then returns the first walk error
  /// after visiting everything reachable: callers can heal what they can,
  /// but an unreadable store is never mistaken for an empty one. Callbacks
  /// may call back into the store (Get/Verify) — implementations must
  /// not hold internal locks while invoking `fn`.
  virtual Status ForEachId(
      const std::function<Status(const std::string&)>& fn) const = 0;

  /// Bytes held, or the error that kept the store from counting them all.
  virtual Result<uint64_t> TotalBytes() const = 0;

  /// Ids of blobs that Quarantine set aside (sorted), or the error that
  /// kept the store from listing them all. Backends without a quarantine
  /// area return an empty list.
  virtual Result<std::vector<std::string>> QuarantinedIds() const {
    return std::vector<std::string>{};
  }

  /// Stores every blob and returns their ids in input order; when Puts
  /// fail, the first failing input's status is returned. The one fan-out:
  /// runs the virtual Put on `pool`, one blob per task (serially when
  /// `pool` is null), so every implementation's Put must be thread-safe.
  /// Only two stores override it: the packfile backend (one fsync per
  /// batch) and the fault injector (serial, so plan ordinals stay fixed).
  virtual Result<std::vector<std::string>> PutBatch(
      const std::vector<std::string_view>& blobs, ThreadPool* pool = nullptr);
};

/// In-memory backend (tests, benches). Thread-safe: one internal mutex
/// guards the map, so concurrent Put/Get/Verify need no external locking.
/// Get is fixity-gated like every other backend: it re-hashes and refuses
/// bytes that no longer match their id.
class MemoryObjectStore : public ObjectStore {
 public:
  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  Status Verify(const std::string& id,
                std::string* bytes = nullptr) const override;
  /// Snapshots the keys under the lock, then calls `fn` unlocked.
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override;
  Result<uint64_t> TotalBytes() const override;

  /// Test hook: silently corrupt a stored object (fixity must catch it).
  Status CorruptForTesting(const std::string& id, size_t byte_index);

 private:
  // The base PutBatch fans Puts out over a pool, so the map must tolerate
  // concurrent mutation.
  mutable Mutex mutex_;
  std::map<std::string, std::string> objects_ DASPOS_GUARDED_BY(mutex_);
};

/// Filesystem backend: objects live at <root>/<id[0:2]>/<id[2:]>. Writes are
/// crash-safe (temp file + fsync + rename) and every read is fixity-gated:
/// a blob whose digest no longer matches its id fails with Corruption and
/// stays in place until Quarantine moves it to <root>/quarantine/<id> or a
/// re-Put overwrites it. Keyed lookups validate the id first, so a hostile
/// id ("../../etc/passwd") can never address a path outside the store root.
///
/// Get and Verify are one streaming read that hashes the bytes as they
/// land (a Verify without a buffer keeps none): media rot changes neither a
/// file's size nor its mtime, so no stat-based shortcut can stand in for
/// the hash.
///
/// Put, Get, and Verify are safe to call concurrently (the base PutBatch
/// relies on this): the store keeps no mutable state of its own and on-disk
/// publication is an atomic rename.
///
/// Every operation publishes to MetricsRegistry::Global()
/// (daspos_archive_*: op counts, byte totals, quarantines, get/put latency)
/// and opens an "archive:*" span.
class FileObjectStore : public ObjectStore {
 public:
  explicit FileObjectStore(std::string root);

  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  Status Verify(const std::string& id,
                std::string* bytes = nullptr) const override;
  /// Moves the blob into the quarantine area. A prior forensic copy of the
  /// same id is never clobbered: repeat quarantines land at `<id>.1`,
  /// `<id>.2`, ... . A failed mkdir or rename is returned, logged and
  /// counted in daspos_archive_quarantine_errors_total.
  Status Quarantine(const std::string& id, const std::string& reason) override;
  /// Streams shard directories one at a time ("00".."ff" in order, ids
  /// sorted within each shard), so peak memory is one shard's worth of
  /// names — ~1/256th of the store — instead of the whole id list.
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override;
  /// Sums the sizes of the objects ForEachId visits; fails as it does.
  Result<uint64_t> TotalBytes() const override;
  Result<std::vector<std::string>> QuarantinedIds() const override;

 private:
  /// Op bodies behind the instrumented public wrappers. Get and Verify
  /// are both the one streaming read-and-hash of ProvingRead.
  Result<std::string> PutImpl(std::string_view bytes);
  Status ProvingRead(const std::string& id, std::string* bytes) const;

  std::string PathFor(const std::string& id) const;
  /// Records one store-walk failure (directory unreadable, stat failed):
  /// logs it and bumps daspos_archive_walk_errors_total for operators. The
  /// walk itself reports the failure to its caller.
  void CountWalkError(const std::string& what,
                      const std::error_code& ec) const;
  std::string root_;
  // Registry handles resolved once at construction (stable for process
  // life); the instruments themselves are owned by the global registry.
  Counter* put_total_;
  Counter* get_total_;
  Counter* verify_total_;
  Counter* put_bytes_total_;
  Counter* get_bytes_total_;
  Counter* quarantines_;
  Counter* quarantine_errors_;
  Counter* walk_errors_;
  Histogram* get_wall_ms_;
  Histogram* put_wall_ms_;
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_OBJECT_STORE_H_
