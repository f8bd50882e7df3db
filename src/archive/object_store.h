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

  virtual Result<std::string> Get(const std::string& id) const = 0;
  virtual bool Has(const std::string& id) const = 0;

  /// Re-hashes the stored bytes and compares with the id; Corruption on
  /// mismatch (bit rot), NotFound if absent.
  virtual Status Verify(const std::string& id) const = 0;

  /// All stored ids (sorted).
  virtual std::vector<std::string> Ids() const = 0;

  /// Streams every stored id in ascending order WITHOUT materializing the
  /// full list — on large stores this is the O(1)-memory alternative to
  /// Ids() for scrubs, audits, and migrations. `fn` returning non-OK aborts
  /// the walk immediately and that status is returned. A store whose walk
  /// partially failed keeps going, then returns the first walk error after
  /// visiting everything reachable: callers can heal what they can, but an
  /// unreadable store is never mistaken for an empty one. Callbacks may call
  /// back into the store (Get/Verify/Has) — implementations must not hold
  /// internal locks while invoking `fn`. The base implementation adapts
  /// Ids().
  virtual Status ForEachId(
      const std::function<Status(const std::string&)>& fn) const;

  virtual uint64_t TotalBytes() const = 0;

  /// Ids of blobs that failed fixity and were moved aside (sorted). Backends
  /// without a quarantine area return an empty list.
  virtual std::vector<std::string> QuarantinedIds() const { return {}; }

  /// Stores every blob and returns their ids in input order; the first Put
  /// failure aborts the batch. The base implementation loops over Put, so
  /// decorators (fault injection, retry) keep their semantics; backends with
  /// thread-safe Put may override to hash/write on `pool`.
  virtual Result<std::vector<std::string>> PutBatch(
      const std::vector<std::string_view>& blobs, ThreadPool* pool = nullptr);
};

/// In-memory backend (tests, benches). Thread-safe: one internal mutex
/// guards the map, so concurrent Put/Get/Verify need no external locking.
/// PutBatch keeps the base serial loop; the parallel override is only on
/// the file backend.
class MemoryObjectStore : public ObjectStore {
 public:
  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  bool Has(const std::string& id) const override;
  Status Verify(const std::string& id) const override;
  std::vector<std::string> Ids() const override;
  uint64_t TotalBytes() const override;

  /// Test hook: silently corrupt a stored object (fixity must catch it).
  Status CorruptForTesting(const std::string& id, size_t byte_index);

 private:
  // Decorated stores fan per-object Puts over a pool (RetryingObjectStore::
  // PutBatch), so the map must tolerate concurrent mutation like
  // FileObjectStore does.
  mutable Mutex mutex_;
  std::map<std::string, std::string> objects_ DASPOS_GUARDED_BY(mutex_);
};

/// Filesystem backend: objects live at <root>/<id[0:2]>/<id[2:]>. Writes are
/// crash-safe (temp file + fsync + rename) and every read is fixity-gated;
/// a blob whose digest no longer matches its id is moved to
/// <root>/quarantine/<id> and the read fails with Corruption. Keyed lookups
/// validate the id first, so a hostile id ("../../etc/passwd") can never
/// address a path outside the store root.
///
/// Read fast path: after a successful hash check, Get records the blob's
/// {size, mtime} in an in-memory verified-digest cache. A warm Get whose
/// stat still matches skips the re-hash and just reads the bytes; any
/// mismatch (or a Put / quarantine on the id) drops the entry and the next
/// read re-hashes from scratch. Verify never consults the cache — an audit
/// must always touch the real bytes.
///
/// Put, Get, and Verify are safe to call concurrently (PutBatch relies on
/// this): the cache is mutex-guarded and on-disk publication is an atomic
/// rename.
///
/// Every operation publishes to MetricsRegistry::Global()
/// (daspos_archive_*: op counts, byte totals, digest-cache hits/misses/
/// invalidations, quarantines, get/put latency) and opens an "archive:*"
/// trace span when the tracer is enabled.
class FileObjectStore : public ObjectStore {
 public:
  explicit FileObjectStore(std::string root);

  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  bool Has(const std::string& id) const override;
  Status Verify(const std::string& id) const override;
  std::vector<std::string> Ids() const override;
  /// Streams shard directories one at a time ("00".."ff" in order, ids
  /// sorted within each shard), so peak memory is one shard's worth of
  /// names — ~1/256th of the store — instead of the whole id list.
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override;
  uint64_t TotalBytes() const override;
  std::vector<std::string> QuarantinedIds() const override;

  /// Hashes and writes the blobs concurrently on `pool` (caller
  /// participates; ids still returned in input order).
  Result<std::vector<std::string>> PutBatch(
      const std::vector<std::string_view>& blobs,
      ThreadPool* pool = nullptr) override;

 private:
  /// Stat fingerprint of a verified blob. A later stat that differs means
  /// the file changed behind the cache and the verdict is stale.
  struct VerifiedStat {
    uint64_t size = 0;
    int64_t mtime_ns = 0;

    bool operator==(const VerifiedStat& other) const {
      return size == other.size && mtime_ns == other.mtime_ns;
    }
  };

  /// Op bodies behind the instrumented public wrappers.
  Result<std::string> PutImpl(std::string_view bytes);
  Result<std::string> GetImpl(const std::string& id) const;
  Status VerifyImpl(const std::string& id) const;

  std::string PathFor(const std::string& id) const;
  /// Records one store-walk failure (directory unreadable, stat failed)
  /// during Ids()/TotalBytes(): logs it and bumps
  /// daspos_archive_walk_errors_total so an unreadable store can never be
  /// mistaken for an empty one by audits reading the walk results.
  void CountWalkError(const std::string& what,
                      const std::error_code& ec) const;
  /// Moves the blob at PathFor(id) into the quarantine area and drops its
  /// cache entry. A prior forensic copy of the same id is never clobbered:
  /// repeat quarantines land at `<id>.1`, `<id>.2`, ... . Failures (mkdir,
  /// rename) are logged and counted in
  /// daspos_archive_quarantine_errors_total — a rotted blob that could not
  /// be moved aside must not vanish silently.
  void Quarantine(const std::string& id) const;
  /// Stat fingerprint of the file at `path`, or !ok if it cannot be statted.
  static Result<VerifiedStat> StatFingerprint(const std::string& path);
  /// True when the cache holds `id` with exactly `current`.
  bool CacheMatches(const std::string& id, const VerifiedStat& current) const
      DASPOS_EXCLUDES(cache_mutex_);
  /// Records `id` as verified at fingerprint `fp`.
  void CacheStore(const std::string& id, const VerifiedStat& fp) const
      DASPOS_EXCLUDES(cache_mutex_);
  /// Drops `id` from the cache, counting an invalidation if it was present.
  void CacheDrop(const std::string& id) const DASPOS_EXCLUDES(cache_mutex_);

  std::string root_;
  mutable Mutex cache_mutex_;
  mutable std::map<std::string, VerifiedStat> verified_
      DASPOS_GUARDED_BY(cache_mutex_);
  // Registry handles resolved once at construction (stable for process
  // life); the instruments themselves are owned by the global registry.
  Counter* put_total_;
  Counter* get_total_;
  Counter* verify_total_;
  Counter* put_bytes_total_;
  Counter* get_bytes_total_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* cache_invalidations_;
  Counter* quarantines_;
  Counter* quarantine_errors_;
  Counter* walk_errors_;
  Histogram* get_wall_ms_;
  Histogram* put_wall_ms_;
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_OBJECT_STORE_H_
