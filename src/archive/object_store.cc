#include "archive/object_store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "support/io.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/sha256.h"
#include "support/trace.h"

namespace daspos {

namespace fs = std::filesystem;

namespace {

bool IsLowerHex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

/// True when `name` looks like a shard directory ("00".."ff"). Filters out
/// bookkeeping directories (quarantine/, tmp/) when walking the store.
bool IsShardName(const std::string& name) {
  return name.size() == 2 && IsLowerHex(name[0]) && IsLowerHex(name[1]);
}

}  // namespace

Status ValidateObjectId(const std::string& id) {
  if (id.empty()) return Status::InvalidArgument("empty object id");
  if (id.size() != 64) {
    return Status::InvalidArgument("malformed object id (want 64 hex chars): " +
                                   id);
  }
  for (char c : id) {
    if (!IsLowerHex(c)) {
      return Status::InvalidArgument(
          "malformed object id (non-hex character): " + id);
    }
  }
  return Status::OK();
}

Result<std::vector<std::string>> ObjectStore::PutBatch(
    const std::vector<std::string_view>& blobs, ThreadPool* pool) {
  Span span("archive:putbatch", "archive");
  span.AddAttribute("blobs", static_cast<uint64_t>(blobs.size()));
  // Each slot runs the full Put (a decorator's retry loop or quorum write
  // included) on its own; duplicate blobs in one batch are safe because
  // Put is idempotent.
  struct Slot {
    Status status;
    std::string id;
  };
  std::vector<Slot> slots = ParallelMap<Slot>(
      pool, blobs.size(),
      [this, &blobs](size_t i) {
        Slot slot;
        auto put = Put(blobs[i]);
        if (put.ok()) {
          slot.id = std::move(put).value();
        } else {
          slot.status = put.status();
        }
        return slot;
      },
      /*grain=*/1);
  std::vector<std::string> ids;
  ids.reserve(slots.size());
  for (Slot& slot : slots) {
    // Deterministic error reporting: the first failing input wins, whatever
    // order the pool ran the slots in.
    DASPOS_RETURN_IF_ERROR(slot.status);
    ids.push_back(std::move(slot.id));
  }
  return ids;
}

// --------------------------------------------------------- MemoryObjectStore

Result<std::string> MemoryObjectStore::Put(std::string_view bytes) {
  std::string id = Sha256::HashHex(bytes);
  // Overwrite unconditionally: Put must guarantee Get(id) == bytes even if
  // a previously stored copy has rotted (re-putting good bytes heals).
  MutexLock lock(mutex_);
  objects_.insert_or_assign(id, std::string(bytes));
  return id;
}

Result<std::string> MemoryObjectStore::Get(const std::string& id) const {
  std::string bytes;
  {
    MutexLock lock(mutex_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + id + " not in store");
    }
    bytes = it->second;
  }
  // Bytes that no longer hash to their id must never reach a consumer.
  if (Sha256::HashHex(bytes) != id) {
    return Status::Corruption("fixity mismatch for object " + id);
  }
  return bytes;
}

bool MemoryObjectStore::Has(const std::string& id) const {
  MutexLock lock(mutex_);
  return objects_.count(id) > 0;
}

Status MemoryObjectStore::Verify(const std::string& id) const {
  MutexLock lock(mutex_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + id + " not in store");
  }
  if (Sha256::HashHex(it->second) != id) {
    return Status::Corruption("fixity mismatch for object " + id);
  }
  return Status::OK();
}

Status MemoryObjectStore::ForEachId(
    const std::function<Status(const std::string&)>& fn) const {
  std::vector<std::string> ids;
  {
    MutexLock lock(mutex_);
    ids.reserve(objects_.size());
    for (const auto& [id, bytes] : objects_) {
      (void)bytes;
      ids.push_back(id);
    }
  }
  for (const std::string& id : ids) {
    DASPOS_RETURN_IF_ERROR(fn(id));
  }
  return Status::OK();
}

uint64_t MemoryObjectStore::TotalBytes() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& [id, bytes] : objects_) {
    (void)id;
    total += bytes.size();
  }
  return total;
}

Status MemoryObjectStore::CorruptForTesting(const std::string& id,
                                            size_t byte_index) {
  MutexLock lock(mutex_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + id + " not in store");
  }
  if (byte_index >= it->second.size()) {
    return Status::OutOfRange("byte index past object size");
  }
  it->second[byte_index] = static_cast<char>(it->second[byte_index] ^ 0x40);
  return Status::OK();
}

// ----------------------------------------------------------- FileObjectStore

FileObjectStore::FileObjectStore(std::string root) : root_(std::move(root)) {
  using namespace metric_names;
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::vector<double>& latency = Histogram::DefaultLatencyBucketsMs();
  put_total_ = &registry.GetCounter(kArchivePutTotal, "object-store Put calls");
  get_total_ = &registry.GetCounter(kArchiveGetTotal, "object-store Get calls");
  verify_total_ =
      &registry.GetCounter(kArchiveVerifyTotal, "object-store Verify calls");
  put_bytes_total_ =
      &registry.GetCounter(kArchivePutBytesTotal, "bytes written by Put");
  get_bytes_total_ =
      &registry.GetCounter(kArchiveGetBytesTotal, "bytes returned by Get");
  cache_hits_ = &registry.GetCounter(kArchiveCacheHitsTotal,
                                     "warm Gets that skipped the re-hash");
  cache_misses_ = &registry.GetCounter(kArchiveCacheMissesTotal,
                                       "cold Gets that hashed the full blob");
  cache_invalidations_ =
      &registry.GetCounter(kArchiveCacheInvalidationsTotal,
                           "verified-digest cache entries dropped");
  quarantines_ =
      &registry.GetCounter(kArchiveQuarantinesTotal,
                           "blobs moved aside after a fixity mismatch");
  quarantine_errors_ = &registry.GetCounter(
      kArchiveQuarantineErrorsTotal,
      "quarantine moves that failed (mkdir or rename error)");
  walk_errors_ = &registry.GetCounter(
      kArchiveWalkErrorsTotal,
      "store-walk iteration/stat failures (an unreadable store must not "
      "report as empty)");
  get_wall_ms_ =
      &registry.GetHistogram(kArchiveGetWallMs, latency, "Get wall time");
  put_wall_ms_ =
      &registry.GetHistogram(kArchivePutWallMs, latency, "Put wall time");
}

std::string FileObjectStore::PathFor(const std::string& id) const {
  return root_ + "/" + id.substr(0, 2) + "/" + id.substr(2);
}

void FileObjectStore::Quarantine(const std::string& id) const {
  quarantines_->Increment();
  CacheDrop(id);
  std::error_code ec;
  const fs::path quarantine = fs::path(root_) / "quarantine";
  fs::create_directories(quarantine, ec);
  if (ec) {
    quarantine_errors_->Increment();
    DASPOS_LOG(kError) << "quarantine of " << id
                       << " failed: cannot create " << quarantine.string()
                       << ": " << ec.message();
    return;
  }
  // Never clobber an earlier forensic copy: a second rot event for the same
  // id (e.g. after a read-repair healed the primary and it rotted again) is
  // independent evidence. Number the extras <id>.1, <id>.2, ...
  fs::path dest = quarantine / id;
  for (int suffix = 1; fs::exists(dest, ec); ++suffix) {
    dest = quarantine / (id + "." + std::to_string(suffix));
  }
  fs::rename(PathFor(id), dest, ec);
  if (ec) {
    quarantine_errors_->Increment();
    DASPOS_LOG(kError) << "quarantine of " << id << " failed: rename to "
                       << dest.string() << ": " << ec.message();
  }
}

Result<FileObjectStore::VerifiedStat> FileObjectStore::StatFingerprint(
    const std::string& path) {
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  if (ec) return Status::NotFound("cannot stat: " + path);
  auto mtime = fs::last_write_time(path, ec);
  if (ec) return Status::NotFound("cannot stat: " + path);
  VerifiedStat fp;
  fp.size = static_cast<uint64_t>(size);
  fp.mtime_ns = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());
  return fp;
}

bool FileObjectStore::CacheMatches(const std::string& id,
                                   const VerifiedStat& current) const {
  MutexLock lock(cache_mutex_);
  auto it = verified_.find(id);
  if (it == verified_.end()) return false;
  if (it->second == current) return true;
  // The file changed behind the cache: the old verdict is worthless. Drop
  // it here so even an aborted read leaves no stale entry.
  verified_.erase(it);
  cache_invalidations_->Increment();
  return false;
}

void FileObjectStore::CacheStore(const std::string& id,
                                 const VerifiedStat& fp) const {
  MutexLock lock(cache_mutex_);
  verified_.insert_or_assign(id, fp);
}

void FileObjectStore::CacheDrop(const std::string& id) const {
  MutexLock lock(cache_mutex_);
  if (verified_.erase(id) > 0) cache_invalidations_->Increment();
}

Result<std::string> FileObjectStore::Put(std::string_view bytes) {
  Span span("archive:put", "archive");
  span.AddAttribute("bytes", static_cast<uint64_t>(bytes.size()));
  WallTimer timer;
  Result<std::string> result = PutImpl(bytes);
  put_total_->Increment();
  if (result.ok()) {
    put_bytes_total_->Increment(static_cast<uint64_t>(bytes.size()));
  }
  put_wall_ms_->Observe(timer.ElapsedMillis());
  return result;
}

Result<std::string> FileObjectStore::PutImpl(std::string_view bytes) {
  std::string id = Sha256::HashHex(bytes);
  std::string path = PathFor(id);
  // Skip the write only when the existing copy is intact, so re-putting
  // good bytes heals a rotted object (Verify quarantines the bad copy).
  if (FileExists(path) && Verify(id).ok()) return id;
  DASPOS_RETURN_IF_ERROR(AtomicWriteFile(path, bytes));
  // A write replaces whatever the cache knew about this id; the next read
  // re-verifies the published copy from scratch.
  CacheDrop(id);
  return id;
}

Result<std::string> FileObjectStore::Get(const std::string& id) const {
  Span span("archive:get", "archive");
  WallTimer timer;
  Result<std::string> result = GetImpl(id);
  get_total_->Increment();
  if (result.ok()) {
    uint64_t bytes = static_cast<uint64_t>(result.value().size());
    get_bytes_total_->Increment(bytes);
    span.AddAttribute("bytes", bytes);
  }
  get_wall_ms_->Observe(timer.ElapsedMillis());
  return result;
}

Result<std::string> FileObjectStore::GetImpl(const std::string& id) const {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  std::string path = PathFor(id);
  // Warm path: a previous successful hash check recorded this exact
  // {size, mtime}. If the stat still matches, skip the re-hash and only
  // read the bytes. The fingerprint is taken BEFORE the read, so a writer
  // racing the read can only make the next lookup conservative (re-hash),
  // never let stale bytes through unverified.
  auto fp = StatFingerprint(path);
  if (fp.ok() && CacheMatches(id, *fp)) {
    auto read = ReadFileToString(path);
    if (read.ok()) {
      cache_hits_->Increment();
      return read;
    }
    // The file vanished between stat and read; fall through to the cold
    // path for a coherent NotFound.
    CacheDrop(id);
  }
  // Cold path: one streaming pass reads and hashes together. Bytes that no
  // longer hash to their id must never reach a consumer: the rotted blob is
  // moved aside so future reads fail fast and the linter can report it
  // (A006).
  std::string hex;
  auto read = ReadFileHashed(path, &hex);
  if (!read.ok()) return Status::NotFound("object " + id + " not in store");
  if (hex != id) {
    Quarantine(id);
    return Status::Corruption("fixity mismatch for object " + id +
                              " (moved to quarantine)");
  }
  cache_misses_->Increment();
  if (fp.ok()) CacheStore(id, *fp);
  return read;
}

bool FileObjectStore::Has(const std::string& id) const {
  return ValidateObjectId(id).ok() && FileExists(PathFor(id));
}

Status FileObjectStore::Verify(const std::string& id) const {
  Span span("archive:verify", "archive");
  verify_total_->Increment();
  return VerifyImpl(id);
}

Status FileObjectStore::VerifyImpl(const std::string& id) const {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  std::string path = PathFor(id);
  // An audit is the authority the cache defers to, so it must always hash
  // the real bytes — never trust (or consult) the cache.
  auto fp = StatFingerprint(path);
  auto hex = HashFileHex(path);
  if (!hex.ok()) return Status::NotFound("object " + id + " not in store");
  if (*hex != id) {
    Quarantine(id);
    return Status::Corruption("fixity mismatch for object " + id +
                              " (moved to quarantine)");
  }
  // A clean audit refreshes the cache for free.
  if (fp.ok()) CacheStore(id, *fp);
  return Status::OK();
}

void FileObjectStore::CountWalkError(const std::string& what,
                                     const std::error_code& ec) const {
  walk_errors_->Increment();
  DASPOS_LOG(kError) << "object-store walk error at " << what << ": "
                     << ec.message();
}

Status FileObjectStore::ForEachId(
    const std::function<Status(const std::string&)>& fn) const {
  std::error_code ec;
  // A root that does not exist yet is a legitimately empty store (nothing
  // was ever Put); a root that exists but cannot be iterated is an error —
  // reporting it as "empty" would let a fixity audit pass vacuously. The
  // error code decides, not a second lookup: a concurrent first Put may
  // create the root in between.
  fs::directory_iterator root_it(root_, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) return Status::OK();
    CountWalkError(root_, ec);
    return Status::IOError("object store root unreadable: " + root_);
  }
  std::vector<std::string> shards;
  for (const auto& shard : root_it) {
    if (!shard.is_directory()) continue;
    std::string prefix = shard.path().filename().string();
    if (IsShardName(prefix)) shards.push_back(std::move(prefix));
  }
  std::sort(shards.begin(), shards.end());
  // Shard names are the first two id characters, so walking shards in name
  // order and sorting within each shard yields globally ascending ids while
  // holding only one shard's names (~1/256th of the store) at a time.
  Status walk = Status::OK();
  std::vector<std::string> batch;
  for (const std::string& prefix : shards) {
    const std::string shard_path = root_ + "/" + prefix;
    fs::directory_iterator shard_it(shard_path, ec);
    if (ec) {
      CountWalkError(shard_path, ec);
      if (walk.ok()) {
        walk = Status::IOError("object store shard unreadable: " + shard_path);
      }
      continue;
    }
    batch.clear();
    for (const auto& entry : shard_it) {
      if (!entry.is_regular_file()) continue;
      std::string id = prefix + entry.path().filename().string();
      // An in-flight Put's temp file (<id>.tmp.*) shares the shard, but it
      // is not an object until the rename publishes it.
      if (ValidateObjectId(id).ok()) batch.push_back(std::move(id));
    }
    std::sort(batch.begin(), batch.end());
    for (const std::string& id : batch) {
      DASPOS_RETURN_IF_ERROR(fn(id));
    }
  }
  return walk;
}

uint64_t FileObjectStore::TotalBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  fs::directory_iterator root_it(root_, ec);
  if (ec) {
    if (ec != std::errc::no_such_file_or_directory) CountWalkError(root_, ec);
    return total;
  }
  for (const auto& shard : root_it) {
    if (!shard.is_directory()) continue;
    const std::string prefix = shard.path().filename().string();
    if (!IsShardName(prefix)) continue;
    fs::directory_iterator shard_it(shard.path(), ec);
    if (ec) {
      CountWalkError(shard.path().string(), ec);
      continue;
    }
    for (const auto& entry : shard_it) {
      if (!entry.is_regular_file()) continue;
      if (!ValidateObjectId(prefix + entry.path().filename().string()).ok()) {
        continue;  // an in-flight Put's temp file, as in ForEachId
      }
      uintmax_t size = entry.file_size(ec);
      if (ec) {
        // file_size's error value is uintmax_t(-1); adding it would turn an
        // unstattable blob into a wildly wrong total instead of an error.
        CountWalkError(entry.path().string(), ec);
        ec.clear();
        continue;
      }
      total += static_cast<uint64_t>(size);
    }
  }
  return total;
}

std::vector<std::string> FileObjectStore::QuarantinedIds() const {
  std::vector<std::string> out;
  std::error_code ec;
  const fs::path quarantine = fs::path(root_) / "quarantine";
  fs::directory_iterator it(quarantine, ec);
  if (ec) {
    // No quarantine directory means nothing was ever quarantined; an
    // existing-but-unreadable one hides rotted blobs from the linter.
    if (ec != std::errc::no_such_file_or_directory) {
      CountWalkError(quarantine.string(), ec);
    }
    return out;
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    // Numbered forensic copies (`<id>.1`, `<id>.2`, ...) report as their
    // base id: callers care which objects rotted, not how many times.
    std::string name = entry.path().filename().string();
    size_t dot = name.find('.');
    if (dot != std::string::npos) name.resize(dot);
    out.push_back(std::move(name));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace daspos
