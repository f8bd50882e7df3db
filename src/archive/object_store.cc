#include "archive/object_store.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "support/io.h"
#include "support/logging.h"
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
  DASPOS_RETURN_IF_ERROR(Verify(id, &bytes));
  return bytes;
}

Status MemoryObjectStore::Verify(const std::string& id,
                                 std::string* bytes) const {
  std::string copy;
  {
    MutexLock lock(mutex_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + id + " not in store");
    }
    copy = it->second;
  }
  // Bytes that no longer hash to their id must never reach a consumer.
  if (Sha256::HashHex(copy) != id) {
    return Status::Corruption("fixity mismatch for object " + id);
  }
  if (bytes != nullptr) *bytes = std::move(copy);
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

Result<uint64_t> MemoryObjectStore::TotalBytes() const {
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
  put_total_ = &registry.GetCounter(kArchivePutTotal);
  get_total_ = &registry.GetCounter(kArchiveGetTotal);
  verify_total_ = &registry.GetCounter(kArchiveVerifyTotal);
  put_bytes_total_ = &registry.GetCounter(kArchivePutBytesTotal);
  get_bytes_total_ = &registry.GetCounter(kArchiveGetBytesTotal);
  quarantines_ = &registry.GetCounter(kArchiveQuarantinesTotal);
  quarantine_errors_ = &registry.GetCounter(kArchiveQuarantineErrorsTotal);
  walk_errors_ = &registry.GetCounter(kArchiveWalkErrorsTotal);
  get_wall_ms_ = &registry.GetHistogram(kArchiveGetWallMs);
  put_wall_ms_ = &registry.GetHistogram(kArchivePutWallMs);
}

std::string FileObjectStore::PathFor(const std::string& id) const {
  return root_ + "/" + id.substr(0, 2) + "/" + id.substr(2);
}

Status FileObjectStore::Quarantine(const std::string& id,
                                   const std::string& reason) {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  quarantines_->Increment();
  auto fail = [&](const std::string& what, const std::error_code& ec) {
    quarantine_errors_->Increment();
    DASPOS_LOG(kError) << "quarantine of " << id << " (" << reason
                       << ") failed: " << what << ": " << ec.message();
    return Status::IOError("quarantine of object " + id + " failed: " + what +
                           ": " + ec.message());
  };
  std::error_code ec;
  const fs::path quarantine = fs::path(root_) / "quarantine";
  fs::create_directories(quarantine, ec);
  if (ec) return fail("cannot create " + quarantine.string(), ec);
  // Never clobber an earlier forensic copy: a second rot event for the same
  // id (e.g. after a read-repair healed the primary and it rotted again) is
  // independent evidence. Number the extras <id>.1, <id>.2, ...
  fs::path dest = quarantine / id;
  for (int suffix = 1; fs::exists(dest, ec); ++suffix) {
    dest = quarantine / (id + "." + std::to_string(suffix));
  }
  fs::rename(PathFor(id), dest, ec);
  if (ec) return fail("rename to " + dest.string(), ec);
  return Status::OK();
}

Result<std::string> FileObjectStore::Put(std::string_view bytes) {
  Span span("archive:put", "archive", put_wall_ms_);
  span.AddAttribute("bytes", static_cast<uint64_t>(bytes.size()));
  Result<std::string> result = PutImpl(bytes);
  put_total_->Increment();
  if (result.ok()) {
    put_bytes_total_->Increment(static_cast<uint64_t>(bytes.size()));
  }
  return result;
}

Result<std::string> FileObjectStore::PutImpl(std::string_view bytes) {
  std::string id = Sha256::HashHex(bytes);
  std::string path = PathFor(id);
  // Skip the write only when the existing copy is intact, so re-putting
  // good bytes overwrites a rotted copy and heals the object.
  if (FileExists(path) && Verify(id).ok()) return id;
  DASPOS_RETURN_IF_ERROR(AtomicWriteFile(path, bytes));
  return id;
}

Result<std::string> FileObjectStore::Get(const std::string& id) const {
  Span span("archive:get", "archive", get_wall_ms_);
  std::string bytes;
  Status read = ProvingRead(id, &bytes);
  get_total_->Increment();
  if (!read.ok()) return read;
  get_bytes_total_->Increment(static_cast<uint64_t>(bytes.size()));
  span.AddAttribute("bytes", static_cast<uint64_t>(bytes.size()));
  return bytes;
}

Status FileObjectStore::Verify(const std::string& id,
                               std::string* bytes) const {
  Span span("archive:verify", "archive");
  verify_total_->Increment();
  return ProvingRead(id, bytes);
}

Status FileObjectStore::ProvingRead(const std::string& id,
                                    std::string* bytes) const {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  // One streaming pass reads and hashes together; without `bytes` it keeps
  // nothing. Bytes that no longer hash to their id never reach a consumer.
  Sha256 hasher;
  std::string read;
  if (!StreamFile(PathFor(id), hasher, bytes != nullptr ? &read : nullptr)
           .ok()) {
    return Status::NotFound("object " + id + " not in store");
  }
  if (hasher.HexDigest() != id) {
    return Status::Corruption("fixity mismatch for object " + id);
  }
  if (bytes != nullptr) *bytes = std::move(read);
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

Result<uint64_t> FileObjectStore::TotalBytes() const {
  uint64_t total = 0;
  DASPOS_RETURN_IF_ERROR(ForEachId([&](const std::string& id) {
    std::error_code ec;
    const std::string path = PathFor(id);
    const uintmax_t size = fs::file_size(path, ec);
    // A blob quarantined since the walk listed it is no longer held.
    if (ec == std::errc::no_such_file_or_directory) return Status::OK();
    if (ec) {
      CountWalkError(path, ec);
      return Status::IOError("object store blob unstattable: " + path);
    }
    total += static_cast<uint64_t>(size);
    return Status::OK();
  }));
  return total;
}

Result<std::vector<std::string>> FileObjectStore::QuarantinedIds() const {
  std::vector<std::string> out;
  std::error_code ec;
  const fs::path quarantine = fs::path(root_) / "quarantine";
  fs::directory_iterator it(quarantine, ec);
  if (ec) {
    // No quarantine directory means nothing was ever quarantined; an
    // existing-but-unreadable one would hide rotted blobs from the linter.
    if (ec == std::errc::no_such_file_or_directory) return out;
    CountWalkError(quarantine.string(), ec);
    return Status::IOError("object store quarantine unreadable: " +
                           quarantine.string());
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
