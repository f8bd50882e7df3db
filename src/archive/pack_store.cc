#include "archive/pack_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "serialize/json.h"
#include "support/checksum.h"
#include "support/compress.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "support/trace.h"

namespace daspos {

namespace fs = std::filesystem;

namespace {

constexpr char kQuarantineLog[] = "quarantine.jsonl";
constexpr uint32_t kPackFormatVersion = 1;

// Explicit little-endian encode/decode: the on-disk format must be stable
// across hosts, so no memcpy-of-native-integers here.
void PutU32(char* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void PutU64(char* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

uint32_t GetU32(const char* in) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

uint64_t GetU64(const char* in) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

std::string RawToHex(const char* raw) {
  static const char kHex[] = "0123456789abcdef";
  std::string out(64, '0');
  for (size_t i = 0; i < 32; ++i) {
    unsigned char byte = static_cast<unsigned char>(raw[i]);
    out[2 * i] = kHex[byte >> 4];
    out[2 * i + 1] = kHex[byte & 0x0f];
  }
  return out;
}

/// `id` must already be a validated 64-char lowercase-hex object id.
void HexToRaw(const std::string& id, char* out) {
  auto nibble = [](char c) -> unsigned {
    return c <= '9' ? static_cast<unsigned>(c - '0')
                    : static_cast<unsigned>(c - 'a') + 10;
  };
  for (size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<char>((nibble(id[2 * i]) << 4) |
                               nibble(id[2 * i + 1]));
  }
}

/// True when `header` (a record header) carries the record magic and
/// names `id`, a validated object id.
bool HeaderNames(const char* header, const std::string& id) {
  char raw[32];
  HexToRaw(id, raw);
  return std::memcmp(header, kPackRecordMagic, sizeof(kPackRecordMagic)) ==
             0 &&
         std::memcmp(header + kPackRecordIdOffset, raw, sizeof(raw)) == 0;
}

/// What every failed read gate returns: the object and the reason.
Status RecordRot(const std::string& id, const std::string& reason) {
  return Status::Corruption("fixity mismatch for object " + id + " (" +
                            reason + ")");
}

/// True when the raw bytes of `stored` (decompressed when `compressed`)
/// are `raw_len` long and hash to `id`.
bool PayloadHashesTo(std::string_view stored, bool compressed,
                     uint64_t raw_len, const std::string& id) {
  if (!compressed) return Sha256::HashHex(stored) == id;
  auto raw = Decompress(stored);
  return raw.ok() && raw->size() == raw_len && Sha256::HashHex(*raw) == id;
}

}  // namespace

PackObjectStore::PackObjectStore(std::string root, PackOptions options)
    : root_(std::move(root)), options_(options) {
  using namespace metric_names;
  MetricsRegistry& registry = MetricsRegistry::Global();
  appends_total_ = &registry.GetCounter(kPackAppendsTotal);
  append_bytes_total_ = &registry.GetCounter(kPackAppendBytesTotal);
  reads_total_ = &registry.GetCounter(kPackReadsTotal);
  read_bytes_total_ = &registry.GetCounter(kPackReadBytesTotal);
  mmap_reads_total_ = &registry.GetCounter(kPackMmapReadsTotal);
  compressed_total_ = &registry.GetCounter(kPackCompressedBlobsTotal);
  compression_saved_bytes_ =
      &registry.GetCounter(kPackCompressionSavedBytesTotal);
  checksum_failures_ = &registry.GetCounter(kPackChecksumFailuresTotal);
  index_rebuilds_ = &registry.GetCounter(kPackIndexRebuildsTotal);
  torn_records_ = &registry.GetCounter(kPackTornRecordsTotal);
  segments_created_ = &registry.GetCounter(kPackSegmentsCreatedTotal);
  quarantines_ = &registry.GetCounter(kPackQuarantinesTotal);
  // Op latency lands in the shared archive histograms: they time store-level
  // Get/Put regardless of which backend served them.
  get_wall_ms_ = &registry.GetHistogram(kArchiveGetWallMs);
  put_wall_ms_ = &registry.GetHistogram(kArchivePutWallMs);
  Open();
}

PackObjectStore::~PackObjectStore() {
  Status sealed = Flush();
  if (!sealed.ok()) {
    // Losing the seal costs a rebuild scan on next open, never data.
    DASPOS_LOG(kWarning) << "pack store close without seal: "
                         << sealed.ToString();
  }
  MutexLock lock(mutex_);
  for (const auto& [segment, fd] : segment_fds_) {
    (void)segment;
    ::close(fd);
  }
  segment_fds_.clear();
}

std::string PackObjectStore::SegmentPath(uint32_t segment) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%06u.seg", segment);
  return root_ + "/segments/" + name;
}

std::string PackObjectStore::IndexPath(uint32_t segment) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%06u.idx", segment);
  return root_ + "/segments/" + name;
}

void PackObjectStore::Open() {
  MutexLock lock(mutex_);
  const std::string segments_dir = root_ + "/segments";
  std::error_code ec;
  fs::create_directories(segments_dir, ec);
  if (ec) {
    open_status_ = Status::IOError("cannot create pack store at " + root_ +
                                   ": " + ec.message());
    DASPOS_LOG(kError) << open_status_.ToString();
    return;
  }
  // Enumerate NNNNNN.seg files; anything else in segments/ is ignored.
  std::vector<uint32_t> segments;
  for (const auto& entry : fs::directory_iterator(segments_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() < 5 || name.substr(name.size() - 4) != ".seg") continue;
    auto number = ParseU64(name.substr(0, name.size() - 4));
    if (!number.ok() || *number > 0xffffffffull) continue;
    segments.push_back(static_cast<uint32_t>(*number));
  }
  if (ec) {
    open_status_ =
        Status::IOError("cannot list pack segments: " + ec.message());
    DASPOS_LOG(kError) << open_status_.ToString();
    return;
  }
  std::sort(segments.begin(), segments.end());
  // Ascending replay: a later record for the same id supersedes an earlier
  // one, which is how re-Put heals rot without rewriting sealed segments.
  for (size_t i = 0; i < segments.size(); ++i) {
    const uint32_t segment = segments[i];
    uint64_t size = static_cast<uint64_t>(
        fs::file_size(SegmentPath(segment), ec));
    if (ec) {
      open_status_ = Status::IOError("cannot stat " + SegmentPath(segment) +
                                     ": " + ec.message());
      DASPOS_LOG(kError) << open_status_.ToString();
      return;
    }
    if (!LoadIndex(segment, size).ok()) {
      // Missing or invalid sidecar: the segment log is the ground truth.
      // Only the tail segment may have a torn tail truncated away — a bad
      // stretch inside an older sealed segment is rot, and its bytes stay
      // in place as evidence.
      index_rebuilds_->Increment();
      Status scanned = ScanSegment(segment, i + 1 == segments.size());
      if (!scanned.ok()) {
        open_status_ = scanned;
        DASPOS_LOG(kError) << open_status_.ToString();
        return;
      }
    }
  }
  next_segment_ = segments.empty() ? 0 : segments.back() + 1;
  segment_count_ = segments.size();
  ReplayQuarantineLog();
}

Status PackObjectStore::LoadIndex(uint32_t segment, uint64_t segment_size) {
  auto text = ReadFileToString(IndexPath(segment));
  if (!text.ok()) return text.status();
  const std::string& data = *text;
  if (data.size() < kPackIndexHeaderSize ||
      std::memcmp(data.data(), kPackIndexMagic, sizeof(kPackIndexMagic)) !=
          0 ||
      GetU32(data.data() + 8) != kPackFormatVersion) {
    return Status::Corruption("bad pack index header: " + IndexPath(segment));
  }
  const uint64_t count = GetU32(data.data() + 12);
  if (data.size() != kPackIndexHeaderSize + count * kPackIndexEntrySize) {
    return Status::Corruption("pack index size mismatch: " +
                              IndexPath(segment));
  }
  // Validate the whole sidecar before committing any entry: a half-loaded
  // index must not leave stray entries that the rebuild scan would miss.
  std::vector<std::pair<std::string, Entry>> parsed;
  parsed.reserve(count);
  std::string previous_id;
  for (uint64_t i = 0; i < count; ++i) {
    const char* record =
        data.data() + kPackIndexHeaderSize + i * kPackIndexEntrySize;
    Entry entry;
    entry.segment = segment;
    entry.offset = GetU64(record + 32);
    entry.raw_len = GetU64(record + 40);
    entry.stored_len = GetU64(record + 48);
    entry.checksum = GetU64(record + 56);
    entry.flags = static_cast<uint8_t>(record[64]);
    std::string id = RawToHex(record);
    if (i > 0 && previous_id >= id) {
      return Status::Corruption("unsorted pack index: " + IndexPath(segment));
    }
    if ((entry.flags & ~kPackFlagCompressed) != 0 ||
        entry.offset < kPackSegmentHeaderSize + kPackRecordHeaderSize ||
        entry.offset > segment_size ||
        entry.stored_len > segment_size - entry.offset ||
        (!(entry.flags & kPackFlagCompressed) &&
         entry.raw_len != entry.stored_len)) {
      return Status::Corruption("invalid pack index entry: " +
                                IndexPath(segment));
    }
    previous_id = id;
    parsed.emplace_back(std::move(id), entry);
  }
  for (auto& [id, entry] : parsed) {
    index_.insert_or_assign(std::move(id), entry);
  }
  return Status::OK();
}

Status PackObjectStore::ScanSegment(uint32_t segment,
                                    bool truncate_torn_tail) {
  const std::string path = SegmentPath(segment);
  uint64_t valid_end = 0;
  uint64_t file_size = 0;
  {
    auto mapped = MemoryMappedFile::Open(path);
    if (!mapped.ok()) return mapped.status();
    std::string_view data = mapped->view();
    file_size = data.size();
    if (data.size() >= kPackSegmentHeaderSize &&
        std::memcmp(data.data(), kPackSegmentMagic,
                    sizeof(kPackSegmentMagic)) == 0 &&
        GetU32(data.data() + 8) == kPackFormatVersion) {
      uint64_t offset = kPackSegmentHeaderSize;
      valid_end = offset;
      while (offset + kPackRecordHeaderSize <= data.size()) {
        const char* header = data.data() + offset;
        if (std::memcmp(header, kPackRecordMagic, sizeof(kPackRecordMagic)) !=
            0) {
          break;
        }
        Entry entry;
        entry.segment = segment;
        entry.flags =
            static_cast<uint8_t>(header[kPackRecordFlagsOffset]);
        entry.raw_len = GetU64(header + kPackRecordRawLenOffset);
        entry.stored_len = GetU64(header + kPackRecordStoredLenOffset);
        entry.checksum = GetU64(header + kPackRecordChecksumOffset);
        entry.offset = offset + kPackRecordHeaderSize;
        if ((entry.flags & ~kPackFlagCompressed) != 0) break;
        if (entry.stored_len > data.size() - entry.offset) break;
        if (!(entry.flags & kPackFlagCompressed) &&
            entry.raw_len != entry.stored_len) {
          break;
        }
        // Checksum every payload during the scan: a record is only
        // re-indexed if its bytes still verify, so a torn write can never
        // resurrect as a servable object.
        std::string_view payload =
            data.substr(entry.offset, entry.stored_len);
        if (Checksum64(payload) != entry.checksum) break;
        // The checksum does not cover the header, so only SHA-256 binds the
        // header's id to the payload. A record whose id rotted is skipped
        // (its framing held, so the scan goes on) rather than indexed under
        // another object's name.
        std::string id = RawToHex(header + kPackRecordIdOffset);
        if (PayloadHashesTo(payload, entry.flags & kPackFlagCompressed,
                            entry.raw_len, id)) {
          index_.insert_or_assign(std::move(id), entry);
        } else {
          DASPOS_LOG(kError) << "pack segment " << path << ": record at "
                             << offset << " does not hash to its header id "
                             << id << "; skipped";
        }
        offset = entry.offset + entry.stored_len;
        valid_end = offset;
      }
    }
  }
  if (valid_end < file_size) {
    if (!truncate_torn_tail) {
      DASPOS_LOG(kError) << "pack segment " << path << " has "
                         << (file_size - valid_end)
                         << " unreadable byte(s) at offset " << valid_end
                         << " (sealed segment: left in place as evidence)";
      return Status::OK();
    }
    torn_records_->Increment();
    DASPOS_LOG(kWarning) << "pack segment " << path
                         << ": dropping torn tail at offset " << valid_end
                         << " (" << (file_size - valid_end) << " byte(s))";
    if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
      return Status::IOError("cannot truncate torn pack tail: " + path +
                             ": " + std::strerror(errno));
    }
  }
  return Status::OK();
}

void PackObjectStore::ReplayQuarantineLog() {
  auto text = ReadFileToString(root_ + "/" + kQuarantineLog);
  if (!text.ok()) return;
  // Replay stops at the first line that is not a valid record
  // (ParseJsonLines): everything before a crash-truncated tail is usable.
  for (const Json& line : ParseJsonLines(*text)) {
    const Json& id_json = line.Get("id");
    std::optional<uint64_t> segment = line.Get("segment").as_uint();
    std::optional<uint64_t> offset = line.Get("offset").as_uint();
    if (!id_json.is_string() || !segment || !offset ||
        *segment > std::numeric_limits<uint32_t>::max()) {
      break;
    }
    const std::string id = id_json.as_string();
    quarantine_log_.insert(id);
    auto it = index_.find(id);
    // The quarantine only stands while the index still points at the exact
    // record it condemned; a later record for the same id is a heal.
    if (it != index_.end() && it->second.segment == *segment &&
        it->second.offset == *offset) {
      index_.erase(it);
    }
  }
}

PackObjectStore::Prepared PackObjectStore::PrepareBlob(
    std::string_view bytes) const {
  Prepared prepared;
  prepared.id = Sha256::HashHex(bytes);
  prepared.raw_len = bytes.size();
  if (options_.compress) {
    std::string packed = Compress(bytes);
    // Store compressed only when it wins; incompressible blobs stay raw so
    // reads never pay a pointless decompression pass.
    if (packed.size() < bytes.size()) {
      prepared.stored = std::move(packed);
      prepared.flags = kPackFlagCompressed;
    }
  }
  if (prepared.flags == 0) prepared.stored.assign(bytes);
  prepared.checksum = Checksum64(prepared.stored);
  return prepared;
}

Status PackObjectStore::EnsureActiveSegmentLocked(bool force_new) {
  if (has_active_) return Status::OK();
  DASPOS_RETURN_IF_ERROR(open_status_);
  const std::string segments_dir = root_ + "/segments";
  if (!force_new && next_segment_ > 0 &&
      retired_segments_.count(static_cast<uint32_t>(next_segment_ - 1)) ==
          0) {
    const uint32_t tail = static_cast<uint32_t>(next_segment_ - 1);
    std::error_code ec;
    uint64_t size =
        static_cast<uint64_t>(fs::file_size(SegmentPath(tail), ec));
    if (!ec && size < options_.max_segment_bytes) {
      // Unseal the tail: dropping the sidecar first keeps the invariant
      // that only segments without a .idx ever grow — a crash after the
      // unlink just means a rebuild scan on next open.
      DASPOS_RETURN_IF_ERROR(RemoveFile(IndexPath(tail)));
      // Any cached mapping of the tail was made at its sealed size and
      // goes stale the moment the segment grows: retire it now so reads
      // of records appended past the old size remap instead of mistaking
      // the short view for a truncated record.
      RetireMappingLocked(tail);
      auto it = segment_fds_.find(tail);
      if (it == segment_fds_.end()) {
        int fd = ::open(SegmentPath(tail).c_str(),
                        O_RDWR | O_APPEND | O_CLOEXEC);
        if (fd < 0) {
          return Status::IOError("cannot open pack segment for append: " +
                                 SegmentPath(tail) + ": " +
                                 std::strerror(errno));
        }
        it = segment_fds_.emplace(tail, fd).first;
      }
      if (size < kPackSegmentHeaderSize) {
        // Tail recovery truncated the segment to zero (torn header): stamp
        // a fresh header before the first record.
        char header[kPackSegmentHeaderSize] = {};
        std::memcpy(header, kPackSegmentMagic, sizeof(kPackSegmentMagic));
        PutU32(header + 8, kPackFormatVersion);
        Status stamped =
            WriteAll(it->second, std::string_view(header, sizeof(header)),
                     SegmentPath(tail));
        if (!stamped.ok()) {
          // Cut a partial header away so the next attempt (or a rebuild
          // scan) starts from a clean prefix; the segment stays inactive.
          if (::ftruncate(it->second, static_cast<off_t>(size)) != 0) {
            retired_segments_.insert(tail);
          }
          return stamped;
        }
        size = kPackSegmentHeaderSize;
      }
      active_segment_ = tail;
      active_size_ = size;
      has_active_ = true;
      return Status::OK();
    }
  }
  const uint32_t segment = static_cast<uint32_t>(next_segment_);
  const std::string path = SegmentPath(segment);
  int fd = ::open(path.c_str(),
                  O_RDWR | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create pack segment: " + path + ": " +
                           std::strerror(errno));
  }
  char header[kPackSegmentHeaderSize] = {};
  std::memcpy(header, kPackSegmentMagic, sizeof(kPackSegmentMagic));
  PutU32(header + 8, kPackFormatVersion);
  Status written =
      WriteAll(fd, std::string_view(header, sizeof(header)), path);
  if (written.ok()) written = FsyncFile(fd, path);
  // The file NAME must survive a crash too, not just its bytes.
  if (written.ok()) written = FsyncDir(segments_dir);
  if (!written.ok()) {
    // Remove the stillborn (at most header-only, record-free) file: it
    // would otherwise block the O_EXCL create of the same number forever.
    ::close(fd);
    (void)::unlink(path.c_str());
    return written;
  }
  segment_fds_.emplace(segment, fd);
  next_segment_ = segment + 1;
  active_segment_ = segment;
  active_size_ = kPackSegmentHeaderSize;
  has_active_ = true;
  ++segment_count_;
  segments_created_->Increment();
  return Status::OK();
}

void PackObjectStore::RepairActiveTailLocked() {
  auto it = segment_fds_.find(active_segment_);
  if (it != segment_fds_.end() &&
      ::ftruncate(it->second, static_cast<off_t>(active_size_)) == 0) {
    // Back at the last known-good offset: the segment keeps accepting
    // appends and every index entry still points where it should.
    return;
  }
  DASPOS_LOG(kError) << "pack segment " << SegmentPath(active_segment_)
                     << ": cannot cut tail back to " << active_size_
                     << " after failed append; retiring segment from "
                        "appending";
  retired_segments_.insert(active_segment_);
  has_active_ = false;
}

Status PackObjectStore::AppendLocked(const Prepared& blob) {
  DASPOS_RETURN_IF_ERROR(EnsureActiveSegmentLocked());
  const uint64_t need = kPackRecordHeaderSize + blob.stored.size();
  if (active_size_ > kPackSegmentHeaderSize &&
      active_size_ + need > options_.max_segment_bytes) {
    // Roll over: seal the full segment (records first, then sidecar) and
    // start a fresh one. An over-sized single blob still lands alone in its
    // own segment rather than being refused.
    DASPOS_RETURN_IF_ERROR(FlushLocked());
    DASPOS_RETURN_IF_ERROR(EnsureActiveSegmentLocked(/*force_new=*/true));
  }
  auto fd_it = segment_fds_.find(active_segment_);
  if (fd_it == segment_fds_.end()) {
    return Status::IOError("pack append: active segment fd missing");
  }
  const std::string path = SegmentPath(active_segment_);
  char header[kPackRecordHeaderSize] = {};
  std::memcpy(header, kPackRecordMagic, sizeof(kPackRecordMagic));
  header[kPackRecordFlagsOffset] = static_cast<char>(blob.flags);
  HexToRaw(blob.id, header + kPackRecordIdOffset);
  PutU64(header + kPackRecordRawLenOffset, blob.raw_len);
  PutU64(header + kPackRecordStoredLenOffset, blob.stored.size());
  PutU64(header + kPackRecordChecksumOffset, blob.checksum);
  // Header and payload in one logical append; O_APPEND + the store mutex
  // keep records contiguous.
  Status appended = WriteAll(
      fd_it->second, std::string_view(header, sizeof(header)), path);
  if (appended.ok()) appended = WriteAll(fd_it->second, blob.stored, path);
  if (!appended.ok()) {
    // Partial record bytes may have landed at the true EOF while
    // active_size_ stayed put — without repair, every later append would
    // be indexed at the wrong offset (O_APPEND writes at the kernel's
    // EOF, not ours) and freshly written data would read back corrupt.
    RepairActiveTailLocked();
    return appended;
  }
  Entry entry;
  entry.segment = active_segment_;
  entry.flags = blob.flags;
  entry.offset = active_size_ + kPackRecordHeaderSize;
  entry.raw_len = blob.raw_len;
  entry.stored_len = blob.stored.size();
  entry.checksum = blob.checksum;
  active_size_ += need;
  // A fresh record supersedes a rotted or quarantined one: the re-Put IS
  // the heal (the condemned bytes stay in their sealed segment).
  index_.insert_or_assign(blob.id, entry);
  appends_total_->Increment();
  append_bytes_total_->Increment(blob.stored.size());
  if (blob.flags & kPackFlagCompressed) {
    compressed_total_->Increment();
    compression_saved_bytes_->Increment(blob.raw_len - blob.stored.size());
  }
  return Status::OK();
}

Status PackObjectStore::SyncActiveLocked() {
  if (!has_active_) return Status::OK();
  auto it = segment_fds_.find(active_segment_);
  if (it == segment_fds_.end()) return Status::OK();
  return FsyncFile(it->second, SegmentPath(active_segment_));
}

Status PackObjectStore::FlushLocked() {
  if (!has_active_) return Status::OK();
  // Durability order: records before the index that certifies them.
  DASPOS_RETURN_IF_ERROR(SyncActiveLocked());
  std::vector<const std::pair<const std::string, Entry>*> entries;
  for (const auto& item : index_) {
    if (item.second.segment == active_segment_) entries.push_back(&item);
  }
  // index_ is an ordered map, so `entries` is already sorted by id.
  std::string data(kPackIndexHeaderSize +
                       entries.size() * kPackIndexEntrySize,
                   '\0');
  std::memcpy(data.data(), kPackIndexMagic, sizeof(kPackIndexMagic));
  PutU32(data.data() + 8, kPackFormatVersion);
  PutU32(data.data() + 12, static_cast<uint32_t>(entries.size()));
  for (size_t i = 0; i < entries.size(); ++i) {
    char* out = data.data() + kPackIndexHeaderSize + i * kPackIndexEntrySize;
    const Entry& entry = entries[i]->second;
    HexToRaw(entries[i]->first, out);
    PutU64(out + 32, entry.offset);
    PutU64(out + 40, entry.raw_len);
    PutU64(out + 48, entry.stored_len);
    PutU64(out + 56, entry.checksum);
    out[64] = static_cast<char>(entry.flags);
  }
  DASPOS_RETURN_IF_ERROR(
      AtomicWriteFile(IndexPath(active_segment_), data));
  has_active_ = false;
  return Status::OK();
}

Status PackObjectStore::Flush() {
  MutexLock lock(mutex_);
  return FlushLocked();
}

Result<std::string> PackObjectStore::Put(std::string_view bytes) {
  Span span("pack:put", "archive", put_wall_ms_);
  span.AddAttribute("bytes", static_cast<uint64_t>(bytes.size()));
  Prepared prepared = PrepareBlob(bytes);  // hash + compress outside the lock
  bool have_existing = false;
  Entry existing;
  {
    MutexLock lock(mutex_);
    DASPOS_RETURN_IF_ERROR(open_status_);
    auto it = index_.find(prepared.id);
    if (it != index_.end()) {
      have_existing = true;
      existing = it->second;
    }
  }
  if (have_existing) {
    // Dedupe hit — but only when the existing record is still intact, so
    // re-putting good bytes heals silent rot (parity with the loose
    // backend's Put semantics). The checksum gate is cheap; no SHA needed
    // because identity was established when the record was written. A
    // record that fails it gets a superseding one appended below.
    bool via_mmap = false;
    if (ReadRecord(prepared.id, existing, &via_mmap).ok()) return prepared.id;
  }
  MutexLock lock(mutex_);
  DASPOS_RETURN_IF_ERROR(AppendLocked(prepared));
  DASPOS_RETURN_IF_ERROR(SyncActiveLocked());
  return prepared.id;
}

Result<std::vector<std::string>> PackObjectStore::PutBatch(
    const std::vector<std::string_view>& blobs, ThreadPool* pool) {
  Span span("pack:putbatch", "archive", put_wall_ms_);
  span.AddAttribute("blobs", static_cast<uint64_t>(blobs.size()));
  // Hashing and compression dominate and parallelize perfectly; the
  // appends then serialize under one lock with a single fsync for the
  // whole batch instead of one per blob.
  std::vector<Prepared> prepared = ParallelMap<Prepared>(
      pool, blobs.size(),
      [this, &blobs](size_t i) { return PrepareBlob(blobs[i]); },
      /*grain=*/1);
  // Dedupe with the same read-back gate as Put: an index hit only stands
  // while the existing record still verifies, so a batched re-put of
  // rotted bytes appends a superseding record — scrub backfill and
  // heal paths go through PutBatch and rely on this.
  std::vector<std::pair<bool, Entry>> existing(prepared.size());
  {
    MutexLock lock(mutex_);
    DASPOS_RETURN_IF_ERROR(open_status_);
    for (size_t i = 0; i < prepared.size(); ++i) {
      auto it = index_.find(prepared[i].id);
      if (it != index_.end()) existing[i] = {true, it->second};
    }
  }
  std::vector<uint8_t> rotted = ParallelMap<uint8_t>(
      pool, prepared.size(),
      [this, &prepared, &existing](size_t i) -> uint8_t {
        if (!existing[i].first) return 0;
        bool via_mmap = false;
        return ReadRecord(prepared[i].id, existing[i].second, &via_mmap).ok()
                   ? 0
                   : 1;
      },
      /*grain=*/1);
  std::vector<std::string> ids;
  ids.reserve(prepared.size());
  {
    MutexLock lock(mutex_);
    DASPOS_RETURN_IF_ERROR(open_status_);
    // An id is appended when the index misses it or its record failed the
    // gate (`rotted`). The batch-local set keeps a duplicate of an
    // already-superseded id from appending twice.
    std::set<std::string> appended_now;
    for (size_t i = 0; i < prepared.size(); ++i) {
      const Prepared& blob = prepared[i];
      if (index_.find(blob.id) == index_.end() ||
          (rotted[i] != 0 && appended_now.count(blob.id) == 0)) {
        DASPOS_RETURN_IF_ERROR(AppendLocked(blob));
        appended_now.insert(blob.id);
      }
      ids.push_back(blob.id);
    }
    DASPOS_RETURN_IF_ERROR(SyncActiveLocked());
  }
  return ids;
}

void PackObjectStore::RetireMappingLocked(uint32_t segment) const {
  auto it = mmaps_.find(segment);
  if (it == mmaps_.end()) return;
  // Not destroyed: readers that took a view from this mapping may still be
  // copying out of it without holding the lock.
  retired_mmaps_.push_back(std::move(it->second));
  mmaps_.erase(it);
}

Result<const MemoryMappedFile*> PackObjectStore::SealedMappingLocked(
    uint32_t segment) const {
  auto it = mmaps_.find(segment);
  if (it == mmaps_.end()) {
    auto opened = MemoryMappedFile::Open(SegmentPath(segment));
    if (!opened.ok()) return opened.status();
    it = mmaps_
             .emplace(segment, std::unique_ptr<MemoryMappedFile>(
                                   new MemoryMappedFile(std::move(*opened))))
             .first;
  }
  // Mappings live as long as the store, so the view stays valid after the
  // lock is released.
  return it->second.get();
}

Result<std::string> PackObjectStore::ReadRecord(const std::string& id,
                                                const Entry& entry,
                                                bool* via_mmap) const {
  *via_mmap = false;
  const MemoryMappedFile* mapped = nullptr;
  int fd = -1;
  {
    MutexLock lock(mutex_);
    if (has_active_ && entry.segment == active_segment_) {
      // The active segment still grows; pread on its fd instead of chasing
      // a moving mapping.
      auto it = segment_fds_.find(entry.segment);
      if (it == segment_fds_.end()) {
        return Status::IOError("pack read: active segment fd missing");
      }
      fd = it->second;
    } else {
      DASPOS_ASSIGN_OR_RETURN(mapped, SealedMappingLocked(entry.segment));
    }
  }
  // The header sits right before the payload; index and scan offsets
  // always leave room for it.
  const uint64_t header_offset = entry.offset - kPackRecordHeaderSize;
  std::string buffer;
  std::string_view header;
  std::string_view stored;
  if (mapped != nullptr) {
    std::string_view view = mapped->view();
    bool in_bounds = entry.offset <= view.size() &&
                     entry.stored_len <= view.size() - entry.offset;
    if (!in_bounds) {
      // A mapping cached before this segment was unsealed and grown is
      // shorter than the file; remap at the current size before concluding
      // the record itself is truncated — a stale view would report
      // perfectly healthy data as rotted.
      {
        MutexLock lock(mutex_);
        auto it = mmaps_.find(entry.segment);
        if (it != mmaps_.end() && it->second->view().size() <= view.size()) {
          RetireMappingLocked(entry.segment);
        }
        DASPOS_ASSIGN_OR_RETURN(mapped, SealedMappingLocked(entry.segment));
      }
      view = mapped->view();
      in_bounds = entry.offset <= view.size() &&
                  entry.stored_len <= view.size() - entry.offset;
    }
    if (!in_bounds) return RecordRot(id, "index points past segment end");
    // Zero-copy: checksum and decompression read straight from the page
    // cache through the mapping; no read buffer is ever allocated.
    header = view.substr(header_offset, kPackRecordHeaderSize);
    stored = view.substr(entry.offset, entry.stored_len);
    *via_mmap = true;
  } else {
    // One pread for the header and the payload together.
    buffer.resize(kPackRecordHeaderSize + entry.stored_len);
    size_t done = 0;
    while (done < buffer.size()) {
      ssize_t got = ::pread(fd, buffer.data() + done, buffer.size() - done,
                            static_cast<off_t>(header_offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("pack pread failed: " +
                               SegmentPath(entry.segment) + ": " +
                               std::strerror(errno));
      }
      if (got == 0) return RecordRot(id, "record ends past segment end");
      done += static_cast<size_t>(got);
    }
    header = std::string_view(buffer).substr(0, kPackRecordHeaderSize);
    stored = std::string_view(buffer).substr(kPackRecordHeaderSize);
  }
  // The index says where `id` lives, and the record header there must
  // agree: the checksum covers the payload only, so an index entry whose id
  // rotted would otherwise pass the gate with another object's bytes.
  if (!HeaderNames(header.data(), id)) {
    return RecordRot(id, "record header names another object");
  }
  if (Checksum64(stored) != entry.checksum) {
    checksum_failures_->Increment();
    return RecordRot(id, "stored checksum mismatch");
  }
  if (entry.flags & kPackFlagCompressed) {
    auto raw = Decompress(stored);
    if (!raw.ok() || raw->size() != entry.raw_len) {
      return RecordRot(id, "stored payload fails decompression");
    }
    return std::move(*raw);
  }
  if (mapped != nullptr) return std::string(stored);
  buffer.erase(0, kPackRecordHeaderSize);
  return buffer;
}

Status PackObjectStore::Quarantine(const std::string& id,
                                   const std::string& reason) {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  // Held across the log append, so the line names exactly the record the
  // index drops, even beside a concurrent re-Put.
  MutexLock lock(mutex_);
  DASPOS_RETURN_IF_ERROR(open_status_);
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound("object " + id + " not in store");
  }
  const Entry& entry = it->second;
  quarantines_->Increment();
  DASPOS_LOG(kError) << "pack quarantine: object " << id << " in segment "
                     << entry.segment << " @" << entry.offset << ": "
                     << reason;
  // Append-fsynced quarantine line (journal idiom). The condemned bytes
  // stay in their immutable segment — the log IS the forensic pointer.
  Json line = Json::Object();
  line["id"] = id;
  line["segment"] = static_cast<uint64_t>(entry.segment);
  line["offset"] = entry.offset;
  line["stored_len"] = entry.stored_len;
  line["detail"] = reason;
  DASPOS_RETURN_IF_ERROR(AppendJsonLine(root_ + "/" + kQuarantineLog, line));
  index_.erase(it);
  quarantine_log_.insert(id);
  return Status::OK();
}

Result<std::string> PackObjectStore::ReadIndexed(const std::string& id) const {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  Entry entry;
  {
    MutexLock lock(mutex_);
    auto it = index_.find(id);
    if (it == index_.end()) {
      return Status::NotFound("object " + id + " not in store");
    }
    entry = it->second;
  }
  bool via_mmap = false;
  auto bytes = ReadRecord(id, entry, &via_mmap);
  if (bytes.ok()) {
    reads_total_->Increment();
    read_bytes_total_->Increment(bytes->size());
    if (via_mmap) mmap_reads_total_->Increment();
  }
  return bytes;
}

Result<std::string> PackObjectStore::Get(const std::string& id) const {
  Span span("pack:get", "archive", get_wall_ms_);
  auto bytes = ReadIndexed(id);
  if (bytes.ok()) {
    span.AddAttribute("bytes", static_cast<uint64_t>(bytes->size()));
  }
  return bytes;
}

Status PackObjectStore::Verify(const std::string& id,
                               std::string* bytes) const {
  Span span("pack:verify", "archive");
  DASPOS_ASSIGN_OR_RETURN(std::string raw, ReadIndexed(id));
  // An audit always re-hashes the full raw payload: the per-record
  // checksum gates reads, but SHA-256 is the preservation-grade authority.
  if (Sha256::HashHex(raw) != id) return RecordRot(id, "sha-256 mismatch");
  if (bytes != nullptr) *bytes = std::move(raw);
  return Status::OK();
}

Status PackObjectStore::ForEachId(
    const std::function<Status(const std::string&)>& fn) const {
  // Snapshot the (in-memory, already resident) key set so callbacks can
  // freely call back into the store without holding its lock.
  std::vector<std::string> ids;
  {
    MutexLock lock(mutex_);
    // An unopenable store has an empty index; report the open failure
    // rather than letting an audit mistake it for an empty store.
    DASPOS_RETURN_IF_ERROR(open_status_);
    ids.reserve(index_.size());
    for (const auto& [id, entry] : index_) {
      (void)entry;
      ids.push_back(id);  // std::map iteration order: already sorted
    }
  }
  for (const std::string& id : ids) {
    DASPOS_RETURN_IF_ERROR(fn(id));
  }
  return Status::OK();
}

Result<uint64_t> PackObjectStore::TotalBytes() const {
  MutexLock lock(mutex_);
  DASPOS_RETURN_IF_ERROR(open_status_);
  uint64_t total = 0;
  for (const auto& [id, entry] : index_) {
    (void)id;
    total += entry.raw_len;
  }
  return total;
}

uint64_t PackObjectStore::StoredBytes() const {
  MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& [id, entry] : index_) {
    (void)id;
    total += entry.stored_len;
  }
  return total;
}

size_t PackObjectStore::SegmentCount() const {
  MutexLock lock(mutex_);
  // Not next_segment_: numbering can be sparse (externally compacted /
  // deleted segments), and repack reporting counts real files.
  return segment_count_;
}

Result<std::vector<std::string>> PackObjectStore::QuarantinedIds() const {
  MutexLock lock(mutex_);
  DASPOS_RETURN_IF_ERROR(open_status_);
  return std::vector<std::string>(quarantine_log_.begin(),
                                  quarantine_log_.end());
}

}  // namespace daspos
