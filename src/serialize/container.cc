#include "serialize/container.h"

#include <cassert>

#include "serialize/binary.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/sha256.h"

namespace daspos {

namespace {
constexpr char kHeaderMagic[] = "DSPC";
constexpr char kFooterMagic[] = "DSPE";
constexpr size_t kMagicLen = 4;
constexpr size_t kFooterSize = kMagicLen + 8 + Sha256::kDigestSize;
/// Appended bytes are hashed once this many are pending: the hash then runs
/// on bytes that are still in cache, and Finish only digests the tail.
constexpr size_t kHashBatchBytes = 64 * 1024;

/// Container bytes fed to SHA-256, sealing and verifying alike.
Counter& HashedBytes() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      metric_names::kContainerHashedBytesTotal);
  return counter;
}

}  // namespace

ContainerWriter::ContainerWriter(const Json& metadata) {
  BinaryWriter w;
  w.PutRaw(std::string_view(kHeaderMagic, kMagicLen));
  w.PutU32(kContainerVersion);
  w.PutString(metadata.Dump());
  buffer_ = w.TakeBuffer();
}

void ContainerWriter::AddRecord(std::string_view record) {
  assert(!finished_);
  AppendVarint(buffer_, record.size());
  buffer_.append(record.data(), record.size());
  ++record_count_;
  HashPending(kHashBatchBytes);
}

void ContainerWriter::AppendChunks(const std::vector<std::string>& chunks,
                                   size_t count, ThreadPool* pool) {
  assert(!finished_);
  size_t chunk_bytes = 0;
  for (const std::string& chunk : chunks) chunk_bytes += chunk.size();
  std::string sized;
  ParallelFor(pool, 2, [&](size_t task) {
    if (task == 0) {
      HashPending(0);
      for (const std::string& chunk : chunks) hasher_.Update(chunk);
      HashedBytes().Increment(chunk_bytes);
      return;
    }
    sized.reserve(buffer_.size() + chunk_bytes + kFooterSize);
    sized += buffer_;
    for (const std::string& chunk : chunks) sized += chunk;
  });
  buffer_ = std::move(sized);
  hashed_bytes_ = buffer_.size();
  record_count_ += count;
}

void ContainerWriter::HashPending(size_t min_bytes) {
  if (buffer_.size() - hashed_bytes_ < min_bytes) return;
  hasher_.Update(std::string_view(buffer_).substr(hashed_bytes_));
  HashedBytes().Increment(buffer_.size() - hashed_bytes_);
  hashed_bytes_ = buffer_.size();
}

std::string ContainerWriter::Finish() {
  assert(!finished_);
  finished_ = true;
  HashPending(0);
  auto digest = hasher_.Digest();

  BinaryWriter w;
  w.PutRaw(std::string_view(kFooterMagic, kMagicLen));
  w.PutU64(record_count_);
  w.PutRaw(std::string_view(reinterpret_cast<const char*>(digest.data()),
                            digest.size()));
  buffer_ += w.buffer();
  return std::move(buffer_);
}

Result<ContainerReader> ContainerReader::Open(std::string_view data) {
  return OpenImpl(data, /*verify=*/true);
}

Result<ContainerReader> ContainerReader::OpenUnverified(std::string_view data) {
  return OpenImpl(data, /*verify=*/false);
}

Status ContainerReader::VerifyFixity(std::string_view data) {
  if (data.size() < kMagicLen + 4 + kFooterSize) {
    return Status::Corruption("container too small");
  }
  Sha256 hasher;
  hasher.Update(data.substr(0, data.size() - kFooterSize));
  HashedBytes().Increment(data.size() - kFooterSize);
  auto digest = hasher.Digest();
  if (std::string_view(reinterpret_cast<const char*>(digest.data()),
                       digest.size()) != DeclaredDigest(data)) {
    return Status::Corruption("container fixity hash mismatch");
  }
  return Status::OK();
}

std::string_view ContainerReader::DeclaredDigest(std::string_view data) {
  if (data.size() < kFooterSize) return {};
  return data.substr(data.size() - Sha256::kDigestSize);
}

Result<ContainerReader> ContainerReader::OpenImpl(std::string_view data,
                                                  bool verify) {
  if (data.size() < kMagicLen + 4 + kFooterSize) {
    return Status::Corruption("container too small");
  }
  if (data.substr(0, kMagicLen) != std::string_view(kHeaderMagic, kMagicLen)) {
    return Status::Corruption("bad container magic");
  }
  std::string_view footer = data.substr(data.size() - kFooterSize);
  if (footer.substr(0, kMagicLen) != std::string_view(kFooterMagic, kMagicLen)) {
    return Status::Corruption("bad container footer magic (truncated file?)");
  }

  BinaryReader footer_reader(footer.substr(kMagicLen));
  DASPOS_ASSIGN_OR_RETURN(uint64_t record_count, footer_reader.GetU64());
  if (verify) DASPOS_RETURN_IF_ERROR(VerifyFixity(data));

  std::string_view body = data.substr(0, data.size() - kFooterSize);
  ContainerReader reader;
  reader.record_count_ = record_count;

  BinaryReader r(body.substr(kMagicLen));
  DASPOS_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kContainerVersion) {
    return Status::Corruption("unsupported container version " +
                              std::to_string(version));
  }
  DASPOS_ASSIGN_OR_RETURN(std::string metadata_text, r.GetString());
  DASPOS_ASSIGN_OR_RETURN(reader.metadata_, Json::Parse(metadata_text));

  // Record region: offsets are relative to `body` after the header fields.
  size_t base = kMagicLen + r.position();
  std::string_view record_region = body.substr(base);
  // Allocation guard: each record costs at least one length byte, so a
  // count beyond the region size is corruption (matters for the
  // unverified salvage path, where the footer is not trusted).
  if (record_count > record_region.size()) {
    return Status::Corruption("record count exceeds container body");
  }
  BinaryReader rr(record_region);
  reader.records_.reserve(static_cast<size_t>(record_count));
  while (!rr.AtEnd()) {
    DASPOS_ASSIGN_OR_RETURN(uint64_t len, rr.GetVarint());
    size_t offset = rr.position();
    if (rr.remaining() < len) {
      return Status::Corruption("record extends past container body");
    }
    reader.records_.push_back(record_region.substr(offset, len));
    DASPOS_RETURN_IF_ERROR(rr.Skip(static_cast<size_t>(len)));
  }
  if (reader.records_.size() != record_count) {
    return Status::Corruption("record count mismatch: footer says " +
                              std::to_string(record_count) + ", found " +
                              std::to_string(reader.records_.size()));
  }
  return reader;
}

}  // namespace daspos
