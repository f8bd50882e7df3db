#include "serialize/binary.h"

#include <algorithm>
#include <cstring>

namespace daspos {

namespace {

/// Spare room added per growth. std::string's own capacity still grows
/// geometrically; this only bounds how much is zero-filled ahead of use.
constexpr size_t kGrowBytes = 256;

}  // namespace

void AppendVarint(std::string& out, uint64_t value) {
  if (value < 0x80) {
    out.push_back(static_cast<char>(value));
    return;
  }
  char bytes[kMaxVarintBytes];
  out.append(bytes, EncodeVarint(value, bytes));
}

void BinaryWriter::Grow(size_t n) {
  buffer_.resize(size_ + std::max(n, kGrowBytes));
}

void BinaryWriter::PutRaw(std::string_view bytes) {
  if (buffer_.size() - size_ >= bytes.size()) {
    if (!bytes.empty()) {
      std::memcpy(buffer_.data() + size_, bytes.data(), bytes.size());
    }
    size_ += bytes.size();
    return;
  }
  // Large payloads are appended directly rather than zero-filled first.
  buffer_.resize(size_);
  buffer_.append(bytes.data(), bytes.size());
  size_ = buffer_.size();
}

Status BinaryReader::Truncated(const char* what) {
  return Status::Corruption(std::string("truncated: ") + what);
}

Status BinaryReader::OutOfRange(const char* what) {
  return Status::Corruption(std::string(what) + " out of range");
}

Result<uint64_t> BinaryReader::GetMultiByteVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= data_.size()) return Truncated("varint");
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift == 63 && (byte & 0x7e) != 0) {
      return Status::Corruption("varint overflow");
    }
    if (shift > 63) return Status::Corruption("varint too long");
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // A zero final group after a continuation is a longer spelling of a
      // shorter varint; only the minimal encoding is accepted.
      if (byte == 0 && shift > 0) {
        return Status::Corruption("non-minimal varint");
      }
      return v;
    }
    shift += 7;
  }
}

Result<std::string> BinaryReader::GetString() {
  DASPOS_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
  return GetRaw(static_cast<size_t>(len));
}

Result<std::string> BinaryReader::GetRaw(size_t n) {
  if (remaining() < n) return Status::Corruption("truncated: raw bytes");
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

Status BinaryReader::Skip(size_t n) {
  if (remaining() < n) return Status::Corruption("truncated: skip");
  pos_ += n;
  return Status::OK();
}

}  // namespace daspos
