// Binary encoding primitives: varints, zigzag integers, fixed-width doubles,
// and length-prefixed strings, over an in-memory buffer. All multi-byte fixed
// values are little-endian; encodings are platform-independent so preserved
// files decode identically decades later.
#ifndef DASPOS_SERIALIZE_BINARY_H_
#define DASPOS_SERIALIZE_BINARY_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.h"

namespace daspos {

/// Longest LEB128 encoding of a uint64_t.
inline constexpr size_t kMaxVarintBytes = 10;

/// Writes the LEB128 varint encoding of `value` to `out`, which must have
/// room for kMaxVarintBytes; returns the number of bytes written.
inline size_t EncodeVarint(uint64_t value, char* out) {
  size_t n = 0;
  while (value >= 0x80) {
    out[n++] = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  out[n++] = static_cast<char>(value);
  return n;
}

/// Appends the LEB128 varint encoding of `value` to `out` — the bytes
/// BinaryWriter::PutVarint writes, for framing records without a writer.
void AppendVarint(std::string& out, uint64_t value);

/// Appends encoded values to an owned byte buffer. Values are stored
/// straight into spare room at the end of the buffer: the hot puts are
/// inline and touch the std::string only when that room runs out.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { *Extend(1) = static_cast<char>(v); }
  void PutU32(uint32_t v) { StoreLittleEndian<4>(Extend(4), v); }
  void PutU64(uint64_t v) { StoreLittleEndian<8>(Extend(8), v); }
  /// LEB128-style varint.
  void PutVarint(uint64_t v) {
    if (v < 0x80) {
      PutU8(static_cast<uint8_t>(v));
      return;
    }
    char* out = Extend(kMaxVarintBytes);
    size_ -= kMaxVarintBytes - EncodeVarint(v, out);
  }
  /// Zigzag-mapped signed varint.
  void PutSVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }
  /// IEEE-754 double, 8 bytes little-endian.
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  /// Varint length followed by raw bytes.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutRaw(s);
  }
  /// Raw bytes, no length prefix.
  void PutRaw(std::string_view bytes);

  /// Pre-allocates room for about `upcoming_bytes` more output — size it
  /// from input counts (records * typical size) to avoid regrowth copies.
  void Reserve(size_t upcoming_bytes) {
    buffer_.reserve(size_ + upcoming_bytes);
  }

  /// Empties the output but keeps the allocation, so one writer can encode
  /// record after record without reallocating.
  void Clear() { size_ = 0; }

  /// The bytes written so far; valid until the next put.
  std::string_view buffer() const {
    return std::string_view(buffer_.data(), size_);
  }
  std::string TakeBuffer() {
    buffer_.resize(size_);
    size_ = 0;
    return std::move(buffer_);
  }
  size_t size() const { return size_; }

 private:
  template <size_t N>
  static void StoreLittleEndian(char* out, uint64_t v) {
    for (size_t i = 0; i < N; ++i) out[i] = static_cast<char>(v >> (8 * i));
  }
  /// Claims `n` bytes at the end of the output and returns where they
  /// start.
  char* Extend(size_t n) {
    if (buffer_.size() - size_ < n) Grow(n);
    char* out = buffer_.data() + size_;
    size_ += n;
    return out;
  }
  /// Makes room for at least `n` more bytes (out of line, amortized).
  void Grow(size_t n);

  /// buffer_[0, size_) is the output; the rest is spare room.
  std::string buffer_;
  size_t size_ = 0;
};

/// Decodes values from a byte range. All getters fail with Corruption on
/// truncated or malformed input instead of reading past the end. Varints
/// must be minimal (no redundant trailing zero groups), so every accepted
/// value has exactly one encoding and decoding then re-encoding gives the
/// same bytes.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  // The fixed-width getters and the one-byte varint are inline: records
  // decode a value per call, and out of line each call costs more than the
  // decode itself.
  Result<uint8_t> GetU8() {
    if (pos_ >= data_.size()) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> GetU32() {
    if (remaining() < 4) return Truncated("u32");
    auto v = static_cast<uint32_t>(LoadLittleEndian<4>(data_.data() + pos_));
    pos_ += 4;
    return v;
  }
  Result<uint64_t> GetU64() {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = LoadLittleEndian<8>(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  Result<uint64_t> GetVarint() {
    if (pos_ < data_.size() && static_cast<uint8_t>(data_[pos_]) < 0x80) {
      return static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]));
    }
    return GetMultiByteVarint();
  }
  Result<int64_t> GetSVarint() {
    DASPOS_ASSIGN_OR_RETURN(uint64_t zz, GetVarint());
    return static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  }
  /// GetSVarint narrowed to 32 bits; a value outside int32_t is Corruption
  /// rather than silently truncated.
  Result<int32_t> GetSVarint32() {
    DASPOS_ASSIGN_OR_RETURN(int64_t v, GetSVarint());
    if (v < INT32_MIN || v > INT32_MAX) return OutOfRange("svarint");
    return static_cast<int32_t>(v);
  }
  /// GetVarint bounded by `max`; a larger value is Corruption.
  Result<uint64_t> GetVarintAtMost(uint64_t max) {
    DASPOS_ASSIGN_OR_RETURN(uint64_t v, GetVarint());
    if (v > max) return OutOfRange("varint");
    return v;
  }
  Result<double> GetDouble() {
    DASPOS_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<std::string> GetString();
  /// Reads exactly `n` raw bytes.
  Result<std::string> GetRaw(size_t n);
  /// Advances past `n` bytes without copying.
  Status Skip(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  template <size_t N>
  static uint64_t LoadLittleEndian(const char* p) {
    uint64_t v = 0;
    for (size_t i = 0; i < N; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }
  // Out of line: the error paths and the rarer multi-byte varint.
  static Status Truncated(const char* what);
  static Status OutOfRange(const char* what);
  Result<uint64_t> GetMultiByteVarint();

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace daspos

#endif  // DASPOS_SERIALIZE_BINARY_H_
