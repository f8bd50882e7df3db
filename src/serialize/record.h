// Record layouts stated once. A record type declares its fields in wire order
// as (name, member, wire kind) in a constexpr RecordLayout overload, found by
// argument-dependent lookup (see event/raw.h). Three generic walkers read
// that one declaration: EncodeRecord; DecodeRecord, which applies each kind's
// check, names the record and field in every error and rejects trailing
// bytes; and DescribeRecord, which renders the table in docs/FORMAT.md.
// Members and kinds are template arguments, so a walk compiles to the code a
// hand-written codec would. Each kind accepts exactly the values it writes,
// so every accepted record re-encodes to its own bytes.
#ifndef DASPOS_SERIALIZE_RECORD_H_
#define DASPOS_SERIALIZE_RECORD_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "serialize/binary.h"
#include "support/result.h"

namespace daspos {

// Out of line: the error paths.
void PrefixFieldError(std::string_view record, std::string_view field,
                      Status* error);
Status TrailingBytes(std::string_view record);

/// One field of a record layout: `Member` is stored as wire kind `Kind`.
template <auto Member, typename Kind>
struct Field {
  std::string_view name;
  constexpr explicit Field(std::string_view field_name) : name(field_name) {}

  template <typename T>
  static void Put(const T& value, BinaryWriter* writer) {
    Kind::Put(writer, value.*Member);
  }
  /// On failure, `*error` names `record` and this field.
  template <typename T>
  bool Get(BinaryReader* reader, T* out, std::string_view record,
           Status* error) const {
    if (Kind::Get(reader, &(out->*Member), error)) return true;
    PrefixFieldError(record, name, error);
    return false;
  }
  static std::string KindName() { return Kind::Name(); }
};

/// A record layout: the record's name and its fields in wire order.
template <typename... Fields>
struct Record {
  std::string_view name;
  std::tuple<Fields...> fields;
  constexpr Record(std::string_view record_name, Fields... record_fields)
      : name(record_name), fields(record_fields...) {}
};

/// The declared layout of record type T.
template <typename T>
inline constexpr auto kLayoutOf = RecordLayout(static_cast<const T*>(nullptr));

/// Appends the encoding of `value` to `writer`. EncodeRecord and
/// DecodeRecord are flattened: every field's kind, nested lists included,
/// inlines into one function per record type, as a hand-written codec
/// would be; left to itself GCC calls some kinds out of line per field.
template <typename T>
[[gnu::flatten]] void EncodeRecord(const T& value, BinaryWriter* writer) {
  std::apply([&](const auto&... field) { (field.Put(value, writer), ...); },
             kLayoutOf<T>.fields);
}

template <typename T>
std::string EncodeRecord(const T& value) {
  BinaryWriter writer;
  EncodeRecord(value, &writer);
  return writer.TakeBuffer();
}

/// Reads the fields of one T; on failure sets `*error` to Corruption naming
/// the record and field, and leaves `*out` partly written.
template <typename T>
bool DecodeFields(BinaryReader* reader, T* out, Status* error) {
  return std::apply(
      [&](const auto&... field) {
        return (field.Get(reader, out, kLayoutOf<T>.name, error) && ...);
      },
      kLayoutOf<T>.fields);
}

/// Decodes exactly one T from `record` into `*out`, overwriting every
/// declared field; trailing bytes are Corruption.
template <typename T>
[[gnu::flatten]] Status DecodeRecord(std::string_view record, T* out) {
  BinaryReader reader(record);
  Status error;
  if (!DecodeFields(&reader, out, &error)) return error;
  if (!reader.AtEnd()) return TrailingBytes(kLayoutOf<T>.name);
  return Status::OK();
}

template <typename T>
Result<T> DecodeRecord(std::string_view record) {
  T value;
  DASPOS_RETURN_IF_ERROR(DecodeRecord(record, &value));
  return value;
}

/// The layout of T as a Markdown table: one row per field, in wire order.
template <typename T>
std::string DescribeRecord() {
  std::string out = "| # | field | wire kind |\n| --- | --- | --- |\n";
  int row = 0;
  std::apply(
      [&](const auto&... field) {
        ((out += "| " + std::to_string(++row) + " | `" +
                 std::string(field.name) + "` | `" + field.KindName() +
                 "` |\n"),
         ...);
      },
      kLayoutOf<T>.fields);
  return out;
}

/// The wire kinds (docs/FORMAT.md). Each has Name(), Put(writer, value) and
/// Get(reader, &member, &error), which returns false with `error` set.
namespace wire {

/// Set `*error` to Corruption(`what`), or to `status`, and return false.
/// Out of line, so the hot paths that call them stay small enough to inline.
bool Fail(Status* error, const char* what);
bool Fail(Status* error, const Status& status);

/// Moves a reader result into `*out`, or its error into `*error`.
template <typename T, typename V>
bool Take(Result<T> result, V* out, Status* error) {
  if (!result.ok()) return Fail(error, result.status());
  *out = static_cast<V>(*result);
  return true;
}

/// A kind that BinaryWriter and BinaryReader encode and check directly.
template <const char* kName, auto kPut, auto kGet>
struct Plain {
  static std::string Name() { return kName; }
  template <typename V>
  static void Put(BinaryWriter* w, const V& v) {
    (w->*kPut)(v);
  }
  template <typename V>
  static bool Get(BinaryReader* r, V* out, Status* error) {
    return Take((r->*kGet)(), out, error);
  }
};

inline constexpr char kU32[] = "u32", kVarint[] = "varint",
                      kSVarint32[] = "svarint32", kF64[] = "f64";
using U32 = Plain<kU32, &BinaryWriter::PutU32, &BinaryReader::GetU32>;
using Varint =
    Plain<kVarint, &BinaryWriter::PutVarint, &BinaryReader::GetVarint>;
using SVarint32 = Plain<kSVarint32, &BinaryWriter::PutSVarint,
                        &BinaryReader::GetSVarint32>;
using F64 = Plain<kF64, &BinaryWriter::PutDouble, &BinaryReader::GetDouble>;

/// Varint of at most 2^Bits-1, the range of the member it fills; a larger
/// value is Corruption, never narrowed.
template <int Bits>
struct UVarint {
  static constexpr uint64_t kMax = (uint64_t{1} << Bits) - 1;
  static std::string Name() {
    return "varint <= 2^" + std::to_string(Bits) + "-1";
  }
  static void Put(BinaryWriter* w, uint64_t v) { w->PutVarint(v); }
  template <typename V>
  static bool Get(BinaryReader* r, V* out, Status* error) {
    static_assert(kMax == std::numeric_limits<V>::max());
    return Take(r->GetVarintAtMost(kMax), out, error);
  }
};

/// One byte holding an enum value no larger than `Max`.
template <auto Max>
struct EnumU8 {
  using Enum = decltype(Max);
  static std::string Name() {
    return "u8 enum <= " + std::to_string(static_cast<int>(Max));
  }
  static void Put(BinaryWriter* w, Enum v) {
    w->PutU8(static_cast<uint8_t>(v));
  }
  static bool Get(BinaryReader* r, Enum* out, Status* error) {
    uint8_t v = 0;
    if (!Take(r->GetU8(), &v, error)) return false;
    if (v > static_cast<uint8_t>(Max)) {
      return Fail(error, "enum value out of range");
    }
    *out = static_cast<Enum>(v);
    return true;
  }
};

/// A float stored widened to f64. Only doubles that are exactly some
/// widened float decode (infinities are floats too). Values beyond the
/// float range are checked first: narrowing them would overflow.
struct F32AsF64 {
  static std::string Name() { return "f32 as f64"; }
  static void Put(BinaryWriter* w, float v) { w->PutDouble(v); }
  static bool Get(BinaryReader* r, float* out, Status* error) {
    double v = 0.0;
    if (!Take(r->GetDouble(), &v, error)) return false;
    const bool fits =
        !std::isfinite(v) || std::fabs(v) <= std::numeric_limits<float>::max();
    const double widened = fits ? static_cast<float>(v) : 0.0f;
    if (!fits || std::memcmp(&widened, &v, sizeof(v)) != 0) {
      return Fail(error, "not a float value");
    }
    *out = static_cast<float>(v);
    return true;
  }
};

/// A four-vector as four f64: px, py, pz, e (event/fourvector.h).
struct FourVec {
  static std::string Name() { return "fourvector"; }
  template <typename V>
  static void Put(BinaryWriter* w, const V& v) {
    for (double x : {v.px(), v.py(), v.pz(), v.e()}) w->PutDouble(x);
  }
  template <typename V>
  static bool Get(BinaryReader* r, V* out, Status* error) {
    double c[4];
    for (double& x : c) {
      if (!Take(r->GetDouble(), &x, error)) return false;
    }
    *out = V(c[0], c[1], c[2], c[3]);
    return true;
  }
};

/// A varint count, then that many records of declared type E. Every
/// element takes at least one byte, so a count beyond the bytes left is
/// Corruption rather than an allocation size.
template <typename E>
struct List {
  static std::string Name() {
    return "list<" + std::string(kLayoutOf<E>.name) + ">";
  }
  static void Put(BinaryWriter* w, const std::vector<E>& v) {
    w->PutVarint(v.size());
    for (const E& element : v) EncodeRecord(element, w);
  }
  static bool Get(BinaryReader* r, std::vector<E>* out, Status* error) {
    uint64_t count = 0;
    if (!Take(r->GetVarint(), &count, error)) return false;
    if (count > r->remaining()) {
      return Fail(error, "count exceeds record size");
    }
    out->clear();
    out->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      if (!DecodeFields(r, &out->emplace_back(), error)) return false;
    }
    return true;
  }
};

}  // namespace wire
}  // namespace daspos

#endif  // DASPOS_SERIALIZE_RECORD_H_
