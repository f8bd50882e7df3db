// JSON value model, parser, and writer.
//
// The Level-2 outreach formats in the paper's Table 1 are dominated by
// XML/JSON dialects (CMS "ig", ATLAS JiveXML); the common simplified format we
// implement (level2/) is JSON-based, as are archive metadata records.
// Object member order is preserved so emitted documents are deterministic —
// a preservation requirement (fixity over metadata).
#ifndef DASPOS_SERIALIZE_JSON_H_
#define DASPOS_SERIALIZE_JSON_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/result.h"
#include "support/status.h"

namespace daspos {

/// A JSON document node: null, bool, number (double), string, array, or
/// object. Objects keep insertion order. An integer a double cannot hold
/// (more than 53 significant bits, e.g. a 64-bit seed) also keeps its exact
/// value, which Dump prints and as_integer reads; every other number dumps
/// as it always has.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), number_(n) {}
  Json(int n) : type_(Type::kNumber), number_(n) {}
  Json(unsigned int n) : type_(Type::kNumber), number_(n) {}
  Json(int64_t n)
      : type_(Type::kNumber),
        number_(static_cast<double>(n)),
        inexact_magnitude_(InexactMagnitude(
            n < 0 ? 0 - static_cast<uint64_t>(n) : static_cast<uint64_t>(n))) {}
  Json(uint64_t n)
      : type_(Type::kNumber),
        number_(static_cast<double>(n)),
        inexact_magnitude_(InexactMagnitude(n)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}

  /// An empty array / empty object.
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one returns a zero value, as does
  /// as_int for a number outside int64_t (fractions truncate).
  bool as_bool() const { return is_bool() ? bool_ : false; }
  double as_number() const { return is_number() ? number_ : 0.0; }
  int64_t as_int() const;
  /// The integer rule for state read back from disk or from a config: a
  /// value only for an integral number that T holds; anything else is
  /// corruption, not zero.
  template <typename T>
  std::optional<T> as_integer() const {
    static_assert(std::is_integral_v<T>);
    if (inexact_magnitude_ != 0) {
      // Only an int64_t is held negative, so its magnitude is at most 2^63.
      if (number_ < 0) {
        const auto n = static_cast<int64_t>(0 - inexact_magnitude_);
        return std::in_range<T>(n) ? std::optional<T>(static_cast<T>(n))
                                   : std::nullopt;
      }
      return std::in_range<T>(inexact_magnitude_)
                 ? std::optional<T>(static_cast<T>(inexact_magnitude_))
                 : std::nullopt;
    }
    // Both bounds are exact doubles: the minimum is 0 or -2^k, and the end
    // of the range, max + 1, is 2^k. The tests are written so NaN fails.
    constexpr double kMin = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double kEnd =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    const double n = as_number();
    if (!is_number() || !(n >= kMin && n < kEnd) || n != std::floor(n)) {
      return std::nullopt;
    }
    return static_cast<T>(n);
  }
  std::optional<uint64_t> as_uint() const { return as_integer<uint64_t>(); }
  const std::string& as_string() const {
    static const std::string kEmpty;
    return is_string() ? string_ : kEmpty;
  }

  /// Array access.
  size_t size() const;
  const Json& at(size_t index) const;
  void push_back(Json value);

  /// Object access. operator[] inserts a null member if missing (and converts
  /// a null node into an object); Get returns null for missing members.
  Json& operator[](std::string_view key);
  const Json& Get(std::string_view key) const;
  bool Has(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }
  const std::vector<Json>& items() const { return array_; }

  /// Serializes. indent < 0 -> compact single line; otherwise pretty with the
  /// given indent width.
  std::string Dump(int indent = -1) const;

  /// Parses a JSON document; fails with InvalidArgument on malformed input.
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;
  /// Approximate compact serialized size, used to pre-reserve Dump output.
  size_t DumpSizeHint() const;

  /// `magnitude` when a double cannot hold it exactly, else 0.
  static constexpr uint64_t InexactMagnitude(uint64_t magnitude) {
    return static_cast<int>(std::bit_width(magnitude)) -
                       std::countr_zero(magnitude) >
                   std::numeric_limits<double>::digits
               ? magnitude
               : 0;
  }

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  /// The exact magnitude of an integer that number_ only approximates (the
  /// sign is number_'s); 0 when number_ is exact.
  uint64_t inexact_magnitude_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

/// Member `key` of a config object as a T (Json::as_integer), or
/// InvalidArgument naming the key.
template <typename T>
Result<T> ReadInteger(const Json& object, std::string_view key) {
  const Json& value = object.Get(key);
  std::optional<T> n = value.as_integer<T>();
  if (!n.has_value()) {
    return Status::InvalidArgument("'" + std::string(key) +
                                   "' is not an integer in range: " +
                                   value.Dump());
  }
  return *n;
}

/// The one reader of the append-only JSON-lines state files (run journal,
/// scrub cursor, pack quarantine log): one document per non-blank line. It
/// stops at the first line that does not parse, the crash-truncated tail;
/// callers stop at the first record their own checks reject.
std::vector<Json> ParseJsonLines(std::string_view text);

/// Their one writer: a durable append (AppendDurable) of Dump() + "\n".
Status AppendJsonLine(const std::string& path, const Json& json);

}  // namespace daspos

#endif  // DASPOS_SERIALIZE_JSON_H_
