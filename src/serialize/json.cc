#include "serialize/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/io.h"
#include "support/strings.h"

namespace daspos {

// The range test is written so that NaN fails it; 2^63 is an exact double.
int64_t Json::as_int() const {
  if (inexact_magnitude_ != 0) return as_integer<int64_t>().value_or(0);
  const double n = as_number();
  return n >= -0x1p63 && n < 0x1p63 ? static_cast<int64_t>(n) : 0;
}

size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

const Json& Json::at(size_t index) const {
  static const Json kNull;
  if (!is_array() || index >= array_.size()) return kNull;
  return array_[index];
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  array_.push_back(std::move(value));
}

Json& Json::operator[](std::string_view key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(std::string(key), Json());
  return object_.back().second;
}

const Json& Json::Get(std::string_view key) const {
  static const Json kNull;
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  return kNull;
}

bool Json::Has(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void AppendNumber(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no NaN/Inf; preserve document validity.
    return;
  }
  // Integers render without decimal point for stable, compact documents.
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  out += buf;
}

}  // namespace

void Json::DumpTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<size_t>(indent) * static_cast<size_t>(d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      if (inexact_magnitude_ != 0) {
        if (number_ < 0) out.push_back('-');
        out += std::to_string(inexact_magnitude_);
      } else {
        AppendNumber(out, number_);
      }
      break;
    case Type::kString:
      AppendEscaped(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(depth + 1);
        AppendEscaped(out, object_[i].first);
        out += indent >= 0 ? ": " : ":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

size_t Json::DumpSizeHint() const {
  switch (type_) {
    case Type::kNull:
    case Type::kBool:
      return 5;
    case Type::kNumber:
      return 24;
    case Type::kString:
      return string_.size() + 8;
    case Type::kArray: {
      size_t total = 2;
      for (const Json& item : array_) total += item.DumpSizeHint() + 2;
      return total;
    }
    case Type::kObject: {
      size_t total = 2;
      for (const auto& [key, value] : object_) {
        total += key.size() + value.DumpSizeHint() + 6;
      }
      return total;
    }
  }
  return 0;
}

std::string Json::Dump(int indent) const {
  std::string out;
  out.reserve(DumpSizeHint());
  DumpTo(out, indent, 0);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_ &&
             inexact_magnitude_ == other.inexact_magnitude_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    SkipWs();
    Json value;
    Status st = ParseValue(&value, 0);
    if (!st.ok()) return st;
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status Fail(const std::string& what) {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        DASPOS_RETURN_IF_ERROR(ParseString(&s));
        *out = Json(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeWord("true")) {
          *out = Json(true);
          return Status::OK();
        }
        return Fail("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          *out = Json(false);
          return Status::OK();
        }
        return Fail("bad literal");
      case 'n':
        if (ConsumeWord("null")) {
          *out = Json();
          return Status::OK();
        }
        return Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Json* out, int depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      DASPOS_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      Json value;
      DASPOS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      (*out)[key] = std::move(value);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(Json* out, int depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    for (;;) {
      SkipWs();
      Json value;
      DASPOS_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs collapse to
            // the replacement character; outreach formats are ASCII-heavy).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xc0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out->push_back(static_cast<char>(0xe0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default:
            return Fail("bad escape character");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    const std::string_view token = text_.substr(start, pos_ - start);
    auto parsed = ParseDouble(token);
    if (!parsed.ok()) return Fail("bad number");
    *out = Json(*parsed);
    // An integer literal a double cannot hold keeps its exact value.
    const bool negative = token.front() == '-';
    uint64_t magnitude = 0;
    const char* end = token.data() + token.size();
    auto [stop, error] =
        std::from_chars(token.data() + (negative ? 1 : 0), end, magnitude);
    if (error == std::errc() && stop == end && magnitude > uint64_t{1} << 53 &&
        (!negative || magnitude <= uint64_t{1} << 63)) {
      *out = negative ? Json(static_cast<int64_t>(0 - magnitude))
                      : Json(magnitude);
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

std::vector<Json> ParseJsonLines(std::string_view text) {
  std::vector<Json> documents;
  for (const std::string& line : Split(text, '\n')) {
    if (Trim(line).empty()) continue;
    auto parsed = Json::Parse(line);
    if (!parsed.ok()) break;
    documents.push_back(std::move(*parsed));
  }
  return documents;
}

Status AppendJsonLine(const std::string& path, const Json& json) {
  return AppendDurable(path, json.Dump() + "\n");
}

}  // namespace daspos
