// Declarative command-line flags. Each flag is declared once — its name,
// the field it fills, its kind and the value placeholder shown in usage
// text — and one parser serves every command of the `daspos` and `dasposd`
// binaries, so prefix matching, range checks and unknown-flag rejection
// live in one place and the usage text cannot drift from what is accepted.
#ifndef DASPOS_SUPPORT_FLAGS_H_
#define DASPOS_SUPPORT_FLAGS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/result.h"

namespace daspos {

/// One `--name` or `--name=value` flag bound to the field it fills. The
/// field must outlive every Parse that uses the flag.
struct Flag {
  enum class Kind { kBool, kString, kPath, kU64, kDouble };

  /// `--name` sets the field to true; a value (`--name=x`) is rejected.
  static Flag Bool(std::string name, bool* field);
  /// `--name=VALUE`, any string including the empty one.
  static Flag String(std::string name, std::string* field, std::string help);
  /// `--name=VALUE` where the value must be non-empty.
  static Flag Path(std::string name, std::string* field, std::string help);
  /// `--name=N`, an unsigned integer in [min, max].
  static Flag U64(std::string name, uint64_t* field, uint64_t min = 0,
                  uint64_t max = std::numeric_limits<uint64_t>::max(),
                  std::string help = "N");
  /// `--name=X`, a number no smaller than `min`.
  static Flag Double(std::string name, double* field, double min,
                     std::string help);

  std::string name;  // without the leading "--"
  Kind kind = Kind::kBool;
  std::string help;  // value placeholder in usage text, e.g. "DIR"
  std::variant<bool*, std::string*, uint64_t*, double*> field;
  uint64_t min_u64 = 0;
  uint64_t max_u64 = 0;
  double min_double = 0.0;
};

/// Fills the declared fields from `args` and returns the positionals in
/// order. Every argument that starts with '-' is a flag and may appear
/// anywhere; when a flag repeats, its last value wins. Errors (as
/// InvalidArgument, message ready for the operator):
///   unknown <command> flag '--x'   undeclared name, or a value on a bool
///   bad --x value 'v'              a number out of range or unparseable
///   --x needs a path               an empty path
Result<std::vector<std::string>> ParseFlags(std::string_view command,
                                            const std::vector<Flag>& flags,
                                            const std::vector<std::string>& args);

/// One usage entry: `head` followed by "[--name]" / "[--name=HELP]" for
/// every flag in declaration order, wrapped before column 78 with
/// continuation lines indented by `indent` spaces. Ends with a newline.
std::string UsageLine(std::string_view head, const std::vector<Flag>& flags,
                      size_t indent);

}  // namespace daspos

#endif  // DASPOS_SUPPORT_FLAGS_H_
