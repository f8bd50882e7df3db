#include "support/flags.h"

#include "support/strings.h"

namespace daspos {

Flag Flag::Bool(std::string name, bool* field) {
  return {std::move(name), Kind::kBool, "", field};
}

Flag Flag::String(std::string name, std::string* field, std::string help) {
  return {std::move(name), Kind::kString, std::move(help), field};
}

Flag Flag::Path(std::string name, std::string* field, std::string help) {
  return {std::move(name), Kind::kPath, std::move(help), field};
}

Flag Flag::U64(std::string name, uint64_t* field, uint64_t min, uint64_t max,
               std::string help) {
  return {std::move(name), Kind::kU64, std::move(help), field, min, max};
}

Flag Flag::Double(std::string name, double* field, double min,
                  std::string help) {
  return {std::move(name), Kind::kDouble, std::move(help), field, 0, 0, min};
}

Result<std::vector<std::string>> ParseFlags(
    std::string_view command, const std::vector<Flag>& flags,
    const std::vector<std::string>& args) {
  std::vector<std::string> positionals;
  for (const std::string& arg : args) {
    if (arg.empty() || arg[0] != '-') {
      positionals.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string_view name = std::string_view(arg).substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags) {
      if (name.substr(0, 2) == "--" && name.substr(2) == candidate.name) {
        flag = &candidate;
      }
    }
    // Bool flags take no value and every other kind needs one.
    if (flag == nullptr || has_value == (flag->kind == Flag::Kind::kBool)) {
      return Status::InvalidArgument("unknown " + std::string(command) +
                                     " flag '" + arg + "'");
    }
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    switch (flag->kind) {
      case Flag::Kind::kBool:
        *std::get<bool*>(flag->field) = true;
        continue;
      case Flag::Kind::kPath:
        if (value.empty()) {
          return Status::InvalidArgument("--" + flag->name +
                                         " needs a path");
        }
        *std::get<std::string*>(flag->field) = value;
        continue;
      case Flag::Kind::kString:
        *std::get<std::string*>(flag->field) = value;
        continue;
      case Flag::Kind::kU64: {
        auto parsed = ParseU64(value);
        if (parsed.ok() && *parsed >= flag->min_u64 &&
            *parsed <= flag->max_u64) {
          *std::get<uint64_t*>(flag->field) = *parsed;
          continue;
        }
        break;
      }
      case Flag::Kind::kDouble: {
        auto parsed = ParseDouble(value);
        if (parsed.ok() && *parsed >= flag->min_double) {
          *std::get<double*>(flag->field) = *parsed;
          continue;
        }
        break;
      }
    }
    return Status::InvalidArgument("bad --" + flag->name + " value '" +
                                   value + "'");
  }
  return positionals;
}

std::string UsageLine(std::string_view head, const std::vector<Flag>& flags,
                      size_t indent) {
  constexpr size_t kWidth = 78;
  std::string out(head);
  size_t column = head.size();
  for (const Flag& flag : flags) {
    std::string token = "[--" + flag.name;
    if (flag.kind != Flag::Kind::kBool) token += "=" + flag.help;
    token += ']';
    if (column + 1 + token.size() > kWidth) {
      out += '\n';
      out.append(indent, ' ');
      column = indent;
    } else {
      out += ' ';
      ++column;
    }
    out += token;
    column += token.size();
  }
  return out + "\n";
}

}  // namespace daspos
