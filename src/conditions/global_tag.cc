#include "conditions/global_tag.h"

#include "support/strings.h"

namespace daspos {

std::string GlobalTag::Serialize() const {
  std::string out = "globaltag: " + name + "\n";
  for (const auto& [role, tag] : roles) {
    out += role + " = " + tag + "\n";
  }
  return out;
}

Result<GlobalTag> GlobalTag::Parse(const std::string& text) {
  GlobalTag tag;
  bool saw_name = false;
  for (const std::string& line : Split(text, '\n')) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (StartsWith(trimmed, "globaltag:")) {
      tag.name = std::string(Trim(trimmed.substr(10)));
      saw_name = true;
      continue;
    }
    size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::Corruption("global-tag line without '=': " +
                                std::string(trimmed));
    }
    std::string role(Trim(trimmed.substr(0, eq)));
    std::string underlying(Trim(trimmed.substr(eq + 1)));
    if (role.empty() || underlying.empty()) {
      return Status::Corruption("empty role or tag in global tag");
    }
    tag.roles[role] = underlying;
  }
  if (!saw_name || tag.name.empty()) {
    return Status::Corruption("global tag missing 'globaltag:' header");
  }
  return tag;
}

}  // namespace daspos
