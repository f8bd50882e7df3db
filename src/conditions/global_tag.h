// Global tags: named mappings from detector roles to conditions tags. A
// processing campaign (and therefore a preserved analysis) is pinned to one
// global tag, which names its complete conditions configuration — the
// "enumerating and potentially encapsulating these external dependencies"
// that §3.2 asks preservation to do. Conditions dumps carry them, and lint's
// C004 flags a role whose tag the dump does not hold.
#ifndef DASPOS_CONDITIONS_GLOBAL_TAG_H_
#define DASPOS_CONDITIONS_GLOBAL_TAG_H_

#include <map>
#include <string>

#include "support/result.h"

namespace daspos {

/// One global tag: role -> underlying conditions tag.
struct GlobalTag {
  std::string name;
  std::map<std::string, std::string> roles;

  /// Text form ("globaltag: NAME" + "role = tag" lines), for preservation
  /// alongside the data.
  std::string Serialize() const;
  static Result<GlobalTag> Parse(const std::string& text);
};

}  // namespace daspos

#endif  // DASPOS_CONDITIONS_GLOBAL_TAG_H_
