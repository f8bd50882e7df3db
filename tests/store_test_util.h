// Helpers shared by the object-store test suites.
#ifndef DASPOS_TESTS_STORE_TEST_UTIL_H_
#define DASPOS_TESTS_STORE_TEST_UTIL_H_

#include <string>
#include <vector>

#include "archive/object_store.h"

namespace daspos {

/// Every id `store` enumerates, in walk order. The walk status is dropped:
/// tests that check it call ForEachId directly.
inline std::vector<std::string> CollectIds(const ObjectStore& store) {
  std::vector<std::string> ids;
  (void)store.ForEachId([&ids](const std::string& id) {
    ids.push_back(id);
    return Status::OK();
  });
  return ids;
}

}  // namespace daspos

#endif  // DASPOS_TESTS_STORE_TEST_UTIL_H_
