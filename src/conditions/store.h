// The conditions database backend: tagged payloads with non-overlapping
// intervals of validity, resolved by run number.
#ifndef DASPOS_CONDITIONS_STORE_H_
#define DASPOS_CONDITIONS_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "conditions/iov.h"
#include "conditions/provider.h"
#include "support/status.h"

namespace daspos {

/// In-memory conditions database. Models the "database access from
/// processing" strategy: every lookup goes to the (simulated) service and is
/// counted — the E7 bench uses the counters to contrast with snapshots.
class ConditionsDb : public ConditionsProvider {
 public:
  ConditionsDb() = default;
  // Copyable despite the atomic lookup counter (tests build one and return
  // it by value); the counter value carries over.
  ConditionsDb(const ConditionsDb& other)
      : tags_(other.tags_), lookup_count_(other.lookup_count_.load()) {}
  ConditionsDb& operator=(const ConditionsDb& other) {
    tags_ = other.tags_;
    lookup_count_ = other.lookup_count_.load();
    return *this;
  }

  /// Registers a payload for `tag` over `range`. Fails on invalid ranges or
  /// IOV overlap within the tag (conditions must be unambiguous).
  Status Put(const std::string& tag, const RunRange& range,
             std::string payload);

  /// Closes the open-ended latest IOV of `tag` at `last_run` and appends a
  /// new open-ended payload starting at `last_run + 1` — the typical
  /// calibration-update operation.
  Status Append(const std::string& tag, uint32_t first_run,
                std::string payload);

  // ConditionsProvider:
  Result<std::string> GetPayload(const std::string& tag,
                                 uint32_t run) const override;
  std::string BackendName() const override { return "conditions-db"; }

  /// All registered tags, sorted.
  std::vector<std::string> Tags() const;

  /// Number of GetPayload calls served so far (the external-dependency
  /// footprint the paper asks workflows to enumerate). Atomic: steps of a
  /// parallel workflow may consult conditions concurrently.
  uint64_t lookup_count() const { return lookup_count_.load(); }

 private:
  struct Entry {
    RunRange range;
    std::string payload;
  };
  // Per tag, entries sorted by first_run (non-overlapping).
  std::map<std::string, std::vector<Entry>> tags_;
  mutable std::atomic<uint64_t> lookup_count_{0};
};

}  // namespace daspos

#endif  // DASPOS_CONDITIONS_STORE_H_
