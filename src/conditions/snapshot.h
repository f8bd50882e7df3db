// Alice-style conditions snapshot: "text files that can easily be shipped
// around with the data" (§3.2). A snapshot freezes every needed payload for
// one run into a single self-contained text document — no database service
// required to reprocess later, which is its preservation advantage.
//
// Format (length-prefixed so payloads may contain anything):
//   # daspos conditions snapshot
//   run: <run>
//   source: <backend name>
//   tag: <name> bytes: <n>
//   <exactly n payload bytes>
//   <repeat tag blocks...>
#ifndef DASPOS_CONDITIONS_SNAPSHOT_H_
#define DASPOS_CONDITIONS_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "conditions/provider.h"
#include "support/result.h"

namespace daspos {

class ConditionsSnapshot : public ConditionsProvider {
 public:
  ConditionsSnapshot() = default;
  // Copyable despite the atomic lookup counter (Capture and Parse return
  // by value); the counter value carries over.
  ConditionsSnapshot(const ConditionsSnapshot& other)
      : run_(other.run_),
        source_(other.source_),
        payloads_(other.payloads_),
        lookup_count_(other.lookup_count_.load()) {}
  ConditionsSnapshot& operator=(const ConditionsSnapshot& other) {
    run_ = other.run_;
    source_ = other.source_;
    payloads_ = other.payloads_;
    lookup_count_ = other.lookup_count_.load();
    return *this;
  }

  /// Captures the payloads of `tags` valid at `run` from `source`.
  /// Fails if any tag has no payload at that run.
  static Result<ConditionsSnapshot> Capture(
      const ConditionsProvider& source, uint32_t run,
      const std::vector<std::string>& tags);

  /// Parses a serialized snapshot document.
  static Result<ConditionsSnapshot> Parse(const std::string& text);

  /// Serializes to the text format above.
  std::string Serialize() const;

  // ConditionsProvider. Lookups at a run other than the captured one fail
  // with FailedPrecondition: a snapshot is only valid for its run — the
  // operational limitation this backend trades for portability.
  Result<std::string> GetPayload(const std::string& tag,
                                 uint32_t run) const override;
  std::string BackendName() const override { return "conditions-snapshot"; }

  uint32_t run() const { return run_; }
  std::vector<std::string> Tags() const;
  /// GetPayload calls served so far. Atomic: steps of a parallel workflow
  /// may consult conditions concurrently.
  uint64_t lookup_count() const { return lookup_count_.load(); }

 private:
  uint32_t run_ = 0;
  std::string source_ = "unknown";
  std::map<std::string, std::string> payloads_;
  mutable std::atomic<uint64_t> lookup_count_{0};
};

}  // namespace daspos

#endif  // DASPOS_CONDITIONS_SNAPSHOT_H_
