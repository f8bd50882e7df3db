// Incremental fixity scrubbing — the "periodic scrub" half of bit
// preservation (H1/DPHEP): walk every object on every replica on a
// schedule, re-hash the real bytes, repair rot from a healthy replica, and
// leave a persistent cursor so an interrupted pass resumes where it
// stopped instead of starting over.
#ifndef DASPOS_ARCHIVE_SCRUB_H_
#define DASPOS_ARCHIVE_SCRUB_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serialize/json.h"
#include "support/result.h"

namespace daspos {

class ObjectStore;
class ThreadPool;

struct ScrubOptions {
  /// Directory holding the persistent JSONL cursor (`scrub_cursor.jsonl`,
  /// journal idiom: append-fsynced lines, truncation-tolerant load). Empty
  /// runs a stateless full pass.
  std::string cursor_dir;
  /// Upper bound on objects scrubbed by this invocation; 0 = no bound. A
  /// truncated pass reports incomplete (warn) and the cursor carries the
  /// position into the next invocation.
  size_t max_objects = 0;
  /// Rate limit in objects/second across the pass; 0 = unthrottled. The
  /// limiter sleeps between batches, so a burst never exceeds one batch.
  double rate_limit_per_s = 0.0;
  /// Objects per batch: the granularity of cursor checkpoints, rate
  /// limiting, and parallel sharding.
  size_t batch_size = 64;
  /// Pool for intra-batch parallel verification (not owned; null = serial).
  ThreadPool* pool = nullptr;
  /// Sleep hook for the rate limiter (milliseconds); tests override to
  /// avoid real waiting. Defaults to std::this_thread::sleep_for.
  std::function<void(double)> sleeper;
};

enum class ScrubVerdict { kPass = 0, kWarn = 1, kFail = 2 };
std::string_view ScrubVerdictName(ScrubVerdict verdict);

/// One object the scrubber could not heal: no replica holds verifying
/// bytes. The scrubber quarantines the rotted copies; healthy bytes
/// must come from outside (e.g. an operator restoring from cold storage).
struct UnrepairableObject {
  std::string id;
  std::string detail;
};

struct ScrubReport {
  uint64_t pass_number = 0;
  /// Objects examined this invocation / total in the union of holdings.
  uint64_t objects_checked = 0;
  uint64_t objects_total = 0;
  /// Per-replica copy verifications (objects_checked x replicas).
  uint64_t replicas_checked = 0;
  /// Rotted or missing replica copies healed from a healthy replica.
  uint64_t repaired = 0;
  std::vector<UnrepairableObject> unrepairable;  // sorted by id
  /// False when max_objects truncated the pass before the end of holdings.
  bool complete = true;
  double wall_ms = 0.0;

  /// fail: any unrepairable object. warn: the pass was truncated
  /// (incomplete coverage is not a clean bill of health). pass: everything
  /// examined is healthy on every replica — including objects the scrubber
  /// itself just repaired, since healing is its job.
  ScrubVerdict Verdict() const;
  /// Deterministic operator report; exit-code contract mirrors
  /// `daspos validate` (0 pass / 2 warn / 1 fail).
  std::string RenderText() const;
  Json ToJson() const;
};

/// One scrub invocation over the union of holdings across `replicas`
/// (borrowed, not owned). Objects are visited in sorted-id order in batches
/// of `options.batch_size`; each batch verifies its objects on every
/// replica (sharded over `options.pool`), repairs unhealthy copies from a
/// healthy one, appends a cursor record, then yields to the rate limiter.
/// With a cursor_dir, a rerun resumes the interrupted pass after the last
/// checkpointed id; a completed pass starts the next one from the top.
Result<ScrubReport> ScrubReplicas(const std::vector<ObjectStore*>& replicas,
                                  const ScrubOptions& options = {});

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_SCRUB_H_
