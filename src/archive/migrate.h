// Copy-verify-swap generation migration — the "media migration" half of bit
// preservation: every few hardware generations the whole archive is copied
// onto new storage, every copied object is re-hashed on the *target* before
// it counts, and only when the complete holdings verify does an atomic
// generation-marker swap make the new copy authoritative. The source is
// never modified or deleted: rollback is "keep using generation N".
#ifndef DASPOS_ARCHIVE_MIGRATE_H_
#define DASPOS_ARCHIVE_MIGRATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serialize/json.h"
#include "support/result.h"

namespace daspos {

class FaultPlan;
class ObjectStore;
class ThreadPool;

struct MigrateOptions {
  /// Directory holding the migration's durable state: the JSONL copy cursor
  /// (`migrate_cursor.jsonl`) and the generation marker (`GENERATION`).
  /// Required — a migration without durable state cannot resume or swap.
  std::string state_dir;
  /// Objects per batch: granularity of cursor checkpoints and sharding.
  size_t batch_size = 64;
  /// Pool for intra-batch parallel copy+verify (not owned; null = serial).
  ThreadPool* pool = nullptr;
  /// Chaos hook: consulted before each copy ("migrate:copy") and each final
  /// verification ("migrate:verify"). An injected fault aborts the
  /// migration mid-flight exactly like a crash would; a rerun must resume.
  FaultPlan* faults = nullptr;
};

struct MigrateReport {
  /// The generation number the swap installed (previous marker + 1).
  uint64_t generation = 0;
  uint64_t objects_total = 0;
  /// Objects copied by this invocation vs. found already verifying on the
  /// target (a resumed run skips what the crashed run completed).
  uint64_t copied = 0;
  uint64_t skipped = 0;
  uint64_t bytes_copied = 0;
  /// Objects re-verified in the final full sweep before the swap (always
  /// == objects_total on success: every object, copied or skipped).
  uint64_t verified = 0;
  /// True when a prior interrupted migration's cursor was found.
  bool resumed = false;
  double wall_ms = 0.0;

  std::string RenderText() const;
  Json ToJson() const;
};

/// Migrates every object in `source` to `target` with copy-verify-swap:
///
///  1. Copy: each source object is fetched (fixity-gated), written to the
///     target, and the *target's* copy is read back and re-hashed before the
///     object counts as migrated. Progress checkpoints to a JSONL cursor
///     after every batch, so a crash at any point resumes — objects already
///     verifying on the target are skipped, anything else is re-copied.
///  2. Verify: a final sweep re-verifies every object on the target —
///     including ones skipped as already-present — so the swap never
///     certifies stale or rotted bytes.
///  3. Swap: the generation marker in `state_dir` is atomically replaced
///     (temp + fsync + rename) with generation N+1 and the verified object
///     count. The source store is left untouched.
///
/// Fails without swapping if any object cannot be copied or verified; the
/// cursor preserves progress for the next attempt.
Result<MigrateReport> MigrateGeneration(const ObjectStore& source,
                                        ObjectStore& target,
                                        const MigrateOptions& options);

/// Reads the current generation from `state_dir`'s marker; 0 when no
/// migration has completed yet, or when the marker does not parse or its
/// generation is not a valid uint (Json::as_uint).
uint64_t ReadGeneration(const std::string& state_dir);

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_MIGRATE_H_
