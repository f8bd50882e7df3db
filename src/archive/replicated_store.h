// Replicated, self-healing object storage — the bit-preservation layer the
// H1/DPHEP status reports name as the reason their archives survived
// decades: every object lives on N independent backend stores, writes need
// a quorum, and reads that hit a rotted copy fall back to a healthy replica
// and repair the rot in place.
#ifndef DASPOS_ARCHIVE_REPLICATED_STORE_H_
#define DASPOS_ARCHIVE_REPLICATED_STORE_H_

#include <string>
#include <vector>

#include "archive/object_store.h"

namespace daspos {

/// ObjectStore over N backend replicas (none owned; all must outlive the
/// decorator).
///
/// Write path: `Put` writes to every replica and succeeds when at least a
/// quorum (N/2 + 1) of them accepted the bytes; per-replica failures are
/// counted (daspos_archive_replica_put_failures_total) but do not fail the
/// operation while the quorum holds. `PutBatch` is the base fan-out over
/// `Put`, so each blob gets full quorum semantics.
///
/// Read path: `Get` walks the replicas in order and serves the first copy
/// whose bytes re-hash to the id. The SHA-256 gate lives in this layer too
/// because a backend's own Get gate may be weaker: the packfile backend
/// checks a 64-bit checksum, which a forged record can match. Every replica
/// that failed before the healthy one — missing the object or holding rot —
/// is then *read-repaired*: a rotted or forged copy is quarantined, then
/// the healthy bytes are re-put.
/// When the serving replica is in the minority (the read fell past >=
/// quorum unhealthy replicas), the read still succeeds but is counted in
/// daspos_archive_degraded_reads_total and logged — degraded mode serves
/// with warnings rather than refusing.
///
/// `Verify` is an audit: it checks every replica and is clean only when at
/// least one replica verifies; it never repairs (scrub does that).
/// Enumeration unions the replicas: ForEachId/QuarantinedIds merge and
/// dedupe, TotalBytes reports the most complete replica (healthy replication
/// makes them equal; during rot or backfill the max is the logical holdings).
class ReplicatedObjectStore : public ObjectStore {
 public:
  explicit ReplicatedObjectStore(std::vector<ObjectStore*> replicas);

  size_t replica_count() const { return replicas_.size(); }
  /// Minimum replicas that must accept a write: N/2 + 1.
  size_t quorum() const { return replicas_.size() / 2 + 1; }

  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  bool Has(const std::string& id) const override;
  Status Verify(const std::string& id) const override;
  /// Visits the sorted union of the replicas' walks; returns the first
  /// replica walk error after visiting everything reachable.
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override;
  /// Both fail with the first replica error.
  Result<uint64_t> TotalBytes() const override;
  Result<std::vector<std::string>> QuarantinedIds() const override;

 private:
  std::vector<ObjectStore*> replicas_;
  Counter* read_repairs_;
  Counter* degraded_reads_;
  Counter* put_failures_;
  Counter* fallbacks_;
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_REPLICATED_STORE_H_
