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
/// a replica's `Verify` proves (SHA-256 on every backend, so a forged pack
/// record that passes its own 64-bit Get gate is never served). Every
/// replica that failed before the healthy one — missing the object or
/// holding rot — is then *read-repaired*: a rotted or forged copy is
/// quarantined, then the proven bytes are re-put.
/// When the serving replica is in the minority (the read fell past >=
/// quorum unhealthy replicas), the read still succeeds but is counted in
/// daspos_archive_degraded_reads_total and logged — degraded mode serves
/// with warnings rather than refusing.
///
/// `Verify` is an audit: it walks the replicas in the same order and is
/// clean at the first one that proves the object (handing back its bytes
/// when asked); it never repairs (scrub does that).
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
  Status Verify(const std::string& id,
                std::string* bytes = nullptr) const override;
  /// Visits the sorted union of the replicas' walks; returns the first
  /// replica walk error after visiting everything reachable.
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override;
  /// Both fail with the first replica error.
  Result<uint64_t> TotalBytes() const override;
  Result<std::vector<std::string>> QuarantinedIds() const override;

 private:
  /// A replica whose Verify failed, and its status: Corruption for rot or
  /// a forgery, anything else for missing or unreachable.
  struct Unproven {
    size_t replica;
    Status why;
  };
  /// Asks each replica in order to prove `id` (filling `bytes` when given)
  /// and returns the first that does, or replica_count() when none does.
  /// Every replica asked before it lands in `unproven`.
  size_t FirstProven(const std::string& id, std::string* bytes,
                     std::vector<Unproven>* unproven) const;

  std::vector<ObjectStore*> replicas_;
  Counter* read_repairs_;
  Counter* degraded_reads_;
  Counter* put_failures_;
  Counter* fallbacks_;
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_REPLICATED_STORE_H_
