#include "archive/replicated_store.h"

#include <algorithm>
#include <cassert>

#include "support/logging.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"
#include "support/trace.h"

namespace daspos {

ReplicatedObjectStore::ReplicatedObjectStore(std::vector<ObjectStore*> replicas)
    : replicas_(std::move(replicas)) {
  assert(!replicas_.empty() && "a replicated store needs >= 1 replica");
  using namespace metric_names;
  MetricsRegistry& registry = MetricsRegistry::Global();
  read_repairs_ = &registry.GetCounter(kArchiveReadRepairsTotal);
  degraded_reads_ = &registry.GetCounter(kArchiveDegradedReadsTotal);
  put_failures_ = &registry.GetCounter(kArchiveReplicaPutFailuresTotal);
  fallbacks_ = &registry.GetCounter(kArchiveReplicaFallbacksTotal);
}

Result<std::string> ReplicatedObjectStore::Put(std::string_view bytes) {
  Span span("replica:put", "archive");
  span.AddAttribute("replicas", static_cast<uint64_t>(replicas_.size()));
  size_t accepted = 0;
  Status first_failure = Status::OK();
  std::string id;
  for (ObjectStore* replica : replicas_) {
    auto put = replica->Put(bytes);
    if (put.ok()) {
      ++accepted;
      id = std::move(put).value();
    } else {
      put_failures_->Increment();
      if (first_failure.ok()) first_failure = put.status();
    }
  }
  if (accepted >= quorum()) return id;
  // The write is not durable enough to acknowledge: fewer than a majority
  // of replicas hold it. Surface the first underlying error.
  return Status::IOError("quorum write failed (" + std::to_string(accepted) +
                         "/" + std::to_string(replicas_.size()) +
                         " replicas accepted, need " +
                         std::to_string(quorum()) + "): " +
                         first_failure.ToString());
}

Result<std::string> ReplicatedObjectStore::Get(const std::string& id) const {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  Span span("replica:get", "archive");
  // Walk replicas in order; remember every replica that failed, and why,
  // so the healthy bytes can heal them before the read returns.
  struct Unhealthy {
    size_t replica;
    Status why;  // Corruption: rot, or bytes that passed its gate but not
                 // SHA-256; anything else: missing or unreachable
  };
  std::vector<Unhealthy> unhealthy;
  Status last_error = Status::NotFound("object " + id + " not in any replica");
  for (size_t i = 0; i < replicas_.size(); ++i) {
    auto got = replicas_[i]->Get(id);
    if (got.ok()) {
      // The replication layer's own SHA-256 gate: a backend whose Get gate
      // is weaker (the packfile checksum) must still never leak rot.
      if (Sha256::HashHex(*got) != id) {
        fallbacks_->Increment();
        last_error =
            Status::Corruption("fixity mismatch for object " + id +
                               " on replica " + std::to_string(i));
        unhealthy.push_back({i, last_error});
        continue;
      }
      // Read-repair: re-Put the verified bytes into every replica the read
      // fell past (missing the object or holding rot). A rotted or forged
      // copy is quarantined first, which keeps it as forensic evidence and
      // makes the Put store fresh bytes (a forgery passes the gate a Put
      // dedupes on). A repair counts only once the replica verifies.
      for (const Unhealthy& bad : unhealthy) {
        ObjectStore* replica = replicas_[bad.replica];
        if (bad.why.IsCorruption()) {
          Status set_aside = replica->Quarantine(id, bad.why.message());
          if (!set_aside.ok()) {
            DASPOS_LOG(kWarning) << "read-repair of object " << id
                                 << " on replica " << bad.replica
                                 << " kept no evidence: "
                                 << set_aside.ToString();
          }
        }
        auto healed = replica->Put(*got);
        Status verified = healed.ok() ? replica->Verify(id) : healed.status();
        if (verified.ok()) {
          read_repairs_->Increment();
        } else {
          DASPOS_LOG(kWarning)
              << "read-repair of object " << id << " on replica "
              << bad.replica << " failed: " << verified.ToString();
        }
      }
      // Degraded mode: the serving replica is in the minority once the
      // read fell past >= quorum replicas. Serve, but warn loudly — the
      // archive is one failure away from data loss.
      if (unhealthy.size() >= quorum()) {
        degraded_reads_->Increment();
        DASPOS_LOG(kWarning)
            << "degraded read of object " << id << ": only "
            << replicas_.size() - unhealthy.size() << "/" << replicas_.size()
            << " replicas healthy";
      }
      return got;
    }
    fallbacks_->Increment();
    last_error = got.status();
    unhealthy.push_back({i, last_error});
  }
  return last_error;
}

bool ReplicatedObjectStore::Has(const std::string& id) const {
  for (ObjectStore* replica : replicas_) {
    if (replica->Has(id)) return true;
  }
  return false;
}

Status ReplicatedObjectStore::Verify(const std::string& id) const {
  DASPOS_RETURN_IF_ERROR(ValidateObjectId(id));
  // An audit, not a repair: the object survives if at least one replica
  // holds verifying bytes. The scrubber is the healer.
  size_t present = 0;
  Status last_error = Status::NotFound("object " + id + " not in any replica");
  for (ObjectStore* replica : replicas_) {
    Status status = replica->Verify(id);
    if (status.ok()) ++present;
    if (!status.ok()) last_error = status;
  }
  if (present > 0) return Status::OK();
  return last_error;
}

Status ReplicatedObjectStore::ForEachId(
    const std::function<Status(const std::string&)>& fn) const {
  std::vector<std::string> ids;
  Status walk = Status::OK();
  for (ObjectStore* replica : replicas_) {
    Status status = replica->ForEachId([&ids](const std::string& id) {
      ids.push_back(id);
      return Status::OK();
    });
    if (walk.ok()) walk = status;
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (const std::string& id : ids) {
    DASPOS_RETURN_IF_ERROR(fn(id));
  }
  return walk;
}

Result<uint64_t> ReplicatedObjectStore::TotalBytes() const {
  uint64_t max_bytes = 0;
  for (ObjectStore* replica : replicas_) {
    DASPOS_ASSIGN_OR_RETURN(uint64_t bytes, replica->TotalBytes());
    max_bytes = std::max(max_bytes, bytes);
  }
  return max_bytes;
}

Result<std::vector<std::string>> ReplicatedObjectStore::QuarantinedIds()
    const {
  std::vector<std::string> out;
  for (ObjectStore* replica : replicas_) {
    DASPOS_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                            replica->QuarantinedIds());
    out.insert(out.end(), ids.begin(), ids.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace daspos
