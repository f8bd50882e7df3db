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
  read_repairs_ =
      &registry.GetCounter(kArchiveReadRepairsTotal,
                           "rotted/missing replica copies healed during Get");
  degraded_reads_ = &registry.GetCounter(
      kArchiveDegradedReadsTotal,
      "reads served while only a minority of replicas was healthy");
  put_failures_ =
      &registry.GetCounter(kArchiveReplicaPutFailuresTotal,
                           "per-replica Put failures inside quorum writes");
  fallbacks_ = &registry.GetCounter(
      kArchiveReplicaFallbacksTotal, "reads that fell past an unhealthy replica");
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
  // Walk replicas in order; remember every replica that failed so the
  // healthy bytes can heal them before the read returns.
  struct Unhealthy {
    size_t replica;
    bool served_forgery;  // bytes that passed its own gate but not SHA-256
  };
  std::vector<Unhealthy> unhealthy;
  Status last_error = Status::NotFound("object " + id + " not in any replica");
  for (size_t i = 0; i < replicas_.size(); ++i) {
    auto got = replicas_[i]->Get(id);
    if (got.ok()) {
      // The replication layer's own SHA-256 gate: a backend whose Get gate
      // is weaker (the packfile checksum) must still never leak rot.
      if (Sha256::HashHex(*got) != id) {
        unhealthy.push_back({i, true});
        fallbacks_->Increment();
        last_error =
            Status::Corruption("fixity mismatch for object " + id +
                               " on replica " + std::to_string(i));
        continue;
      }
      // Read-repair: re-Put the verified bytes into every replica the read
      // fell past (missing the object or holding rot). Re-Put heals in
      // place; a FileObjectStore keeps its quarantined forensic copy. A
      // replica that served a forgery is audited first: its Put would
      // dedupe on the gate the forgery passes, and the audit quarantines
      // the forged copy so the Put appends a good one. A repair counts
      // only once the replica verifies.
      for (const Unhealthy& bad : unhealthy) {
        ObjectStore* replica = replicas_[bad.replica];
        if (bad.served_forgery) (void)replica->Verify(id);
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
    unhealthy.push_back({i, false});
    fallbacks_->Increment();
    last_error = got.status();
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
  // holds verifying bytes. (FileObjectStore replicas quarantine their own
  // rotted copies as a side effect; the scrubber is the healer.)
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

uint64_t ReplicatedObjectStore::TotalBytes() const {
  uint64_t max_bytes = 0;
  for (ObjectStore* replica : replicas_) {
    max_bytes = std::max(max_bytes, replica->TotalBytes());
  }
  return max_bytes;
}

std::vector<std::string> ReplicatedObjectStore::QuarantinedIds() const {
  std::vector<std::string> out;
  for (ObjectStore* replica : replicas_) {
    std::vector<std::string> ids = replica->QuarantinedIds();
    out.insert(out.end(), ids.begin(), ids.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace daspos
