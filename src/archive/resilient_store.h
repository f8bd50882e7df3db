// Object-store decorators for the fault-tolerance layer.
//
// FaultyObjectStore injects deterministic transient failures in front of a
// real backend (chaos testing); RetryingObjectStore recovers from transient
// failures with a RetryPolicy. Stacked as Retrying(Faulty(real)), they prove
// in tests that the retry machinery converges to the fault-free result.
#ifndef DASPOS_ARCHIVE_RESILIENT_STORE_H_
#define DASPOS_ARCHIVE_RESILIENT_STORE_H_

#include <string>
#include <vector>

#include "archive/object_store.h"
#include "support/fault.h"
#include "support/retry.h"

namespace daspos {

/// Wraps a backend and consults a FaultPlan before every keyed operation.
/// Injected failures are transient IOErrors; the backend is not touched on
/// an injected failure, mimicking a storage layer that dropped the request.
/// Neither pointer is owned; both must outlive the decorator.
class FaultyObjectStore : public ObjectStore {
 public:
  FaultyObjectStore(ObjectStore* backend, FaultPlan* plan)
      : backend_(backend), plan_(plan) {}

  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  bool Has(const std::string& id) const override;
  Status Verify(const std::string& id) const override;
  // Quarantine and enumeration pass through without drawing fault-plan
  // ordinals, so scripted plans keep hitting the same reads and writes.
  Status Quarantine(const std::string& id, const std::string& reason) override {
    return backend_->Quarantine(id, reason);
  }
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override {
    return backend_->ForEachId(fn);
  }
  Result<uint64_t> TotalBytes() const override {
    return backend_->TotalBytes();
  }
  Result<std::vector<std::string>> QuarantinedIds() const override {
    return backend_->QuarantinedIds();
  }

  /// Per-blob injection with deterministic plan ordinals: blob i consumes
  /// the i-th "put" slot regardless of pool size, so scripted "nth=K" specs
  /// hit the same blob on every run. Serial by design — a parallel fan-out
  /// would randomize which blob draws which ordinal.
  Result<std::vector<std::string>> PutBatch(
      const std::vector<std::string_view>& blobs,
      ThreadPool* pool = nullptr) override;

 private:
  ObjectStore* backend_;
  FaultPlan* plan_;
};

/// Wraps a backend and retries transient failures per the policy. Permanent
/// failures (NotFound, InvalidArgument, Corruption) pass through untouched.
/// PutBatch is the base fan-out, so each blob runs its own retry loop and
/// one flaky object never burns the retry budget of its batchmates.
/// The backend is not owned and must outlive the decorator.
class RetryingObjectStore : public ObjectStore {
 public:
  RetryingObjectStore(ObjectStore* backend, RetryPolicy policy)
      : backend_(backend), policy_(std::move(policy)) {}

  Result<std::string> Put(std::string_view bytes) override;
  Result<std::string> Get(const std::string& id) const override;
  /// Has has no error channel, so a transient backend failure reads as
  /// "absent": a false is asked again, up to the policy's attempt count and
  /// without backoff, before it is believed.
  bool Has(const std::string& id) const override;
  Status Verify(const std::string& id) const override;
  Status Quarantine(const std::string& id, const std::string& reason) override {
    return backend_->Quarantine(id, reason);
  }
  Status ForEachId(const std::function<Status(const std::string&)>& fn)
      const override {
    return backend_->ForEachId(fn);
  }
  Result<uint64_t> TotalBytes() const override {
    return backend_->TotalBytes();
  }
  Result<std::vector<std::string>> QuarantinedIds() const override {
    return backend_->QuarantinedIds();
  }

 private:
  ObjectStore* backend_;
  RetryPolicy policy_;
};

}  // namespace daspos

#endif  // DASPOS_ARCHIVE_RESILIENT_STORE_H_
