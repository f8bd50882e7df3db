#include "archive/resilient_store.h"

namespace daspos {

// ---------------------------------------------------------- FaultyObjectStore

Result<std::string> FaultyObjectStore::Put(std::string_view bytes) {
  DASPOS_RETURN_IF_ERROR(plan_->Next("put"));
  return backend_->Put(bytes);
}

Result<std::string> FaultyObjectStore::Get(const std::string& id) const {
  DASPOS_RETURN_IF_ERROR(plan_->Next("get"));
  return backend_->Get(id);
}

Status FaultyObjectStore::Verify(const std::string& id,
                                 std::string* bytes) const {
  DASPOS_RETURN_IF_ERROR(plan_->Next("verify"));
  return backend_->Verify(id, bytes);
}

Result<std::vector<std::string>> FaultyObjectStore::PutBatch(
    const std::vector<std::string_view>& blobs, ThreadPool* pool) {
  (void)pool;  // Serial: keeps plan ordinals deterministic per blob.
  std::vector<std::string> ids;
  ids.reserve(blobs.size());
  for (std::string_view blob : blobs) {
    DASPOS_RETURN_IF_ERROR(plan_->Next("put"));
    DASPOS_ASSIGN_OR_RETURN(std::string id, backend_->Put(blob));
    ids.push_back(std::move(id));
  }
  return ids;
}

// -------------------------------------------------------- RetryingObjectStore

Result<std::string> RetryingObjectStore::Put(std::string_view bytes) {
  return RetryResult<std::string>(
      policy_, [&]() { return backend_->Put(bytes); }, "object-store put");
}

Result<std::string> RetryingObjectStore::Get(const std::string& id) const {
  return RetryResult<std::string>(
      policy_, [&]() { return backend_->Get(id); }, "object-store get " + id);
}

Status RetryingObjectStore::Verify(const std::string& id,
                                   std::string* bytes) const {
  return RetryCall(
      policy_, [&]() { return backend_->Verify(id, bytes); },
      "object-store verify " + id);
}

}  // namespace daspos
