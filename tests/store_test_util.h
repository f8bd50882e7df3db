// Helpers shared by the object-store test suites.
#ifndef DASPOS_TESTS_STORE_TEST_UTIL_H_
#define DASPOS_TESTS_STORE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "archive/object_store.h"
#include "archive/pack_store.h"
#include "support/checksum.h"

namespace daspos {

/// Every id `store` enumerates, in walk order. The walk status is dropped:
/// tests that check it call ForEachId directly.
inline std::vector<std::string> CollectIds(const ObjectStore& store) {
  std::vector<std::string> ids;
  (void)store.ForEachId([&ids](const std::string& id) {
    ids.push_back(id);
    return Status::OK();
  });
  return ids;
}

/// XORs one byte of a file in place (simulated media rot).
inline void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x5a));
  ASSERT_TRUE(file.good()) << path;
}

/// Overwrites `bytes` at `offset` of an existing file.
inline void WriteAt(const std::string& path, uint64_t offset,
                    const std::string& bytes) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Segment log and sidecar index paths of a pack store at `root`.
inline std::string PackSegmentPath(const std::string& root,
                                   unsigned segment = 0) {
  char name[32];
  std::snprintf(name, sizeof(name), "%06u.seg", segment);
  return root + "/segments/" + name;
}
inline std::string PackIndexPath(const std::string& root,
                                 unsigned segment = 0) {
  char name[32];
  std::snprintf(name, sizeof(name), "%06u.idx", segment);
  return root + "/segments/" + name;
}

/// Forges the only record of the sealed pack store at `root`, whose raw
/// payload is `payload`: flips a payload byte and writes the checksum of
/// the forged bytes into both the record header and the sidecar index
/// entry. The checksum gate on Get cannot tell the forged bytes (returned)
/// from the real ones; only SHA-256 can.
inline std::string ForgeFirstPackRecord(const std::string& root,
                                        const std::string& payload) {
  std::string forged = payload;
  forged[5] = static_cast<char>(forged[5] ^ 0x5a);
  std::string checksum(8, '\0');
  for (size_t i = 0; i < 8; ++i) {
    checksum[i] = static_cast<char>((Checksum64(forged) >> (8 * i)) & 0xff);
  }
  const std::string segment = PackSegmentPath(root);
  WriteAt(segment, kPackSegmentHeaderSize + kPackRecordHeaderSize, forged);
  WriteAt(segment, kPackSegmentHeaderSize + kPackRecordChecksumOffset,
          checksum);
  // Index entry: raw id, offset, raw_len, stored_len, then the checksum.
  WriteAt(PackIndexPath(root), kPackIndexHeaderSize + 56, checksum);
  return forged;
}

/// Forwards every call to `inner` and counts the reads: Gets and Verifies
/// per id, Has calls in total. Thread-safe, so a pooled pass can run on it.
class CountingObjectStore : public ObjectStore {
 public:
  explicit CountingObjectStore(ObjectStore* inner) : inner_(inner) {}

  Result<std::string> Put(std::string_view bytes) override {
    return inner_->Put(bytes);
  }
  Result<std::string> Get(const std::string& id) const override {
    Count(&gets_, id);
    return inner_->Get(id);
  }
  bool Has(const std::string& id) const override {
    Count(&has_, id);
    return inner_->Has(id);
  }
  Status Verify(const std::string& id) const override {
    Count(&verifies_, id);
    return inner_->Verify(id);
  }
  Status Quarantine(const std::string& id,
                    const std::string& reason) override {
    return inner_->Quarantine(id, reason);
  }
  Status ForEachId(
      const std::function<Status(const std::string&)>& fn) const override {
    return inner_->ForEachId(fn);
  }
  Result<uint64_t> TotalBytes() const override { return inner_->TotalBytes(); }
  Result<std::vector<std::string>> QuarantinedIds() const override {
    return inner_->QuarantinedIds();
  }

  std::map<std::string, int> gets() const { return Snapshot(gets_); }
  std::map<std::string, int> verifies() const { return Snapshot(verifies_); }
  std::map<std::string, int> has() const { return Snapshot(has_); }
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    gets_.clear();
    verifies_.clear();
    has_.clear();
  }

 private:
  void Count(std::map<std::string, int>* counts, const std::string& id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(*counts)[id];
  }
  std::map<std::string, int> Snapshot(
      const std::map<std::string, int>& counts) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counts;
  }

  ObjectStore* inner_;
  mutable std::mutex mutex_;
  mutable std::map<std::string, int> gets_;
  mutable std::map<std::string, int> verifies_;
  mutable std::map<std::string, int> has_;
};

}  // namespace daspos

#endif  // DASPOS_TESTS_STORE_TEST_UTIL_H_
