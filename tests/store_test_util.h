// Helpers shared by the object-store test suites.
#ifndef DASPOS_TESTS_STORE_TEST_UTIL_H_
#define DASPOS_TESTS_STORE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
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

}  // namespace daspos

#endif  // DASPOS_TESTS_STORE_TEST_UTIL_H_
