// Tests for the packfile object-store backend: roundtrips, sealing + mmap
// reads, block compression, the two-tier integrity model (fast checksum
// gate on Get, SHA-256 authority on Verify), quarantine + heal semantics,
// torn-tail and torn-index recovery, segment rollover, and the backend
// spec grammar.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <filesystem>
#include <fstream>
#include <random>

#include "archive/backend.h"
#include "archive/object_store.h"
#include "archive/pack_store.h"
#include "serialize/json.h"
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"
#include "support/threadpool.h"
#include "store_test_util.h"

namespace daspos {
namespace {

namespace fs = std::filesystem;

uint64_t CounterNow(const char* name) {
  return MetricsRegistry::Global().CounterValue(name);
}

class PackStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("daspos_pack_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()) +
              "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  std::string Dir(const std::string& name) const { return base_ + "/" + name; }

  std::string base_;
};

// Payload of the first record: 16-byte segment header + 64-byte record
// header.
constexpr uint64_t kFirstPayload =
    kPackSegmentHeaderSize + kPackRecordHeaderSize;

// ---------------------------------------------------------- Roundtrips --

// Dedupe is the index's job: a re-Put or a re-batch of stored bytes
// appends no record. The store contract suite checks the ids and sizes.
TEST_F(PackStoreTest, DedupedPutsAppendNoRecord) {
  PackObjectStore store(Dir("pack"));
  const uint64_t appends_before = CounterNow("daspos_pack_appends_total");
  ASSERT_TRUE(store.Put("same bytes").ok());
  ASSERT_TRUE(store.Put("same bytes").ok());
  EXPECT_EQ(CounterNow("daspos_pack_appends_total"), appends_before + 1);

  std::vector<std::string> blobs;
  for (int i = 0; i < 24; ++i) {
    blobs.push_back("batched blob " + std::to_string(i * i));
  }
  std::vector<std::string_view> views(blobs.begin(), blobs.end());
  ThreadPool pool(4);
  ASSERT_TRUE(store.PutBatch(views, &pool).ok());
  const uint64_t batched = CounterNow("daspos_pack_appends_total");
  EXPECT_EQ(batched, appends_before + 1 + blobs.size());
  ASSERT_TRUE(store.PutBatch(views, &pool).ok());
  EXPECT_EQ(CounterNow("daspos_pack_appends_total"), batched);
}

TEST_F(PackStoreTest, ReopenServesSealedSegmentsViaMmap) {
  std::vector<std::string> ids;
  {
    PackObjectStore store(Dir("pack"));
    for (int i = 0; i < 5; ++i) {
      auto id = store.Put("blob number " + std::to_string(i));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  ASSERT_TRUE(FileExists(PackIndexPath(Dir("pack"))));

  PackObjectStore reopened(Dir("pack"));
  const uint64_t mmap_before = CounterNow("daspos_pack_mmap_reads_total");
  const uint64_t rebuilds_before =
      CounterNow("daspos_pack_index_rebuilds_total");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(*reopened.Get(ids[static_cast<size_t>(i)]),
              "blob number " + std::to_string(i));
  }
  // A sealed store reopens off its sidecar (no rebuild scan) and serves
  // every cold read zero-copy from the mapping.
  EXPECT_EQ(CounterNow("daspos_pack_mmap_reads_total"), mmap_before + 5);
  EXPECT_EQ(CounterNow("daspos_pack_index_rebuilds_total"), rebuilds_before);
  EXPECT_EQ(reopened.TotalBytes().value(),
            5u * std::string("blob number 0").size());
}

// A record read counts once whichever read made it: an audit reads
// through Verify alone, and must show its reads.
TEST_F(PackStoreTest, GetAndVerifyEachCountOneRecordRead) {
  const std::string payload = "one sealed record, read twice";
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put(payload);
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }
  PackObjectStore store(Dir("pack"));
  const uint64_t reads_before = CounterNow(metric_names::kPackReadsTotal);
  const uint64_t bytes_before = CounterNow(metric_names::kPackReadBytesTotal);
  const uint64_t mmap_before = CounterNow(metric_names::kPackMmapReadsTotal);
  EXPECT_EQ(*store.Get(id), payload);
  EXPECT_TRUE(store.Verify(id).ok());
  EXPECT_EQ(CounterNow(metric_names::kPackReadsTotal), reads_before + 2);
  EXPECT_EQ(CounterNow(metric_names::kPackMmapReadsTotal), mmap_before + 2);
  EXPECT_EQ(CounterNow(metric_names::kPackReadBytesTotal),
            bytes_before + 2 * payload.size());
}

TEST_F(PackStoreTest, MissingSidecarTriggersRebuildScan) {
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put("survives without its index");
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }
  ASSERT_TRUE(RemoveFile(PackIndexPath(Dir("pack"))).ok());

  const uint64_t rebuilds_before =
      CounterNow("daspos_pack_index_rebuilds_total");
  PackObjectStore reopened(Dir("pack"));
  EXPECT_EQ(CounterNow("daspos_pack_index_rebuilds_total"),
            rebuilds_before + 1);
  EXPECT_EQ(*reopened.Get(id), "survives without its index");
}

TEST_F(PackStoreTest, GarbageSidecarTriggersRebuildScan) {
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put("index is only an optimization");
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }
  std::ofstream(PackIndexPath(Dir("pack")), std::ios::binary)
      << "not a pack index at all";

  PackObjectStore reopened(Dir("pack"));
  EXPECT_EQ(*reopened.Get(id), "index is only an optimization");
  EXPECT_TRUE(reopened.Verify(id).ok());
}

// --------------------------------------------------------- Compression --

TEST_F(PackStoreTest, CompressionRoundtripsAndSavesSpace) {
  PackOptions options;
  options.compress = true;
  std::string compressible(16 * 1024, 'r');
  // Deterministic incompressible bytes: the codec must store them raw.
  std::string incompressible(4096, '\0');
  std::mt19937 rng(1234567u);
  for (char& byte : incompressible) {
    byte = static_cast<char>(rng() & 0xff);
  }

  std::string id_text, id_noise;
  {
    PackObjectStore store(Dir("packz"), options);
    auto text = store.Put(compressible);
    auto noise = store.Put(incompressible);
    ASSERT_TRUE(text.ok());
    ASSERT_TRUE(noise.ok());
    id_text = *text;
    id_noise = *noise;
    // Identity is over the raw bytes: compression never changes ids.
    EXPECT_EQ(id_text, Sha256::HashHex(compressible));
    EXPECT_LT(store.StoredBytes(), store.TotalBytes().value());
    ASSERT_TRUE(store.Flush().ok());
  }

  PackObjectStore reopened(Dir("packz"), options);
  EXPECT_EQ(*reopened.Get(id_text), compressible);
  EXPECT_EQ(*reopened.Get(id_noise), incompressible);
  EXPECT_TRUE(reopened.Verify(id_text).ok());
  EXPECT_TRUE(reopened.Verify(id_noise).ok());
  EXPECT_EQ(reopened.TotalBytes().value(),
            compressible.size() + incompressible.size());
}

TEST_F(PackStoreTest, CompressedStoreReadableWithoutCompressionOption) {
  // `compress` is a write-side policy; record flags make every store
  // readable by every configuration.
  PackOptions compressing;
  compressing.compress = true;
  std::string id;
  {
    PackObjectStore store(Dir("pack"), compressing);
    auto put = store.Put(std::string(8192, 'z'));
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }
  PackObjectStore plain(Dir("pack"));
  EXPECT_EQ(*plain.Get(id), std::string(8192, 'z'));
}

// --------------------------------------------- Integrity gates + heal --

TEST_F(PackStoreTest, ChecksumGateRefusesRotAndQuarantineThenRePutHeals) {
  const std::string payload = "bytes that will rot on disk";
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put(payload);
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }

  // Rot one payload byte behind the store's back, then reopen (the sealed
  // sidecar still indexes the record — rot is found at read time, exactly
  // like the loose backend).
  FlipByte(PackSegmentPath(Dir("pack")), kFirstPayload + 3);
  PackObjectStore store(Dir("pack"));
  const uint64_t failures_before =
      CounterNow("daspos_pack_checksum_failures_total");
  for (int read = 0; read < 2; ++read) {
    auto rotted = store.Get(id);
    EXPECT_TRUE(rotted.status().IsCorruption());
    EXPECT_NE(rotted.status().message().find("stored checksum mismatch"),
              std::string::npos);
  }
  EXPECT_EQ(CounterNow("daspos_pack_checksum_failures_total"),
            failures_before + 2);
  // Reads write nothing: the record stays indexed (Corruption, not
  // NotFound) and no log appears.
  EXPECT_TRUE(store.Verify(id).IsCorruption());
  EXPECT_TRUE(store.QuarantinedIds().value().empty());
  EXPECT_FALSE(FileExists(Dir("pack") + "/quarantine.jsonl"));

  // Quarantine drops the condemned record from the index; the quarantine
  // log remembers it.
  ASSERT_TRUE(store.Quarantine(id, "stored checksum mismatch").ok());
  EXPECT_TRUE(store.Get(id).status().IsNotFound());
  EXPECT_TRUE(store.Verify(id).IsNotFound());
  EXPECT_EQ(store.QuarantinedIds().value(), std::vector<std::string>{id});
  EXPECT_TRUE(FileExists(Dir("pack") + "/quarantine.jsonl"));

  // Re-putting the good bytes appends a superseding record: that IS the
  // heal (read-repair and scrub rely on it).
  auto healed = store.Put(payload);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, id);
  EXPECT_EQ(*store.Get(id), payload);
  EXPECT_TRUE(store.Verify(id).ok());
  // History survives the heal — the rotted bytes are still on disk as
  // evidence, and QuarantinedIds reports everything ever condemned.
  EXPECT_EQ(store.QuarantinedIds().value(), std::vector<std::string>{id});
}

TEST_F(PackStoreTest, QuarantineStandsAcrossReopen) {
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put("rot me");
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }
  FlipByte(PackSegmentPath(Dir("pack")), kFirstPayload);
  {
    PackObjectStore store(Dir("pack"));
    EXPECT_TRUE(store.Get(id).status().IsCorruption());
    ASSERT_TRUE(store.Quarantine(id, "stored checksum mismatch").ok());
  }
  // The quarantine log replays on open: the condemned record must not be
  // resurrected by the (still valid-looking) sidecar.
  PackObjectStore reopened(Dir("pack"));
  EXPECT_TRUE(reopened.Get(id).status().IsNotFound());
  EXPECT_EQ(reopened.QuarantinedIds().value(), std::vector<std::string>{id});

  // And a heal survives ITS reopen: the superseding record wins over the
  // replayed quarantine.
  ASSERT_TRUE(reopened.Put("rot me").ok());
  ASSERT_TRUE(reopened.Flush().ok());
  PackObjectStore healed(Dir("pack"));
  EXPECT_EQ(*healed.Get(id), "rot me");
}

// A quarantine line whose position breaks the integer rule (Json::as_uint;
// a segment must also fit uint32_t) is the end of the valid log: it
// condemns nothing, and neither does any line after it.
TEST_F(PackStoreTest, QuarantineReplayStopsAtAnInvalidPosition) {
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put("healthy bytes");
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }
  auto line = [&id](Json segment, Json offset) {
    Json json = Json::Object();
    json["id"] = id;
    json["segment"] = std::move(segment);
    json["offset"] = std::move(offset);
    return json.Dump() + "\n";
  };
  const Json exact_offset(kFirstPayload);
  for (const std::string& log :
       {line(-1, exact_offset) + line(0, exact_offset),
        line(uint64_t{1} << 32, exact_offset) + line(0, exact_offset),
        line(0, static_cast<double>(kFirstPayload) + 0.5)}) {
    ASSERT_TRUE(
        WriteStringToFile(Dir("pack") + "/quarantine.jsonl", log).ok());
    PackObjectStore reopened(Dir("pack"));
    EXPECT_EQ(*reopened.Get(id), "healthy bytes") << log;
    EXPECT_TRUE(reopened.QuarantinedIds().value().empty()) << log;
  }
  // Control: the well-formed line alone does condemn the record.
  ASSERT_TRUE(WriteStringToFile(Dir("pack") + "/quarantine.jsonl",
                                line(0, exact_offset))
                  .ok());
  PackObjectStore condemned(Dir("pack"));
  EXPECT_TRUE(condemned.Get(id).status().IsNotFound());
}

// The two-tier model's deliberate gap, pinned down: an adversarial (or
// astronomically unlucky) corruption that rewrites payload AND matching
// checksum slips past the fast Get gate — and Verify, which always
// re-hashes with SHA-256, still catches it. This is why scrub and audit
// run Verify, never bare Get.
TEST_F(PackStoreTest, VerifyCatchesForgedChecksumThatGetMisses) {
  const std::string payload = "authority is sha-256, not the fast gate";
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put(payload);
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }

  const std::string forged = ForgeFirstPackRecord(Dir("pack"), payload);
  PackObjectStore store(Dir("pack"));
  auto got = store.Get(id);
  ASSERT_TRUE(got.ok());      // the gate passes...
  EXPECT_EQ(*got, forged);    // ...serving the forged bytes
  auto verified = store.Verify(id);
  EXPECT_TRUE(verified.IsCorruption());  // the authority does not
  EXPECT_EQ(*store.Get(id), forged);     // and the audit wrote nothing
  ASSERT_TRUE(store.Quarantine(id, verified.message()).ok());
  EXPECT_TRUE(store.Get(id).status().IsNotFound());
  EXPECT_EQ(store.QuarantinedIds().value(), std::vector<std::string>{id});
}

// A cached mapping of a sealed tail segment goes stale when the segment is
// unsealed and grown by later Puts. Reads of the new records must remap at
// the current size — quarantining off the short stale view would condemn
// healthy data with a PERSISTENT quarantine line (replayed on every
// reopen), leaving the object Corruption until an external re-Put.
TEST_F(PackStoreTest, StaleTailMappingRemapsInsteadOfQuarantining) {
  PackObjectStore store(Dir("pack"));
  auto first = store.Put("first sealed record");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(store.Flush().ok());
  // Cache a mapping of the sealed tail at its current (short) size.
  const uint64_t mmap_before = CounterNow("daspos_pack_mmap_reads_total");
  EXPECT_EQ(*store.Get(*first), "first sealed record");
  ASSERT_EQ(CounterNow("daspos_pack_mmap_reads_total"), mmap_before + 1);
  // Unseal + grow the tail, then re-seal so reads leave the pread path.
  auto second = store.Put("appended after the mapping was cached");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(store.Flush().ok());

  const uint64_t quarantines_before =
      CounterNow("daspos_pack_quarantines_total");
  EXPECT_EQ(*store.Get(*second), "appended after the mapping was cached");
  EXPECT_EQ(*store.Get(*first), "first sealed record");
  EXPECT_EQ(CounterNow("daspos_pack_quarantines_total"), quarantines_before);
  EXPECT_TRUE(store.QuarantinedIds().value().empty());
  EXPECT_FALSE(FileExists(Dir("pack") + "/quarantine.jsonl"));
}

// Batched re-puts must heal rot exactly like Put does: scrub backfill and
// bulk re-ingest go through PutBatch, and a pure presence check would skip
// the rotted id without appending the superseding record.
TEST_F(PackStoreTest, PutBatchRePutHealsRottedRecord) {
  const std::string payload = "batched bytes that rot on disk";
  std::string id;
  {
    PackObjectStore store(Dir("pack"));
    auto put = store.Put(payload);
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(store.Flush().ok());
  }
  FlipByte(PackSegmentPath(Dir("pack")), kFirstPayload + 1);

  PackObjectStore store(Dir("pack"));
  std::vector<std::string_view> batch{payload};
  auto ids = store.PutBatch(batch);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 1u);
  EXPECT_EQ((*ids)[0], id);
  EXPECT_EQ(*store.Get(id), payload);
  EXPECT_TRUE(store.Verify(id).ok());
  // The batch superseded the rotted record without quarantining it.
  EXPECT_TRUE(store.QuarantinedIds().value().empty());
}

// ------------------------------------------------------ Crash recovery --

TEST_F(PackStoreTest, TornTailTruncatedAndAppendsResume) {
  std::vector<std::string> ids;
  {
    PackObjectStore store(Dir("pack"));
    for (int i = 0; i < 3; ++i) {
      auto id = store.Put("record " + std::to_string(i));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    // No Flush: simulate a crash mid-append by truncating the last record's
    // payload and leaving no sidecar behind.
  }
  ASSERT_TRUE(RemoveFile(PackIndexPath(Dir("pack"))).ok());
  const uint64_t full_size = fs::file_size(PackSegmentPath(Dir("pack")));
  fs::resize_file(PackSegmentPath(Dir("pack")), full_size - 3);

  const uint64_t torn_before = CounterNow("daspos_pack_torn_records_total");
  PackObjectStore store(Dir("pack"));
  EXPECT_EQ(CounterNow("daspos_pack_torn_records_total"), torn_before + 1);
  // Everything before the torn record survives; the torn one is gone.
  EXPECT_EQ(*store.Get(ids[0]), "record 0");
  EXPECT_EQ(*store.Get(ids[1]), "record 1");
  EXPECT_TRUE(store.Get(ids[2]).status().IsNotFound());
  // The torn bytes were truncated away, so the segment appends cleanly.
  auto again = store.Put("record 2");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, ids[2]);
  EXPECT_EQ(*store.Get(ids[2]), "record 2");
  EXPECT_EQ(store.SegmentCount(), 1u);
}

// A record append that fails partway (here: the payload write hits
// RLIMIT_FSIZE after the header landed) leaves partial bytes at the true
// EOF. The store must cut the file back to the last known-good offset —
// otherwise every later append would be indexed at a stale offset
// (O_APPEND writes at the kernel's EOF, not the store's counter) and
// freshly written, healthy data would read back as corrupt.
TEST_F(PackStoreTest, FailedAppendDoesNotDesyncLaterOffsets) {
  PackObjectStore store(Dir("pack"));
  auto committed = store.Put("committed before the failure");
  ASSERT_TRUE(committed.ok());
  const uint64_t good_size = fs::file_size(PackSegmentPath(Dir("pack")));

  // Cap the file size so the 64-byte record header fits but the payload
  // write fails after a few bytes. SIGXFSZ must be ignored for write() to
  // report EFBIG instead of killing the process.
  (void)std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit old_limit;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit tight = old_limit;
  tight.rlim_cur = good_size + kPackRecordHeaderSize + 10;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &tight), 0);
  auto failed = store.Put(std::string(4096, 'x'));
  EXPECT_FALSE(failed.ok());
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  (void)std::signal(SIGXFSZ, SIG_DFL);

  // The partial record was cut away: the segment is byte-identical to its
  // last good state and every subsequent append lands where its index
  // entry says.
  EXPECT_EQ(fs::file_size(PackSegmentPath(Dir("pack"))), good_size);
  auto a = store.Put("appended after the failure");
  auto b = store.Put(std::string(2000, 'y'));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*store.Get(*a), "appended after the failure");
  EXPECT_EQ(*store.Get(*b), std::string(2000, 'y'));
  EXPECT_EQ(*store.Get(*committed), "committed before the failure");
  EXPECT_TRUE(store.Verify(*a).ok());
  EXPECT_TRUE(store.Verify(*b).ok());
  EXPECT_TRUE(store.QuarantinedIds().value().empty());

  // And the segment log is still internally consistent: a rebuild scan
  // (sidecar dropped) re-indexes everything.
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(RemoveFile(PackIndexPath(Dir("pack"))).ok());
  PackObjectStore reopened(Dir("pack"));
  EXPECT_EQ(*reopened.Get(*a), "appended after the failure");
  EXPECT_EQ(*reopened.Get(*b), std::string(2000, 'y'));
  EXPECT_EQ(*reopened.Get(*committed), "committed before the failure");
}

TEST_F(PackStoreTest, SealedSegmentDamageIsLeftInPlaceAsEvidence) {
  PackOptions options;
  // 100-byte payloads + 64-byte headers against a 200-byte cap: exactly one
  // record per segment.
  options.max_segment_bytes = 200;
  auto payload = [](int i) { return std::string(100, static_cast<char>('a' + i)); };
  std::vector<std::string> ids;
  {
    PackObjectStore store(Dir("pack"), options);
    for (int i = 0; i < 3; ++i) {
      auto id = store.Put(payload(i));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  ASSERT_EQ(fs::file_size(PackSegmentPath(Dir("pack"), 1)),
            fs::file_size(PackSegmentPath(Dir("pack"), 0)));

  // Smash the record header magic inside sealed (non-tail) segment 1 and
  // force rebuild scans everywhere.
  WriteAt(PackSegmentPath(Dir("pack"), 1), kPackSegmentHeaderSize, "XXXX");
  const uint64_t damaged_size = fs::file_size(PackSegmentPath(Dir("pack"), 1));
  for (unsigned segment = 0; segment < 3; ++segment) {
    ASSERT_TRUE(RemoveFile(PackIndexPath(Dir("pack"), segment)).ok());
  }

  PackObjectStore store(Dir("pack"), options);
  // Only the tail segment may be truncated; the damaged sealed segment
  // keeps its bytes on disk for forensics.
  EXPECT_EQ(fs::file_size(PackSegmentPath(Dir("pack"), 1)), damaged_size);
  EXPECT_EQ(*store.Get(ids[0]), payload(0));
  EXPECT_TRUE(store.Get(ids[1]).status().IsNotFound());
  EXPECT_EQ(*store.Get(ids[2]), payload(2));
}

// ------------------------------------------------------------ Rollover --

TEST_F(PackStoreTest, SegmentsRollOverAtSizeCap) {
  PackOptions options;
  options.max_segment_bytes = 256;
  PackObjectStore store(Dir("pack"), options);
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = store.Put(std::string(100, static_cast<char>('a' + i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // 100-byte payloads + 64-byte headers against a 256-byte cap: one record
  // per segment.
  EXPECT_EQ(store.SegmentCount(), 4u);
  // An oversized blob is stored anyway, alone in its own segment.
  auto big = store.Put(std::string(1000, 'Z'));
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(store.Flush().ok());

  PackObjectStore reopened(Dir("pack"), options);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(*reopened.Get(ids[static_cast<size_t>(i)]),
              std::string(100, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(*reopened.Get(*big), std::string(1000, 'Z'));
  // Every sealed segment has its sidecar.
  for (size_t segment = 0; segment < reopened.SegmentCount(); ++segment) {
    EXPECT_TRUE(FileExists(PackIndexPath(Dir("pack"),
                                   static_cast<unsigned>(segment))))
        << segment;
  }
}

// SegmentCount reports .seg files actually present, not the highest
// segment number: numbering goes sparse once compaction (or an operator)
// removes a middle segment, and repack reporting counts real files.
TEST_F(PackStoreTest, SegmentCountTracksActualFilesNotNumbering) {
  PackOptions options;
  options.max_segment_bytes = 200;  // one 100-byte record per segment
  std::vector<std::string> ids;
  {
    PackObjectStore store(Dir("pack"), options);
    for (int i = 0; i < 3; ++i) {
      auto id = store.Put(std::string(100, static_cast<char>('a' + i)));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(store.Flush().ok());
    EXPECT_EQ(store.SegmentCount(), 3u);
  }
  // Simulate external compaction deleting the middle segment.
  fs::remove(PackSegmentPath(Dir("pack"), 1));
  fs::remove(PackIndexPath(Dir("pack"), 1));

  PackObjectStore reopened(Dir("pack"), options);
  EXPECT_EQ(reopened.SegmentCount(), 2u);
  EXPECT_EQ(*reopened.Get(ids[0]), std::string(100, 'a'));
  EXPECT_EQ(*reopened.Get(ids[2]), std::string(100, 'c'));
  // Numbering keeps advancing past the gap; the count follows real files.
  auto more = reopened.Put(std::string(150, 'q'));
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(reopened.SegmentCount(), 3u);
  EXPECT_EQ(*reopened.Get(*more), std::string(150, 'q'));
}

// -------------------------------------------------------- Backend spec --

TEST_F(PackStoreTest, ParseStoreSpecGrammar) {
  auto file_spec = ParseStoreSpec("file:/x/loose");
  ASSERT_TRUE(file_spec.ok());
  EXPECT_EQ(file_spec->backend, StoreSpec::Backend::kFile);
  EXPECT_EQ(file_spec->root, "/x/loose");
  EXPECT_FALSE(file_spec->compress);

  auto pack_spec = ParseStoreSpec("pack:relative/dir");
  ASSERT_TRUE(pack_spec.ok());
  EXPECT_EQ(pack_spec->backend, StoreSpec::Backend::kPack);
  EXPECT_EQ(pack_spec->root, "relative/dir");
  EXPECT_FALSE(pack_spec->compress);
  EXPECT_EQ(BackendName(*pack_spec), "pack");

  auto packz_spec = ParseStoreSpec("pack+z:/x/z");
  ASSERT_TRUE(packz_spec.ok());
  EXPECT_EQ(packz_spec->backend, StoreSpec::Backend::kPack);
  EXPECT_TRUE(packz_spec->compress);
  EXPECT_EQ(BackendName(*packz_spec), "pack+z");

  // Typo'd schemes fail loudly instead of creating a literal "pak:x" dir.
  EXPECT_TRUE(ParseStoreSpec("pak:x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStoreSpec("").status().IsInvalidArgument());
  // A colon after the first slash is path punctuation, not a scheme.
  auto colon_path = ParseStoreSpec("/data/odd:name");
  ASSERT_TRUE(colon_path.ok());
  EXPECT_EQ(colon_path->root, "/data/odd:name");
}

TEST_F(PackStoreTest, BareDirSniffsLayout) {
  // A pack store's segments/ directory is the layout fingerprint.
  std::string id;
  {
    PackObjectStore pack(Dir("pack"));
    auto put = pack.Put("sniff me");
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(pack.Flush().ok());
  }
  auto sniffed = ParseStoreSpec(Dir("pack"));
  ASSERT_TRUE(sniffed.ok());
  EXPECT_EQ(sniffed->backend, StoreSpec::Backend::kPack);

  auto opened = OpenObjectStore(Dir("pack"));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*(*opened)->Get(id), "sniff me");

  // A loose (or not-yet-existing) directory sniffs to the file backend.
  FileObjectStore loose(Dir("loose"));
  ASSERT_TRUE(loose.Put("loose bytes").ok());
  auto loose_spec = ParseStoreSpec(Dir("loose"));
  ASSERT_TRUE(loose_spec.ok());
  EXPECT_EQ(loose_spec->backend, StoreSpec::Backend::kFile);
  auto fresh = ParseStoreSpec(Dir("does-not-exist"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->backend, StoreSpec::Backend::kFile);
}

}  // namespace
}  // namespace daspos
