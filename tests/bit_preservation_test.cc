// Tests for the PR-8 bit-preservation layer: the replicated self-healing
// store (quorum writes, fixity-gated reads, read-repair, degraded mode), the
// incremental scrubber (repair-from-replica, persistent cursor, rate limit),
// and copy-verify-swap generation migration (resume after crash, refuse the
// swap on verification failure).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "archive/migrate.h"
#include "archive/object_store.h"
#include "archive/pack_store.h"
#include "archive/replicated_store.h"
#include "archive/resilient_store.h"
#include "archive/scrub.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"
#include "support/threadpool.h"
#include "store_test_util.h"

namespace daspos {
namespace {

namespace fs = std::filesystem;

/// Fresh temp workspace per test; each replica/state dir is a subdirectory.
class BitPreservationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (fs::temp_directory_path() /
             ("daspos_bitpres_" + std::string(
                                      ::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()) +
              "_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  std::string Dir(const std::string& name) const { return base_ + "/" + name; }

  static std::string BlobPath(const std::string& root, const std::string& id) {
    return root + "/" + id.substr(0, 2) + "/" + id.substr(2);
  }

  static void Rot(const std::string& root, const std::string& id) {
    std::ofstream(BlobPath(root, id), std::ios::binary) << "bit rot";
  }

  std::string base_;
};

// ------------------------------------------------ ReplicatedObjectStore --

TEST_F(BitPreservationTest, QuorumPutSucceedsPastMinorityFailures) {
  MemoryObjectStore a, b, c;
  auto spec = FaultSpec::Parse("nth=1");  // the replica's only Put fails
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  FaultyObjectStore broken(&c, &plan);
  ReplicatedObjectStore store({&a, &b, &broken});
  EXPECT_EQ(store.quorum(), 2u);

  auto id = store.Put("replicated payload");
  ASSERT_TRUE(id.ok());  // 2/3 accepted >= quorum
  EXPECT_TRUE(a.Has(*id));
  EXPECT_TRUE(b.Has(*id));
  EXPECT_FALSE(c.Has(*id));
}

TEST_F(BitPreservationTest, PutFailsBelowQuorum) {
  MemoryObjectStore a, b, c;
  auto spec = FaultSpec::Parse("nth=1");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan_b(*spec), plan_c(*spec);
  FaultyObjectStore broken_b(&b, &plan_b);
  FaultyObjectStore broken_c(&c, &plan_c);
  ReplicatedObjectStore store({&a, &broken_b, &broken_c});
  auto id = store.Put("cannot reach quorum");
  EXPECT_TRUE(id.status().IsIOError());
  EXPECT_NE(id.status().message().find("quorum"), std::string::npos);
}

// The PR-8 acceptance test: rot one replica's bytes on disk; Get must
// return the correct bytes, repair the rotted copy in place, and leave a
// subsequent serial fixity audit over every replica clean.
TEST_F(BitPreservationTest, SelfHealingReadRepairsRottedReplica) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1")), r2(Dir("r2"));
  ReplicatedObjectStore store({&r0, &r1, &r2});
  auto id = store.Put("decades-scale custody");
  ASSERT_TRUE(id.ok());

  // Rot replica 0 behind the store's back (earlier in read order than the
  // healthy copies, so the falling-back Get can heal it).
  Rot(Dir("r0"), *id);

  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t repairs_before =
      registry.CounterValue(metric_names::kArchiveReadRepairsTotal);
  auto got = store.Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "decades-scale custody");
  EXPECT_EQ(registry.CounterValue(metric_names::kArchiveReadRepairsTotal),
            repairs_before + 1);

  // Every replica now verifies clean, serially, one by one.
  for (FileObjectStore* replica : {&r0, &r1, &r2}) {
    EXPECT_TRUE(replica->Verify(*id).ok());
    EXPECT_EQ(*replica->Get(*id), "decades-scale custody");
  }
  // Replica 0 kept the forensic copy of the rot it suffered.
  EXPECT_EQ(r0.QuarantinedIds().value(), std::vector<std::string>{*id});
}

TEST_F(BitPreservationTest, DegradedReadServesWithWarningCounter) {
  // Object lives only on the last replica: the read falls past a majority
  // of unhealthy replicas and must count a degraded read — but still serve.
  MemoryObjectStore a, b, c;
  auto id = c.Put("minority copy");
  ASSERT_TRUE(id.ok());
  ReplicatedObjectStore store({&a, &b, &c});

  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t degraded_before =
      registry.CounterValue(metric_names::kArchiveDegradedReadsTotal);
  auto got = store.Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "minority copy");
  EXPECT_EQ(registry.CounterValue(metric_names::kArchiveDegradedReadsTotal),
            degraded_before + 1);
  // Read-repair backfilled the two replicas the read fell past.
  EXPECT_TRUE(a.Has(*id));
  EXPECT_TRUE(b.Has(*id));
}

TEST_F(BitPreservationTest, ReplicationFixityGateBlocksForgedPackRecord) {
  // A pack replica's Get gate is a 64-bit checksum, and a forged record
  // matches it. The replication layer's own SHA-256 gate must refuse the
  // forgery, serve a healthy replica instead, and heal the pack replica.
  const std::string payload = "gated bytes";
  std::string id;
  {
    PackObjectStore sealed(Dir("pack"));
    auto put = sealed.Put(payload);
    ASSERT_TRUE(put.ok());
    id = *put;
    ASSERT_TRUE(sealed.Flush().ok());
  }
  const std::string forged = ForgeFirstPackRecord(Dir("pack"), payload);
  PackObjectStore a(Dir("pack"));
  MemoryObjectStore b;
  ASSERT_TRUE(b.Put(payload).ok());
  ASSERT_EQ(*a.Get(id), forged);
  ReplicatedObjectStore store({&a, &b});
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t repairs_before =
      registry.CounterValue(metric_names::kArchiveReadRepairsTotal);
  auto got = store.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(registry.CounterValue(metric_names::kArchiveReadRepairsTotal),
            repairs_before + 1);
  // Read-repair quarantines the forged record before its re-Put, so the
  // re-Put appends a good one (a bare re-Put would dedupe on the checksum
  // the forgery matches) and the pack replica verifies right after the
  // repairing Get.
  EXPECT_TRUE(a.Verify(id).ok());
  EXPECT_EQ(*a.Get(id), payload);
}

TEST_F(BitPreservationTest, VerifyIsAuditNotRepair) {
  MemoryObjectStore a, b;
  auto id = a.Put("audited");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(b.Put("audited").ok());
  ASSERT_TRUE(a.CorruptForTesting(*id, 1).ok());
  ReplicatedObjectStore store({&a, &b});
  // One replica verifies -> the object survives; the rotted copy is NOT
  // healed (that is Get's and the scrubber's job).
  EXPECT_TRUE(store.Verify(*id).ok());
  EXPECT_TRUE(a.Verify(*id).IsCorruption());
  // No replica verifying -> the audit fails.
  ASSERT_TRUE(b.CorruptForTesting(*id, 1).ok());
  EXPECT_FALSE(store.Verify(*id).ok());
}

TEST_F(BitPreservationTest, ReplicatedPutBatchReachesEveryReplica) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1")), r2(Dir("r2"));
  ReplicatedObjectStore store({&r0, &r1, &r2});
  std::vector<std::string> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back("batched replica payload " + std::to_string(i));
  }
  std::vector<std::string_view> blobs(payloads.begin(), payloads.end());
  ThreadPool pool(4);
  auto ids = store.PutBatch(blobs, &pool);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ((*ids)[i], Sha256::HashHex(payloads[i]));
    for (FileObjectStore* replica : {&r0, &r1, &r2}) {
      EXPECT_TRUE(replica->Verify((*ids)[i]).ok());
    }
  }
  // Enumeration views the union, deduped.
  EXPECT_EQ(CollectIds(store).size(), payloads.size());
  EXPECT_EQ(store.TotalBytes().value(), r0.TotalBytes().value());
}

TEST_F(BitPreservationTest, ReplicatedForEachIdUnionsAndReportsWalkErrors) {
  MemoryObjectStore a, b;
  auto only_a = a.Put("only on a");
  auto only_b = b.Put("only on b");
  ASSERT_TRUE(only_a.ok());
  ASSERT_TRUE(only_b.ok());
  ASSERT_TRUE(a.Put("on both").ok());
  ASSERT_TRUE(b.Put("on both").ok());
  // A replica whose root is a regular file cannot be walked.
  fs::create_directories(base_);
  std::ofstream(Dir("not_a_dir")) << "not a directory";
  FileObjectStore broken(Dir("not_a_dir"));
  ReplicatedObjectStore store({&a, &broken, &b});

  std::vector<std::string> walked;
  Status walk = store.ForEachId([&walked](const std::string& id) {
    walked.push_back(id);
    return Status::OK();
  });
  // Everything reachable is visited once, in order, before the error.
  EXPECT_TRUE(walk.IsIOError()) << walk.ToString();
  EXPECT_EQ(walked.size(), 3u);
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
  EXPECT_NE(std::find(walked.begin(), walked.end(), *only_a), walked.end());
  EXPECT_NE(std::find(walked.begin(), walked.end(), *only_b), walked.end());
}

// ----------------------------------------------------------- Scrub farm --

TEST_F(BitPreservationTest, ScrubRepairsRotAtAnyReplicaPosition) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1")), r2(Dir("r2"));
  ReplicatedObjectStore store({&r0, &r1, &r2});
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = store.Put("scrubbed object " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Rot the LAST replica's copy of one object — a position read-repair can
  // never reach (reads stop at the first healthy replica).
  Rot(Dir("r2"), ids[3]);

  ScrubOptions options;
  auto report = ScrubReplicas({&r0, &r1, &r2}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_checked, 6u);
  EXPECT_EQ(report->replicas_checked, 18u);
  EXPECT_EQ(report->repaired, 1u);
  EXPECT_TRUE(report->unrepairable.empty());
  EXPECT_TRUE(report->complete);
  EXPECT_EQ(report->Verdict(), ScrubVerdict::kPass);
  for (const std::string& id : ids) {
    for (FileObjectStore* replica : {&r0, &r1, &r2}) {
      EXPECT_TRUE(replica->Verify(id).ok());
    }
  }
}

TEST_F(BitPreservationTest, ScrubBackfillsMissingCopies) {
  // An object present on only one replica (e.g. after a degraded-mode
  // write) is under-replicated; the scrubber must backfill the holes.
  FileObjectStore r0(Dir("r0")), r1(Dir("r1")), r2(Dir("r2"));
  auto id = r1.Put("only on one replica");
  ASSERT_TRUE(id.ok());
  auto report = ScrubReplicas({&r0, &r1, &r2}, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->repaired, 2u);
  EXPECT_EQ(report->Verdict(), ScrubVerdict::kPass);
  for (FileObjectStore* replica : {&r0, &r1, &r2}) {
    EXPECT_TRUE(replica->Verify(*id).ok());
  }
}

TEST_F(BitPreservationTest, ScrubQuarantinesOnlyWhenUnrepairable) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1"));
  ReplicatedObjectStore store({&r0, &r1});
  auto id = store.Put("doomed object");
  ASSERT_TRUE(id.ok());
  Rot(Dir("r0"), *id);
  Rot(Dir("r1"), *id);

  auto report = ScrubReplicas({&r0, &r1}, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->repaired, 0u);
  ASSERT_EQ(report->unrepairable.size(), 1u);
  EXPECT_EQ(report->unrepairable[0].id, *id);
  EXPECT_EQ(report->Verdict(), ScrubVerdict::kFail);
  // Both rotted copies were quarantined (by the scrubber) — the forensic
  // evidence survives for an operator restore.
  EXPECT_EQ(r0.QuarantinedIds().value(), std::vector<std::string>{*id});
  EXPECT_EQ(r1.QuarantinedIds().value(), std::vector<std::string>{*id});
}

TEST_F(BitPreservationTest, ScrubCursorResumesInterruptedPass) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1"));
  ReplicatedObjectStore store({&r0, &r1});
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(store.Put("cursor object " + std::to_string(i)).ok());
  }
  ScrubOptions options;
  options.cursor_dir = Dir("cursor");
  options.max_objects = 3;
  options.batch_size = 2;

  // First invocation: truncated after 3 objects -> warn, incomplete.
  auto first = ScrubReplicas({&r0, &r1}, options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->pass_number, 1u);
  EXPECT_EQ(first->objects_checked, 3u);
  EXPECT_FALSE(first->complete);
  EXPECT_EQ(first->Verdict(), ScrubVerdict::kWarn);

  // Second invocation resumes the same pass and finishes the remaining 4.
  options.max_objects = 0;
  auto second = ScrubReplicas({&r0, &r1}, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->pass_number, 1u);
  EXPECT_EQ(second->objects_checked, 4u);
  EXPECT_TRUE(second->complete);
  EXPECT_EQ(second->Verdict(), ScrubVerdict::kPass);

  // Third invocation starts pass 2 from the top.
  auto third = ScrubReplicas({&r0, &r1}, options);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->pass_number, 2u);
  EXPECT_EQ(third->objects_checked, 7u);
}

TEST_F(BitPreservationTest, ScrubPassEndsWhenObjectsPastTheCursorAreGone) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1"));
  ReplicatedObjectStore store({&r0, &r1});
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = store.Put("vanishing object " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::sort(ids.begin(), ids.end());
  ScrubOptions options;
  options.cursor_dir = Dir("cursor");
  options.max_objects = 2;
  options.batch_size = 1;
  ASSERT_TRUE(ScrubReplicas({&r0, &r1}, options).ok());

  // The cursor stops at ids[1]; then everything after it is removed, so
  // the rest of pass 1 is empty.
  for (size_t i = 2; i < ids.size(); ++i) {
    fs::remove(BlobPath(Dir("r0"), ids[i]));
    fs::remove(BlobPath(Dir("r1"), ids[i]));
  }
  options.max_objects = 0;
  auto closing = ScrubReplicas({&r0, &r1}, options);
  ASSERT_TRUE(closing.ok());
  EXPECT_EQ(closing->pass_number, 1u);
  EXPECT_EQ(closing->objects_checked, 0u);
  EXPECT_TRUE(closing->complete);

  // The empty remainder closed pass 1: the next run scrubs pass 2.
  auto next = ScrubReplicas({&r0, &r1}, options);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->pass_number, 2u);
  EXPECT_EQ(next->objects_checked, 2u);
  EXPECT_EQ(next->Verdict(), ScrubVerdict::kPass);
}

TEST_F(BitPreservationTest, ScrubCursorLineWithNegativeCountEndsThePrefix) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1"));
  ReplicatedObjectStore store({&r0, &r1});
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(store.Put("cursor object " + std::to_string(i)).ok());
  }
  ScrubOptions options;
  options.cursor_dir = Dir("cursor");
  options.max_objects = 4;
  options.batch_size = 2;
  ASSERT_TRUE(ScrubReplicas({&r0, &r1}, options).ok());

  // Two checkpoints (after 2 and after 4 objects); corrupt the second's
  // count. Resume must start after the first: 5 objects remain, not 3.
  const std::string cursor_path = Dir("cursor") + "/scrub_cursor.jsonl";
  auto text = ReadFileToString(cursor_path);
  ASSERT_TRUE(text.ok());
  const size_t count = text->find("\"checked\":4,");
  ASSERT_NE(count, std::string::npos);
  std::string corrupted = *text;
  corrupted.replace(count, 12, "\"checked\":-1,");
  ASSERT_TRUE(WriteStringToFile(cursor_path, corrupted).ok());
  options.max_objects = 0;
  auto resumed = ScrubReplicas({&r0, &r1}, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->pass_number, 1u);
  EXPECT_EQ(resumed->objects_checked, 5u);
  EXPECT_TRUE(resumed->complete);
}

TEST_F(BitPreservationTest, ScrubRateLimiterSleepsBetweenBatches) {
  MemoryObjectStore a, b;
  ReplicatedObjectStore store({&a, &b});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.Put("throttled " + std::to_string(i)).ok());
  }
  double slept_ms = 0.0;
  int sleeps = 0;
  ScrubOptions options;
  options.batch_size = 2;
  options.rate_limit_per_s = 1000.0;  // 2 ms per 2-object batch
  options.sleeper = [&](double ms) {
    slept_ms += ms;
    ++sleeps;
  };
  auto report = ScrubReplicas({&a, &b}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(sleeps, 0);
  EXPECT_GT(slept_ms, 0.0);
  EXPECT_EQ(report->objects_checked, 8u);
}

TEST_F(BitPreservationTest, ScrubSerialAndParallelAgree) {
  auto fill = [&](const std::string& tag, FileObjectStore* r0,
                  FileObjectStore* r1) {
    ReplicatedObjectStore store({r0, r1});
    std::vector<std::string> ids;
    for (int i = 0; i < 12; ++i) {
      auto id = store.Put(tag + " object " + std::to_string(i));
      ids.push_back(*id);
    }
    return ids;
  };
  FileObjectStore s0(Dir("s0")), s1(Dir("s1"));
  FileObjectStore p0(Dir("p0")), p1(Dir("p1"));
  auto serial_ids = fill("same", &s0, &s1);
  auto parallel_ids = fill("same", &p0, &p1);
  Rot(Dir("s1"), serial_ids[5]);
  Rot(Dir("p1"), parallel_ids[5]);

  ScrubOptions serial_options;
  auto serial = ScrubReplicas({&s0, &s1}, serial_options);
  ThreadPool pool(4);
  ScrubOptions parallel_options;
  parallel_options.pool = &pool;
  auto parallel = ScrubReplicas({&p0, &p1}, parallel_options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->objects_checked, parallel->objects_checked);
  EXPECT_EQ(serial->repaired, parallel->repaired);
  EXPECT_EQ(serial->Verdict(), parallel->Verdict());
}

// ------------------------------------------------- Generation migration --

TEST_F(BitPreservationTest, MigrateCopiesVerifiesAndSwapsGeneration) {
  // Serial and pooled copy+verify must agree: same counts, same generation.
  ThreadPool pool(4);
  for (ThreadPool* migrate_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::string tag = migrate_pool == nullptr ? "serial" : "pool4";
    SCOPED_TRACE(tag);
    FileObjectStore source(Dir(tag + "_gen1"));
    std::vector<std::string> ids;
    for (int i = 0; i < 10; ++i) {
      auto id = source.Put("generation payload " + std::to_string(i));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    FileObjectStore target(Dir(tag + "_gen2"));
    MigrateOptions options;
    options.state_dir = Dir(tag + "_state");
    options.pool = migrate_pool;
    auto report = MigrateGeneration(source, target, options);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->generation, 1u);
    EXPECT_EQ(report->copied, 10u);
    EXPECT_EQ(report->skipped, 0u);
    EXPECT_EQ(report->verified, 10u);
    EXPECT_FALSE(report->resumed);
    EXPECT_EQ(ReadGeneration(options.state_dir), 1u);
    for (const std::string& id : ids) {
      EXPECT_TRUE(target.Verify(id).ok());
      EXPECT_TRUE(source.Verify(id).ok());  // source retained, untouched
    }
    // A second migration (same holdings) skips everything and bumps the
    // generation again.
    auto again = MigrateGeneration(source, target, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->generation, 2u);
    EXPECT_EQ(again->copied, 0u);
    EXPECT_EQ(again->skipped, 10u);
    EXPECT_EQ(again->verified, 10u);
  }
}

// The PR-8 acceptance test: fault injection kills the migration mid-copy; a
// resumed run completes with every target object re-hashed byte-identical.
TEST_F(BitPreservationTest, MigrateResumesAfterMidCopyCrash) {
  FileObjectStore source(Dir("old"));
  std::vector<std::string> ids;
  for (int i = 0; i < 9; ++i) {
    auto id = source.Put("survives the crash " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  FileObjectStore target(Dir("new"));
  MigrateOptions options;
  options.state_dir = Dir("state");
  options.batch_size = 2;

  // Inject a fault on the 5th copy operation — the run dies mid-copy.
  auto spec = FaultSpec::Parse("nth=5");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  options.faults = &plan;
  auto crashed = MigrateGeneration(source, target, options);
  EXPECT_FALSE(crashed.ok());
  EXPECT_EQ(ReadGeneration(Dir("state")), 0u);  // no swap
  // The only other state is the in-progress marker: no per-batch cursor.
  EXPECT_TRUE(FileExists(Dir("state") + "/MIGRATING"));
  EXPECT_FALSE(FileExists(Dir("state") + "/migrate_cursor.jsonl"));

  // The resumed run (no faults) completes: already-copied objects skip,
  // the rest copy, and EVERY object is re-hashed on the target.
  options.faults = nullptr;
  auto resumed = MigrateGeneration(source, target, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->resumed);
  EXPECT_GT(resumed->skipped, 0u);
  EXPECT_EQ(resumed->skipped + resumed->copied, 9u);
  EXPECT_EQ(resumed->verified, 9u);
  EXPECT_EQ(resumed->generation, 1u);
  EXPECT_EQ(ReadGeneration(Dir("state")), 1u);
  EXPECT_FALSE(FileExists(Dir("state") + "/MIGRATING"));
  for (const std::string& id : ids) {
    auto bytes = target.Get(id);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(Sha256::HashHex(*bytes), id);
  }
}

TEST_F(BitPreservationTest, MigrateCrashBeforeAnyBatchCompletesResumes) {
  // The marker precedes the first copy, so even a run that dies on it is
  // reported as resumed by the next invocation.
  FileObjectStore source(Dir("old"));
  ASSERT_TRUE(source.Put("first copy fails").ok());
  ASSERT_TRUE(source.Put("second copy never starts").ok());
  FileObjectStore target(Dir("new"));
  MigrateOptions options;
  options.state_dir = Dir("state");
  auto spec = FaultSpec::Parse("nth=1");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  options.faults = &plan;
  ASSERT_FALSE(MigrateGeneration(source, target, options).ok());
  options.faults = nullptr;
  auto resumed = MigrateGeneration(source, target, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->verified, 2u);
  // A clean run after the swap starts fresh.
  auto next = MigrateGeneration(source, target, options);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->resumed);
  EXPECT_EQ(next->generation, 2u);
}

TEST_F(BitPreservationTest, MigrateRefusesSwapWhenFinalVerifyFails) {
  FileObjectStore source(Dir("src"));
  ASSERT_TRUE(source.Put("will not certify").ok());
  FileObjectStore target(Dir("dst"));
  MigrateOptions options;
  options.state_dir = Dir("state");
  // Fault the final verification sweep: the copy phase passed one "copy"
  // op, so the 2nd consulted op is the verify.
  auto spec = FaultSpec::Parse("nth=2");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  options.faults = &plan;
  auto report = MigrateGeneration(source, target, options);
  EXPECT_FALSE(report.ok());
  // No generation marker: the swap never happened.
  EXPECT_EQ(ReadGeneration(Dir("state")), 0u);
}

TEST_F(BitPreservationTest, MigrateFromReplicatedSourceHealsWhileMoving) {
  // Migration composes with replication: the source can be a replica set,
  // and a rotted copy on the first replica is healed by the migration read.
  FileObjectStore r0(Dir("r0")), r1(Dir("r1"));
  ReplicatedObjectStore source({&r0, &r1});
  auto id = source.Put("replicated source object");
  ASSERT_TRUE(id.ok());
  Rot(Dir("r0"), *id);

  FileObjectStore target(Dir("next-gen"));
  MigrateOptions options;
  options.state_dir = Dir("state");
  auto report = MigrateGeneration(source, target, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->copied, 1u);
  EXPECT_TRUE(target.Verify(*id).ok());
  EXPECT_TRUE(r0.Verify(*id).ok());  // read-repair healed the source too
}

// ------------------------------------------- Pack backend in the fleet --

/// Flips a payload byte of the first record in a pack store's first
/// segment (simulated media rot on the packed copy).
void RotPack(const std::string& root) {
  FlipByte(PackSegmentPath(root),
           kPackSegmentHeaderSize + kPackRecordHeaderSize);
}

TEST_F(BitPreservationTest, ReadRepairHealsRottedPackReplica) {
  // Mixed-backend replica set: the packfile replica rots, the loose
  // replicas stay healthy, and the falling-back Get heals the packed copy
  // by re-putting (a superseding record in the pack).
  PackObjectStore r0(Dir("pack0"));
  FileObjectStore r1(Dir("r1")), r2(Dir("r2"));
  ReplicatedObjectStore store({&r0, &r1, &r2});
  auto id = store.Put("packed custody");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(r0.Flush().ok());  // seal: the rot is read through the mmap
  RotPack(Dir("pack0"));

  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t repairs_before =
      registry.CounterValue(metric_names::kArchiveReadRepairsTotal);
  auto got = store.Get(*id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "packed custody");
  EXPECT_EQ(registry.CounterValue(metric_names::kArchiveReadRepairsTotal),
            repairs_before + 1);
  EXPECT_TRUE(r0.Verify(*id).ok());
  EXPECT_EQ(r0.QuarantinedIds().value(), std::vector<std::string>{*id});
}

TEST_F(BitPreservationTest, ScrubHealsRotOnPackReplica) {
  FileObjectStore r0(Dir("r0")), r1(Dir("r1"));
  PackObjectStore r2(Dir("pack2"));
  ReplicatedObjectStore store({&r0, &r1, &r2});
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = store.Put("mixed fleet object " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(r2.Flush().ok());
  RotPack(Dir("pack2"));  // rots whichever object sits first in segment 0

  auto report = ScrubReplicas({&r0, &r1, &r2}, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_checked, 4u);
  EXPECT_EQ(report->repaired, 1u);
  EXPECT_TRUE(report->unrepairable.empty());
  EXPECT_EQ(report->Verdict(), ScrubVerdict::kPass);
  for (const std::string& id : ids) {
    EXPECT_TRUE(r2.Verify(id).ok());
  }
}

TEST_F(BitPreservationTest, ScrubBackfillsEmptyPackReplica) {
  // Promote a loose replica set to include a brand-new pack replica: the
  // scrubber backfills every object into the packfiles.
  FileObjectStore r0(Dir("r0")), r1(Dir("r1"));
  ReplicatedObjectStore loose({&r0, &r1});
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = loose.Put("backfill object " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  PackObjectStore pack(Dir("pack"));
  auto report = ScrubReplicas({&r0, &r1, &pack}, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->repaired, 5u);
  EXPECT_EQ(report->Verdict(), ScrubVerdict::kPass);
  for (const std::string& id : ids) {
    EXPECT_TRUE(pack.Verify(id).ok());
  }
}

TEST_F(BitPreservationTest, RepackMigrationResumesAfterFaultAbort) {
  // The `daspos repack` path: loose source, pack target, fault-aborted
  // mid-copy, resumed from durable state — every digest byte-identical.
  FileObjectStore source(Dir("loose"));
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = source.Put("repacked object " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  PackObjectStore target(Dir("pack"));
  MigrateOptions options;
  options.state_dir = Dir("state");
  options.batch_size = 2;
  auto spec = FaultSpec::Parse("nth=4");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  options.faults = &plan;
  auto crashed = MigrateGeneration(source, target, options);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(ReadGeneration(Dir("state")), 0u);

  options.faults = nullptr;
  auto resumed = MigrateGeneration(source, target, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->verified, 6u);
  EXPECT_GT(resumed->skipped, 0u);  // the pre-crash copies were reused
  EXPECT_EQ(ReadGeneration(Dir("state")), 1u);
  ASSERT_TRUE(target.Flush().ok());

  PackObjectStore reopened(Dir("pack"));
  for (size_t i = 0; i < ids.size(); ++i) {
    auto bytes = reopened.Get(ids[i]);
    ASSERT_TRUE(bytes.ok()) << ids[i];
    EXPECT_EQ(*bytes, "repacked object " + std::to_string(i));
    EXPECT_EQ(Sha256::HashHex(*bytes), ids[i]);
  }
}

}  // namespace
}  // namespace daspos
