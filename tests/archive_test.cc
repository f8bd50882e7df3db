// Tests for the preservation archive: content addressing, deposits,
// retrieval with fixity, audits with injected corruption, and format
// migration with lineage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "archive/archive.h"
#include "archive/backend.h"
#include "support/compress.h"
#include "archive/object_store.h"
#include "archive/pack_store.h"
#include "archive/replicated_store.h"
#include "archive/resilient_store.h"
#include "lint/checks.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/retry.h"
#include "support/sha256.h"
#include "support/threadpool.h"
#include "store_test_util.h"

namespace daspos {
namespace {

/// A retry policy that never sleeps between attempts.
RetryPolicy NoWaitRetries(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.backoff_ms = 0.0;
  policy.sleeper = [](double) {};
  return policy;
}

// ------------------------------------------------- ObjectStore contract --
//
// One suite holds every backend and decorator to the same contract. A
// member owns a store under test and can rot one of its objects behind its
// back; every property below runs against every member.

/// Flips the first payload byte of the newest record for `id` in the pack
/// store at `root` (the suite's stores never roll past segment 0). A record
/// header holds the raw id 8 bytes in; the payload follows the header.
void RotPackRecord(const std::string& root, const std::string& id) {
  std::string raw_id;
  for (size_t i = 0; i < id.size(); i += 2) {
    raw_id.push_back(
        static_cast<char>(std::stoi(id.substr(i, 2), nullptr, 16)));
  }
  auto segment = ReadFileToString(PackSegmentPath(root));
  ASSERT_TRUE(segment.ok());
  size_t at = segment->rfind(raw_id);
  ASSERT_NE(at, std::string::npos) << "no pack record for " << id;
  FlipByte(PackSegmentPath(root),
           at - kPackRecordIdOffset + kPackRecordHeaderSize);
}

struct MemoryMember {
  static constexpr bool kRejectsMalformedIds = false;  // a map miss instead

  explicit MemoryMember(const std::string& /*dir*/) {}
  ObjectStore& store() { return store_; }
  void Rot(const std::string& id) {
    ASSERT_TRUE(store_.CorruptForTesting(id, 0).ok());
  }

  MemoryObjectStore store_;
};

/// A disk store opened from a backend spec, so OpenObjectStore's dispatch
/// is under test as well.
struct SpecMember {
  static constexpr bool kRejectsMalformedIds = true;

  SpecMember(const std::string& scheme, const std::string& dir)
      : dir_(dir), store_(OpenObjectStore(scheme + dir).value()) {}
  ObjectStore& store() { return *store_; }

  std::string dir_;
  std::unique_ptr<ObjectStore> store_;
};

struct FileMember : SpecMember {
  explicit FileMember(const std::string& dir) : SpecMember("file:", dir) {}
  void Rot(const std::string& id) {
    FlipByte(dir_ + "/" + id.substr(0, 2) + "/" + id.substr(2), 0);
  }
};

struct PackMember : SpecMember {
  explicit PackMember(const std::string& dir, const char* scheme = "pack:")
      : SpecMember(scheme, dir) {}
  void Rot(const std::string& id) { RotPackRecord(dir_, id); }
};

struct PackZMember : PackMember {
  explicit PackZMember(const std::string& dir) : PackMember(dir, "pack+z:") {}
};

/// Three in-memory replicas. Rot hits every copy, so no healthy replica is
/// left to serve or repair from.
struct ReplicatedMember {
  static constexpr bool kRejectsMalformedIds = true;

  explicit ReplicatedMember(const std::string& /*dir*/) {}
  ObjectStore& store() { return store_; }
  void Rot(const std::string& id) {
    for (MemoryObjectStore* replica : {&a_, &b_, &c_}) {
      ASSERT_TRUE(replica->CorruptForTesting(id, 0).ok());
    }
  }

  MemoryObjectStore a_, b_, c_;
  ReplicatedObjectStore store_{{&a_, &b_, &c_}};
};

/// Retrying(Faulty(Memory)): a seeded 30% transient fault rate on every
/// keyed operation, with enough attempts for the retries to converge.
struct RetryingMember {
  static constexpr bool kRejectsMalformedIds = false;

  explicit RetryingMember(const std::string& /*dir*/)
      : plan_(*FaultSpec::Parse("seed=5,rate=0.3")),
        faulty_(&backend_, &plan_),
        store_(&faulty_, NoWaitRetries(50)) {}
  ~RetryingMember() { EXPECT_GT(plan_.injected(), 0u); }  // faults fired
  ObjectStore& store() { return store_; }
  void Rot(const std::string& id) {
    ASSERT_TRUE(backend_.CorruptForTesting(id, 0).ok());
  }

  MemoryObjectStore backend_;
  FaultPlan plan_;
  FaultyObjectStore faulty_;
  RetryingObjectStore store_;
};

template <typename Member>
class ObjectStoreContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path().string() +
           "/daspos_contract_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    member_ = std::make_unique<Member>(dir_);
  }
  void TearDown() override {
    member_.reset();
    std::filesystem::remove_all(dir_);
  }

  ObjectStore& store() { return member_->store(); }

  std::string dir_;
  std::unique_ptr<Member> member_;
};

using ContractMembers =
    ::testing::Types<MemoryMember, FileMember, PackMember, PackZMember,
                     ReplicatedMember, RetryingMember>;
TYPED_TEST_SUITE(ObjectStoreContractTest, ContractMembers);

// 1. The id is the SHA-256 of the bytes; an absent id is NotFound.
TYPED_TEST(ObjectStoreContractTest, PutGetVerifyIsContentAddressed) {
  ObjectStore& store = this->store();
  const std::string payload = "hello preservation";
  auto id = store.Put(payload);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, Sha256::HashHex(payload));
  EXPECT_TRUE(store.Has(*id));
  EXPECT_EQ(*store.Get(*id), payload);
  EXPECT_TRUE(store.Verify(*id).ok());
  EXPECT_EQ(CollectIds(store), std::vector<std::string>{*id});
  EXPECT_EQ(store.TotalBytes().value(), payload.size());

  const std::string absent = Sha256::HashHex("never stored");
  EXPECT_TRUE(store.Get(absent).status().IsNotFound());
  EXPECT_TRUE(store.Verify(absent).IsNotFound());
  EXPECT_FALSE(store.Has(absent));
}

// 2. Identical bytes are stored once.
TYPED_TEST(ObjectStoreContractTest, IdenticalBytesDeduplicate) {
  ObjectStore& store = this->store();
  auto first = store.Put("same bytes");
  auto second = store.Put("same bytes");
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(CollectIds(store), std::vector<std::string>{*first});
  EXPECT_EQ(store.TotalBytes().value(), 10u);
}

// 3. Get refuses rotted bytes, Verify reports them, and a re-Put of the
// good bytes heals.
TYPED_TEST(ObjectStoreContractTest, RotIsCaughtAndRePutHeals) {
  ObjectStore& store = this->store();
  const std::string payload = "precious bytes";
  auto id = store.Put(payload);
  ASSERT_TRUE(id.ok());
  for (int round = 0; round < 2; ++round) {
    // Round 0 rots an object nothing has read yet and reads it; round 1
    // rots the healed (and read) copy and audits it.
    ASSERT_NO_FATAL_FAILURE(this->member_->Rot(*id));
    if (round == 0) {
      auto rotted = store.Get(*id);
      EXPECT_TRUE(rotted.status().IsCorruption())
          << (rotted.ok() ? "served rotted bytes" : rotted.status().ToString());
    } else {
      EXPECT_TRUE(store.Verify(*id).IsCorruption());
      EXPECT_FALSE(store.Get(*id).ok());
    }
    auto healed = store.Put(payload);
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(*healed, *id);
    auto got = store.Get(*id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, payload);
    EXPECT_TRUE(store.Verify(*id).ok());
  }
}

/// Every file under `dir` with the SHA-256 of its bytes, and every
/// directory, sorted (empty when `dir` does not exist).
std::string TreeDigest(const std::string& dir) {
  std::vector<std::string> lines;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    lines.push_back(entry.is_directory()
                        ? path + "/"
                        : path + " " +
                              Sha256::HashHex(ReadFileToString(path).value()));
  }
  std::sort(lines.begin(), lines.end());
  std::string digest;
  for (const std::string& line : lines) digest += line + "\n";
  return digest;
}

/// What every read of `store` answers about `ids` and its holdings.
std::string ReadEverything(const ObjectStore& store,
                           const std::vector<std::string>& ids) {
  std::string answers;
  for (const std::string& id : ids) {
    auto got = store.Get(id);
    answers += "get " + (got.ok() ? Sha256::HashHex(*got)
                                  : got.status().ToString()) +
               " has " + std::to_string(store.Has(id)) + " verify " +
               store.Verify(id).ToString() + "\n";
  }
  for (const std::string& id : CollectIds(store)) answers += id + "\n";
  auto total = store.TotalBytes();
  answers += "total " + (total.ok() ? std::to_string(*total)
                                    : total.status().ToString()) + "\n";
  const std::vector<std::string> quarantined = store.QuarantinedIds().value();
  for (const std::string& id : quarantined) {
    answers += "quarantined " + id + "\n";
  }
  return answers;
}

// 3b. Reads never write: after rot, every read answers the same each time
// (Corruption for the rotted copy) and a disk store's files do not change.
TYPED_TEST(ObjectStoreContractTest, ReadsAfterRotChangeNothing) {
  ObjectStore& store = this->store();
  auto rotted = store.Put("bytes that rot");
  auto healthy = store.Put("bytes that stay");
  ASSERT_TRUE(rotted.ok() && healthy.ok());
  ASSERT_NO_FATAL_FAILURE(this->member_->Rot(*rotted));
  const std::vector<std::string> ids = {*rotted, *healthy};
  const std::string tree = TreeDigest(this->dir_);
  const std::string first = ReadEverything(store, ids);
  EXPECT_TRUE(store.Get(*rotted).status().IsCorruption()) << first;
  EXPECT_EQ(*store.Get(*healthy), "bytes that stay");
  for (int round = 1; round < 3; ++round) {
    EXPECT_EQ(ReadEverything(store, ids), first) << "round " << round;
    EXPECT_EQ(TreeDigest(this->dir_), tree) << "round " << round;
  }
}

// 4. PutBatch returns ids in input order with or without a pool, and a
// repeated batch changes nothing.
TYPED_TEST(ObjectStoreContractTest, PutBatchKeepsInputOrderAtAnyPoolSize) {
  ObjectStore& store = this->store();
  std::vector<std::string> first, second;
  for (int i = 0; i < 12; ++i) {
    first.push_back("first batch blob " + std::to_string(i * i));
    second.push_back("second batch blob " + std::to_string(i * i));
  }
  first.push_back(first[3]);  // a duplicate inside one batch
  const std::vector<std::string_view> first_views(first.begin(), first.end());
  const std::vector<std::string_view> second_views(second.begin(),
                                                   second.end());
  ThreadPool pool(4);
  auto serial = store.PutBatch(first_views, nullptr);
  auto parallel = store.PutBatch(second_views, &pool);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  for (const auto& [blobs, ids] : {std::pair(&first, &*serial),
                                   std::pair(&second, &*parallel)}) {
    ASSERT_EQ(ids->size(), blobs->size());
    for (size_t i = 0; i < blobs->size(); ++i) {
      EXPECT_EQ((*ids)[i], Sha256::HashHex((*blobs)[i]));
      EXPECT_TRUE(store.Has((*ids)[i]));
      EXPECT_EQ(*store.Get((*ids)[i]), (*blobs)[i]);
    }
  }
  const std::vector<std::string> stored = CollectIds(store);
  EXPECT_EQ(stored.size(), 24u);
  const uint64_t bytes = store.TotalBytes().value();

  // Each batch again, at the other pool size: same ids, nothing new stored.
  EXPECT_EQ(*store.PutBatch(first_views, &pool), *serial);
  EXPECT_EQ(*store.PutBatch(second_views, nullptr), *parallel);
  EXPECT_EQ(CollectIds(store), stored);
  EXPECT_EQ(store.TotalBytes().value(), bytes);
}

// 5a. The walk is ascending; a callback error stops it and comes back
// unchanged.
TYPED_TEST(ObjectStoreContractTest, ForEachIdWalksAscendingAndStopsVerbatim) {
  ObjectStore& store = this->store();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.Put("enumerate " + std::to_string(i)).ok());
  }
  std::vector<std::string> walked;
  Status walk = store.ForEachId([&walked](const std::string& id) {
    walked.push_back(id);
    return Status::OK();
  });
  EXPECT_TRUE(walk.ok()) << walk.ToString();
  EXPECT_EQ(walked.size(), 8u);
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
  EXPECT_EQ(std::adjacent_find(walked.begin(), walked.end()), walked.end());

  size_t visited = 0;
  Status stopped = store.ForEachId([&visited](const std::string&) {
    return ++visited == 3 ? Status::Corruption("stop here") : Status::OK();
  });
  EXPECT_TRUE(stopped.IsCorruption());
  EXPECT_EQ(stopped.message(), "stop here");
  EXPECT_EQ(visited, 3u);
}

// 5b. A walk runs beside concurrent Puts, and its callback may re-enter the
// store: a walk that held the store's lock would deadlock, and under TSan a
// snapshot taken without it would race.
TYPED_TEST(ObjectStoreContractTest, ForEachIdRunsBesideConcurrentPuts) {
  ObjectStore& store = this->store();
  constexpr size_t kWrites = 64;
  std::atomic<bool> writing{true};
  std::thread writer([&store, &writing] {
    for (size_t i = 0; i < kWrites; ++i) {
      EXPECT_TRUE(store.Put("concurrent " + std::to_string(i)).ok());
    }
    writing = false;
  });
  size_t last_size = 0;
  // Walk for as long as the writer runs, and at least 20 times.
  for (int pass = 0; pass < 20 || writing; ++pass) {
    std::vector<std::string> walked;
    Status walk = store.ForEachId([&](const std::string& id) {
      walked.push_back(id);
      return store.Verify(id);
    });
    EXPECT_TRUE(walk.ok()) << walk.ToString();
    EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
    EXPECT_GE(walked.size(), last_size);  // objects are never removed
    last_size = walked.size();
  }
  writer.join();
  EXPECT_EQ(CollectIds(store).size(), kWrites);
}

// 6. A malformed or traversal id never resolves. Stores that splice ids
// into paths, or fan them out to replicas, reject them up front.
TYPED_TEST(ObjectStoreContractTest, MalformedIdsNeverResolve) {
  ObjectStore& store = this->store();
  auto id = store.Put("guarded");
  ASSERT_TRUE(id.ok());
  std::string upper = *id;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  for (const std::string& bad : {std::string("../x"), std::string(),
                                 std::string("not-an-id"),
                                 std::string("../../etc/passwd"),
                                 std::string("00ff"), upper}) {
    EXPECT_FALSE(store.Has(bad)) << bad;
    if (TypeParam::kRejectsMalformedIds) {
      EXPECT_TRUE(store.Get(bad).status().IsInvalidArgument()) << bad;
      EXPECT_TRUE(store.Verify(bad).IsInvalidArgument()) << bad;
    } else {
      EXPECT_TRUE(store.Get(bad).status().IsNotFound()) << bad;
      EXPECT_TRUE(store.Verify(bad).IsNotFound()) << bad;
    }
  }
}

class FileObjectStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("daspos_fos_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

// ------------------------------------------------- Memory store rot --

TEST(MemoryObjectStoreTest, RePutHealsCorruption) {
  MemoryObjectStore store;
  auto id = store.Put("precious bytes");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.CorruptForTesting(*id, 2).ok());
  ASSERT_TRUE(store.Verify(*id).IsCorruption());
  auto id2 = store.Put("precious bytes");
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, *id);
  EXPECT_TRUE(store.Verify(*id).ok());
  EXPECT_EQ(*store.Get(*id), "precious bytes");
}

TEST(MemoryObjectStoreTest, VerifyCatchesCorruption) {
  MemoryObjectStore store;
  auto id = store.Put("precious data");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store.Verify(*id).ok());
  ASSERT_TRUE(store.CorruptForTesting(*id, 3).ok());
  EXPECT_TRUE(store.Verify(*id).IsCorruption());
  EXPECT_TRUE(store.Verify("00ff").IsNotFound());
}

// ----------------------------------------------------------------- Archive

SubmissionPackage MakeSubmission() {
  SubmissionPackage sip;
  sip.title = "Z->mumu analysis preservation";
  sip.creator = "daspos-tests";
  sip.description = "AOD sample + analysis configuration";
  sip.keywords = {"Z boson", "dimuon", "preservation"};
  sip.context = Json::Object();
  sip.context["experiment"] = "CMS";
  sip.files.push_back({"data/aod.dat", "application/x-daspos-container",
                       std::string(500, 'd')});
  sip.files.push_back({"config/analysis.json", "application/json",
                       R"({"cut": 25.0})"});
  return sip;
}

TEST(ArchiveTest, DepositAndRetrieve) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto id = archive.Deposit(MakeSubmission());
  ASSERT_TRUE(id.ok());

  auto package = archive.Retrieve(*id);
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package->content.title, "Z->mumu analysis preservation");
  EXPECT_EQ(package->content.keywords.size(), 3u);
  EXPECT_EQ(package->content.context.Get("experiment").as_string(), "CMS");
  ASSERT_EQ(package->content.files.size(), 2u);
  EXPECT_EQ(package->content.files[0].logical_name, "data/aod.dat");
  EXPECT_EQ(package->content.files[0].bytes.size(), 500u);
  EXPECT_EQ(package->content.files[1].bytes, R"({"cut": 25.0})");
}

TEST(ArchiveTest, DepositValidation) {
  MemoryObjectStore store;
  Archive archive(&store);
  SubmissionPackage no_title = MakeSubmission();
  no_title.title.clear();
  EXPECT_TRUE(archive.Deposit(no_title).status().IsInvalidArgument());
  SubmissionPackage no_files = MakeSubmission();
  no_files.files.clear();
  EXPECT_TRUE(archive.Deposit(no_files).status().IsInvalidArgument());
  SubmissionPackage unnamed = MakeSubmission();
  unnamed.files[0].logical_name.clear();
  EXPECT_TRUE(archive.Deposit(unnamed).status().IsInvalidArgument());
}

TEST(ArchiveTest, IdenticalRedepositIsIdempotent) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto id1 = archive.Deposit(MakeSubmission());
  auto id2 = archive.Deposit(MakeSubmission());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, *id2);
  EXPECT_EQ(archive.Holdings().size(), 1u);
}

TEST(ArchiveTest, HoldingsSummarize) {
  MemoryObjectStore store;
  Archive archive(&store);
  ASSERT_TRUE(archive.Deposit(MakeSubmission()).ok());
  SubmissionPackage second = MakeSubmission();
  second.title = "second deposit";
  second.files[0].bytes = std::string(100, 'x');
  ASSERT_TRUE(archive.Deposit(second).ok());

  auto holdings = archive.Holdings();
  ASSERT_EQ(holdings.size(), 2u);
  EXPECT_EQ(holdings[0].deposit_sequence, 1u);
  EXPECT_EQ(holdings[1].deposit_sequence, 2u);
  EXPECT_EQ(holdings[1].title, "second deposit");
  EXPECT_EQ(holdings[0].file_count, 2u);
  EXPECT_EQ(holdings[0].total_bytes, 500u + 13u);  // data + json config
  EXPECT_TRUE(holdings[0].migrated_from.empty());
}

TEST(ArchiveTest, FixityAuditCleanThenCorrupted) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto id = archive.Deposit(MakeSubmission());
  ASSERT_TRUE(id.ok());

  FixityReport clean = ArchiveInventory::Take(store).Fixity();
  EXPECT_TRUE(clean.clean());
  EXPECT_EQ(clean.objects_checked, 3u);  // manifest + 2 files

  // Corrupt the large data object.
  std::string data_id = Sha256::HashHex(std::string(500, 'd'));
  ASSERT_TRUE(store.CorruptForTesting(data_id, 100).ok());
  FixityReport dirty = ArchiveInventory::Take(store).Fixity();
  EXPECT_FALSE(dirty.clean());
  ASSERT_EQ(dirty.corrupted_objects.size(), 1u);
  EXPECT_EQ(dirty.corrupted_objects[0], data_id);

  // Retrieval also refuses to hand out damaged content.
  EXPECT_TRUE(archive.Retrieve(*id).status().IsCorruption());
}

TEST(ArchiveTest, MigrationCreatesLinkedPackage) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto original_id = archive.Deposit(MakeSubmission());
  ASSERT_TRUE(original_id.ok());

  // Migrate: uppercase the json config (stand-in for a format conversion).
  auto migrated_id = archive.Migrate(
      *original_id,
      [](const PackageFile& file) -> Result<PackageFile> {
        PackageFile out = file;
        if (file.media_type == "application/json") {
          out.logical_name = file.logical_name + ".v2";
        }
        return out;
      },
      "config format v1 -> v2");
  ASSERT_TRUE(migrated_id.ok());
  EXPECT_NE(*migrated_id, *original_id);

  auto holdings = archive.Holdings();
  ASSERT_EQ(holdings.size(), 2u);
  EXPECT_EQ(holdings[1].migrated_from, *original_id);

  // Both packages remain retrievable (originals retained).
  EXPECT_TRUE(archive.Retrieve(*original_id).ok());
  auto migrated = archive.Retrieve(*migrated_id);
  ASSERT_TRUE(migrated.ok());
  EXPECT_EQ(migrated->content.files[1].logical_name,
            "config/analysis.json.v2");
}

TEST(ArchiveTest, MigratedManifestPutsLineageJustBeforeFiles) {
  // Migrate shares Deposit's manifest assembly; the lineage members land
  // just before "files", so migrated archive ids stay what they were.
  MemoryObjectStore store;
  Archive archive(&store);
  auto original_id = archive.Deposit(MakeSubmission());
  ASSERT_TRUE(original_id.ok());
  auto migrated_id = archive.Migrate(
      *original_id,
      [](const PackageFile& file) -> Result<PackageFile> { return file; },
      "identity");
  ASSERT_TRUE(migrated_id.ok());
  auto manifest = Json::Parse(*store.Get(*migrated_id));
  ASSERT_TRUE(manifest.ok());
  std::vector<std::string> keys;
  for (const auto& member : manifest->members()) keys.push_back(member.first);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "aip_version", "title", "creator", "description",
                      "keywords", "context", "migrated_from",
                      "migration_note", "files"}));
  EXPECT_EQ(manifest->Get("migrated_from").as_string(), *original_id);
  EXPECT_EQ(manifest->Get("migration_note").as_string(), "identity");
}

TEST(ArchiveTest, CompressionMigration) {
  // A real format migration: compress every payload; the original stays
  // retrievable, the migrated package round-trips through Decompress.
  MemoryObjectStore store;
  Archive archive(&store);
  SubmissionPackage sip = MakeSubmission();
  sip.files[0].bytes = std::string(4000, 'd') + "tail";
  auto original_id = archive.Deposit(sip);
  ASSERT_TRUE(original_id.ok());

  auto migrated_id = archive.Migrate(
      *original_id,
      [](const PackageFile& file) -> Result<PackageFile> {
        PackageFile out = file;
        out.bytes = Compress(file.bytes);
        out.media_type = file.media_type + "+dz01";
        return out;
      },
      "store compressed (DZ01)");
  ASSERT_TRUE(migrated_id.ok());

  auto migrated = archive.Retrieve(*migrated_id);
  ASSERT_TRUE(migrated.ok());
  auto original = archive.Retrieve(*original_id);
  ASSERT_TRUE(original.ok());
  for (size_t i = 0; i < migrated->content.files.size(); ++i) {
    const PackageFile& file = migrated->content.files[i];
    EXPECT_NE(file.media_type.find("+dz01"), std::string::npos);
    auto restored = Decompress(file.bytes);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, original->content.files[i].bytes);
  }
  // The compressed data file is smaller than the original.
  EXPECT_LT(migrated->content.files[0].bytes.size(),
            original->content.files[0].bytes.size());
}

TEST(ArchiveTest, MigrationTransformFailurePropagates) {
  MemoryObjectStore store;
  Archive archive(&store);
  auto id = archive.Deposit(MakeSubmission());
  ASSERT_TRUE(id.ok());
  auto failed = archive.Migrate(
      *id,
      [](const PackageFile&) -> Result<PackageFile> {
        return Status::Unimplemented("no converter for this media type");
      },
      "doomed");
  EXPECT_TRUE(failed.status().IsUnimplemented());
  EXPECT_EQ(archive.Holdings().size(), 1u);
}

TEST(ArchiveTest, RecoverCatalogFromBareStore) {
  // A fresh Archive over an existing store re-adopts all packages — the
  // long-lived-archive scenario (the store is the durable layer).
  MemoryObjectStore store;
  {
    Archive original(&store);
    ASSERT_TRUE(original.Deposit(MakeSubmission()).ok());
    SubmissionPackage second = MakeSubmission();
    second.title = "second";
    ASSERT_TRUE(original.Deposit(second).ok());
  }
  Archive fresh(&store);
  EXPECT_TRUE(fresh.Holdings().empty());
  auto found = fresh.RecoverCatalog();
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 2u);
  auto holdings = fresh.Holdings();
  ASSERT_EQ(holdings.size(), 2u);
  // Recovery is idempotent.
  ASSERT_TRUE(fresh.RecoverCatalog().ok());
  EXPECT_EQ(fresh.Holdings().size(), 2u);
  // Every recovered package is retrievable and fixity-clean.
  for (const HoldingSummary& holding : holdings) {
    EXPECT_TRUE(fresh.Retrieve(holding.archive_id).ok());
  }
  EXPECT_TRUE(ArchiveInventory::Take(store).Fixity().clean());
}

TEST(ArchiveTest, RetrieveUnknownIdFails) {
  MemoryObjectStore store;
  Archive archive(&store);
  EXPECT_TRUE(archive.Retrieve("0123abcd").status().IsNotFound());
}

TEST(ArchiveTest, FullLifecycleOverPackBackend) {
  // The archive layer is backend-agnostic: deposit, retrieve, catalog
  // recovery across a process restart, and a fixity audit all behave
  // identically when the store is packfiles instead of loose files.
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("daspos_archive_pack_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);
  std::string archive_id;
  {
    PackObjectStore store(root);
    Archive archive(&store);
    auto id = archive.Deposit(MakeSubmission());
    ASSERT_TRUE(id.ok());
    archive_id = *id;
    auto package = archive.Retrieve(archive_id);
    ASSERT_TRUE(package.ok());
    EXPECT_EQ(package->content.files.size(), MakeSubmission().files.size());
    ASSERT_TRUE(store.Flush().ok());
  }
  // Restart: a fresh Archive over the reopened (sealed, mmap-served) pack.
  PackObjectStore store(root);
  Archive fresh(&store);
  auto found = fresh.RecoverCatalog();
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 1u);
  auto package = fresh.Retrieve(archive_id);
  ASSERT_TRUE(package.ok());
  for (const PackageFile& file : package->content.files) {
    EXPECT_EQ(Sha256::HashHex(file.bytes),
              Sha256::HashHex(MakeSubmission()
                                  .files[static_cast<size_t>(
                                      &file - package->content.files.data())]
                                  .bytes));
  }
  FixityReport audit = ArchiveInventory::Take(store).Fixity();
  EXPECT_TRUE(audit.clean());
  EXPECT_GT(audit.objects_checked, 0u);
  std::filesystem::remove_all(root);
}

// ------------------------------------------------- Key validation (PR 3) --

TEST(ObjectIdValidationTest, AcceptsCanonicalIds) {
  EXPECT_TRUE(ValidateObjectId(Sha256::HashHex("anything")).ok());
}

TEST(ObjectIdValidationTest, RejectsMalformedIds) {
  EXPECT_TRUE(ValidateObjectId("").IsInvalidArgument());
  EXPECT_TRUE(ValidateObjectId("../../etc/passwd").IsInvalidArgument());
  EXPECT_TRUE(ValidateObjectId("0123abcd").IsInvalidArgument());  // too short
  std::string upper = Sha256::HashHex("x");
  upper[0] = 'A';
  EXPECT_TRUE(ValidateObjectId(upper).IsInvalidArgument());
  std::string slashed = Sha256::HashHex("x");
  slashed[10] = '/';
  EXPECT_TRUE(ValidateObjectId(slashed).IsInvalidArgument());
}

TEST_F(FileObjectStoreTest, MissingRootEnumeratesEmptyWithoutWalkErrors) {
  const MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t before =
      registry.CounterValue(metric_names::kArchiveWalkErrorsTotal);
  FileObjectStore store(root_);  // nothing was ever Put: legitimately empty
  EXPECT_TRUE(CollectIds(store).empty());
  EXPECT_EQ(store.TotalBytes().value(), 0u);
  EXPECT_TRUE(store.QuarantinedIds().value().empty());
  EXPECT_EQ(registry.CounterValue(metric_names::kArchiveWalkErrorsTotal),
            before);
}

TEST_F(FileObjectStoreTest, UnreadableRootCountsWalkErrors) {
  // A root that exists but cannot be iterated (here: a regular file) must
  // never enumerate as "empty, 0 bytes" silently — that would let a fixity
  // audit of a damaged store pass vacuously.
  {
    std::ofstream out(root_);
    out << "not a directory";
  }
  const MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t before =
      registry.CounterValue(metric_names::kArchiveWalkErrorsTotal);
  FileObjectStore store(root_);
  EXPECT_TRUE(CollectIds(store).empty());
  const uint64_t after_ids =
      registry.CounterValue(metric_names::kArchiveWalkErrorsTotal);
  EXPECT_GE(after_ids - before, 1u);
  // The accessors fail too, instead of reading as an empty store.
  EXPECT_TRUE(store.TotalBytes().status().IsIOError());
  EXPECT_TRUE(store.QuarantinedIds().status().IsIOError());
  EXPECT_GE(registry.CounterValue(metric_names::kArchiveWalkErrorsTotal) -
                after_ids,
            1u);
}

TEST_F(FileObjectStoreTest, UnreadableQuarantineAreaIsAnError) {
  FileObjectStore store(root_);
  ASSERT_TRUE(store.Put("held bytes").ok());
  {
    std::ofstream out(root_ + "/quarantine");
    out << "not a directory";
  }
  EXPECT_EQ(store.TotalBytes().value(), std::string("held bytes").size());
  auto quarantined = store.QuarantinedIds();
  ASSERT_FALSE(quarantined.ok());
  EXPECT_TRUE(quarantined.status().IsIOError());
  EXPECT_NE(quarantined.status().message().find("quarantine"),
            std::string::npos);
}

TEST_F(FileObjectStoreTest, RecoverCatalogOverUnreadableStoreIsNotVacuous) {
  {
    std::ofstream out(root_);
    out << "not a directory";
  }
  const MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t before =
      registry.CounterValue(metric_names::kArchiveWalkErrorsTotal);
  FileObjectStore store(root_);
  Archive archive(&store);
  // Since the streaming-walk rework, recovery REFUSES over an unreadable
  // store instead of certifying an empty catalog: "found nothing" and
  // "could not look" are now different outcomes by construction.
  auto recovered = archive.RecoverCatalog();
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsIOError());
  EXPECT_GE(registry.CounterValue(metric_names::kArchiveWalkErrorsTotal) -
                before,
            1u);
}

TEST_F(FileObjectStoreTest, RecoveryLeavesRottedObjectsToTheAudit) {
  // Package A's payload and package B's manifest rot. Recovery still
  // adopts A, and every audit names each rotted object once as corrupted,
  // in ascending id order.
  std::string payload_a, manifest_b;
  {
    FileObjectStore store(root_);
    Archive archive(&store);
    ASSERT_TRUE(archive.Deposit(MakeSubmission()).ok());
    SubmissionPackage other = MakeSubmission();
    other.title = "second package";
    other.files = {{"notes.txt", "text/plain", "second package notes"}};
    auto b = archive.Deposit(other);
    ASSERT_TRUE(b.ok());
    manifest_b = *b;
    payload_a = Sha256::HashHex(std::string(500, 'd'));
  }
  for (const std::string& id : {payload_a, manifest_b}) {
    FlipByte(root_ + "/" + id.substr(0, 2) + "/" + id.substr(2), 0);
  }
  for (int run = 0; run < 2; ++run) {
    FileObjectStore store(root_);
    Archive archive(&store);
    const ArchiveInventory inventory = ArchiveInventory::Take(store);
    auto recovered = archive.RecoverCatalog(inventory);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(*recovered, 1u);
    FixityReport audit = inventory.Fixity();
    EXPECT_EQ(audit.corrupted_objects,
              (std::vector<std::string>{std::min(payload_a, manifest_b),
                                        std::max(payload_a, manifest_b)}))
        << "run " << run;
    EXPECT_TRUE(audit.missing_objects.empty()) << "run " << run;
  }
}

TEST_F(FileObjectStoreTest, AtomicPutLeavesNoTempFiles) {
  FileObjectStore store(root_);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.Put("payload " + std::to_string(i)).ok());
  }
  size_t stray = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root_)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().find("tmp.") != std::string::npos) {
      ++stray;
    }
  }
  EXPECT_EQ(stray, 0u);
  EXPECT_EQ(CollectIds(store).size(), 8u);
}

// ------------------------------------------------------- Quarantine --

TEST_F(FileObjectStoreTest, CorruptBlobFailsEveryReadUntilQuarantined) {
  FileObjectStore store(root_);
  auto id = store.Put("pristine bytes");
  ASSERT_TRUE(id.ok());
  // Rot the backing file behind the store's back.
  std::string path = root_ + "/" + id->substr(0, 2) + "/" + id->substr(2);
  std::ofstream(path, std::ios::binary) << "rotten";
  // Reads refuse the rot each time and move nothing.
  for (int read = 0; read < 2; ++read) {
    EXPECT_TRUE(store.Get(*id).status().IsCorruption());
    EXPECT_TRUE(store.Verify(*id).IsCorruption());
    EXPECT_TRUE(store.Has(*id));
  }
  EXPECT_TRUE(store.QuarantinedIds().value().empty());
  ASSERT_TRUE(store.Quarantine(*id, "fixity mismatch").ok());
  // The rotten copy moved aside: the store no longer claims the object...
  EXPECT_FALSE(store.Has(*id));
  EXPECT_TRUE(CollectIds(store).empty());
  EXPECT_EQ(store.TotalBytes().value(), 0u);
  // ...but keeps the evidence for forensics.
  ASSERT_EQ(store.QuarantinedIds().value().size(), 1u);
  EXPECT_EQ(store.QuarantinedIds().value()[0], *id);
  // Re-depositing the original bytes heals the store in place.
  auto healed = store.Put("pristine bytes");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, *id);
  EXPECT_EQ(*store.Get(*id), "pristine bytes");
}

// ------------------------------------------ Resilient decorators (PR 3) --

TEST(ResilientStoreTest, FaultyStoreInjectsTransientFailures) {
  MemoryObjectStore backend;
  auto spec = FaultSpec::Parse("nth=1,3");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  FaultyObjectStore store(&backend, &plan);
  EXPECT_TRUE(store.Put("x").status().IsIOError());   // op 1: injected
  auto id = store.Put("x");                           // op 2: passes through
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store.Get(*id).status().IsIOError());   // op 3: injected
  EXPECT_EQ(*store.Get(*id), "x");                    // op 4: passes through
  EXPECT_EQ(plan.injected(), 2u);
}

TEST(ResilientStoreTest, RetryingOverFaultyConvergesToFaultFree) {
  // rate=0.4 over a seeded RNG: the stacked decorators must converge to the
  // exact fault-free behaviour as long as retries outlast the bad luck.
  MemoryObjectStore backend;
  auto spec = FaultSpec::Parse("seed=7,rate=0.4");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  FaultyObjectStore faulty(&backend, &plan);
  RetryingObjectStore store(&faulty, NoWaitRetries(50));

  MemoryObjectStore reference;
  for (int i = 0; i < 20; ++i) {
    std::string blob = "chaos blob " + std::to_string(i);
    auto id = store.Put(blob);
    ASSERT_TRUE(id.ok());
    auto want = reference.Put(blob);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*id, *want);
    EXPECT_EQ(*store.Get(*id), blob);
    EXPECT_TRUE(store.Verify(*id).ok());
  }
  EXPECT_GT(plan.injected(), 0u);
  EXPECT_EQ(CollectIds(store).size(), CollectIds(reference).size());
  EXPECT_EQ(store.TotalBytes().value(), reference.TotalBytes().value());
}

TEST(ResilientStoreTest, PermanentErrorsAreNotRetried) {
  MemoryObjectStore backend;
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_ms = 0.0;
  int sleeps = 0;
  policy.sleeper = [&](double) { ++sleeps; };
  RetryingObjectStore store(&backend, policy);
  EXPECT_TRUE(store.Get(Sha256::HashHex("absent")).status().IsNotFound());
  EXPECT_EQ(sleeps, 0);  // NotFound is permanent: no backoff consumed
}

// ------------------------------------------------ Every read hashes --

class DigestCacheTest : public FileObjectStoreTest {
 protected:
  std::string BlobPath(const std::string& id) const {
    return root_ + "/" + id.substr(0, 2) + "/" + id.substr(2);
  }
};

TEST_F(DigestCacheTest, RotAfterCachingForcesRehash) {
  // A blob modified after a successful Get must still be re-hashed on the
  // next Get and caught.
  FileObjectStore store(root_);
  auto id = store.Put("pristine bytes");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*store.Get(*id), "pristine bytes");
  std::ofstream(BlobPath(*id), std::ios::binary) << "rotten payload!!";
  auto got = store.Get(*id);
  EXPECT_TRUE(got.status().IsCorruption());
  EXPECT_NE(got.status().message().find("fixity mismatch"), std::string::npos);
  // A re-Put overwrites the rotted copy, and the healed copy reads back.
  auto healed = store.Put("pristine bytes");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*store.Get(*id), "pristine bytes");
}

TEST_F(DigestCacheTest, SizePreservingRotWithRestoredMtimeStillFailsVerify) {
  // Media rot changes neither size nor mtime, so a stat fingerprint cannot
  // see it: a Get after a same-size rewrite with the mtime restored must
  // hash the bytes and refuse them — as Verify does.
  FileObjectStore store(root_);
  auto id = store.Put("abcdefghijklmnop");
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(*store.Get(*id), "abcdefghijklmnop");
  ASSERT_TRUE(store.Verify(*id).ok());
  std::string path = BlobPath(*id);
  auto mtime = std::filesystem::last_write_time(path);
  std::ofstream(path, std::ios::binary) << "ABCDEFGHIJKLMNOP";  // same size
  std::filesystem::last_write_time(path, mtime);
  auto got = store.Get(*id);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  EXPECT_TRUE(store.Verify(*id).IsCorruption());
}

TEST_F(DigestCacheTest, PutDropsStaleCacheEntry) {
  FileObjectStore store(root_);
  auto id = store.Put("volatile blob");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*store.Get(*id), "volatile blob");
  // The blob vanishes behind the store's back.
  std::filesystem::remove(BlobPath(*id));
  EXPECT_TRUE(store.Get(*id).status().IsNotFound());
  // Re-publishing the id makes it readable again.
  ASSERT_TRUE(store.Put("volatile blob").ok());
  EXPECT_EQ(*store.Get(*id), "volatile blob");
}

// ---------------------------------------------------- Batched ingest --

TEST_F(FileObjectStoreTest, PutBatchStoresAllBlobsInInputOrder) {
  FileObjectStore store(root_);
  std::vector<std::string> payloads;
  std::vector<std::string_view> blobs;
  for (int i = 0; i < 40; ++i) {
    payloads.push_back("batched payload " + std::to_string(i));
  }
  for (const std::string& payload : payloads) blobs.push_back(payload);

  ThreadPool pool(4);
  auto ids = store.PutBatch(blobs, &pool);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ((*ids)[i], Sha256::HashHex(payloads[i]));
    EXPECT_EQ(*store.Get((*ids)[i]), payloads[i]);
  }
  EXPECT_EQ(CollectIds(store).size(), payloads.size());
}

TEST_F(FileObjectStoreTest, PutBatchSerialAndParallelAgree) {
  std::vector<std::string> payloads;
  for (int i = 0; i < 16; ++i) {
    payloads.push_back(std::string(static_cast<size_t>(100 + i), 'x') +
                       std::to_string(i));
  }
  std::vector<std::string_view> blobs(payloads.begin(), payloads.end());

  FileObjectStore serial_store(root_ + "_serial");
  auto serial = serial_store.PutBatch(blobs, nullptr);
  ThreadPool pool(8);
  FileObjectStore parallel_store(root_ + "_parallel");
  auto parallel = parallel_store.PutBatch(blobs, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*serial, *parallel);
  std::filesystem::remove_all(root_ + "_serial");
  std::filesystem::remove_all(root_ + "_parallel");
}

TEST(PutBatchTest, DecoratedStoresInheritBatchSemantics) {
  // RetryingObjectStore does not override PutBatch; the base implementation
  // routes through its (retrying) Put, so batched ingest composes with the
  // resilience decorators.
  MemoryObjectStore backend;
  auto spec = FaultSpec::Parse("nth=1");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  FaultyObjectStore faulty(&backend, &plan);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_ms = 0.0;
  policy.sleeper = [](double) {};
  RetryingObjectStore store(&faulty, policy);
  std::vector<std::string_view> blobs = {"one", "two"};
  auto ids = store.PutBatch(blobs);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ((*ids)[0], Sha256::HashHex("one"));
  EXPECT_EQ(*store.Get((*ids)[0]), "one");
}

TEST(PutBatchTest, RetryingStoreRetriesEachBatchSlotIndependently) {
  // Each blob runs its own retry loop: a batch with more blobs than one
  // retry budget still converges because failures are per-object.
  MemoryObjectStore backend;
  auto spec = FaultSpec::Parse("seed=11,rate=0.5");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  FaultyObjectStore faulty(&backend, &plan);
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.backoff_ms = 0.0;
  policy.sleeper = [](double) {};
  RetryingObjectStore store(&faulty, policy);
  std::vector<std::string> payloads;
  for (int i = 0; i < 24; ++i) {
    payloads.push_back("retry batch blob " + std::to_string(i));
  }
  std::vector<std::string_view> blobs(payloads.begin(), payloads.end());
  ThreadPool pool(4);
  auto ids = store.PutBatch(blobs, &pool);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ((*ids)[i], Sha256::HashHex(payloads[i]));
    EXPECT_EQ(*backend.Get((*ids)[i]), payloads[i]);
  }
  EXPECT_GT(plan.injected(), 0u);
}

TEST_F(FileObjectStoreTest, ParallelDepositAndAuditMatchSerial) {
  auto make_package = [] {
    SubmissionPackage package;
    package.title = "parallel deposit";
    for (int i = 0; i < 12; ++i) {
      PackageFile file;
      file.logical_name = "file" + std::to_string(i) + ".dat";
      file.bytes = std::string(static_cast<size_t>(50 * (i + 1)), 'd');
      package.files.push_back(std::move(file));
    }
    return package;
  };

  FileObjectStore serial_store(root_ + "_s");
  Archive serial_archive(&serial_store);
  auto serial_id = serial_archive.Deposit(make_package());
  ASSERT_TRUE(serial_id.ok());

  ThreadPool pool(4);
  FileObjectStore parallel_store(root_ + "_p");
  Archive parallel_archive(&parallel_store);
  auto parallel_id = parallel_archive.Deposit(make_package(), &pool);
  ASSERT_TRUE(parallel_id.ok());
  // Content addressing makes the agreement total: same SIP -> same AIP id.
  EXPECT_EQ(*serial_id, *parallel_id);

  FixityReport serial_audit = ArchiveInventory::Take(serial_store).Fixity();
  FixityReport parallel_audit =
      ArchiveInventory::Take(parallel_store, &pool).Fixity();
  EXPECT_TRUE(serial_audit.clean());
  EXPECT_TRUE(parallel_audit.clean());
  EXPECT_EQ(parallel_audit.objects_checked, serial_audit.objects_checked);
  std::filesystem::remove_all(root_ + "_s");
  std::filesystem::remove_all(root_ + "_p");
}

// ---------------------------------------------- Fault-injector PutBatch --

TEST(PutBatchTest, FaultyStoreInjectsPerBlobWithDeterministicOrdinals) {
  // The override consumes one "put" slot per blob in input order, so a
  // scripted nth=2 always hits the second blob — at any pool size.
  MemoryObjectStore backend;
  auto spec = FaultSpec::Parse("nth=2");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  FaultyObjectStore store(&backend, &plan);
  ThreadPool pool(4);
  std::vector<std::string_view> blobs = {"one", "two", "three"};
  auto ids = store.PutBatch(blobs, &pool);
  EXPECT_TRUE(ids.status().IsIOError());
  // Blob 1 landed before the injected failure on blob 2 stopped the batch.
  EXPECT_TRUE(backend.Has(Sha256::HashHex("one")));
  EXPECT_FALSE(backend.Has(Sha256::HashHex("two")));
  EXPECT_EQ(plan.injected(), 1u);
}

// ------------------------------------- Quarantine hardening (PR 8) --

TEST_F(FileObjectStoreTest, RepeatQuarantinePreservesForensicCopies) {
  FileObjectStore store(root_);
  auto id = store.Put("twice rotted");
  ASSERT_TRUE(id.ok());
  std::string path = root_ + "/" + id->substr(0, 2) + "/" + id->substr(2);

  std::ofstream(path, std::ios::binary) << "rot A";
  EXPECT_TRUE(store.Get(*id).status().IsCorruption());
  ASSERT_TRUE(store.Quarantine(*id, "rot A").ok());
  ASSERT_TRUE(store.Put("twice rotted").ok());  // heal
  std::ofstream(path, std::ios::binary) << "rot B";
  EXPECT_TRUE(store.Get(*id).status().IsCorruption());
  ASSERT_TRUE(store.Quarantine(*id, "rot B").ok());

  // Both rot events kept their evidence: <id> and <id>.1.
  namespace fs = std::filesystem;
  EXPECT_TRUE(fs::exists(fs::path(root_) / "quarantine" / *id));
  EXPECT_TRUE(fs::exists(fs::path(root_) / "quarantine" / (*id + ".1")));
  // QuarantinedIds reports the object once, under its base id.
  ASSERT_EQ(store.QuarantinedIds().value().size(), 1u);
  EXPECT_EQ(store.QuarantinedIds().value()[0], *id);
}

TEST_F(FileObjectStoreTest, FailedQuarantineMoveCountsErrors) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t errors_before =
      registry.CounterValue(metric_names::kArchiveQuarantineErrorsTotal);
  FileObjectStore store(root_);
  auto id = store.Put("blob that cannot be moved aside");
  ASSERT_TRUE(id.ok());
  std::string path = root_ + "/" + id->substr(0, 2) + "/" + id->substr(2);
  std::ofstream(path, std::ios::binary) << "rot";
  // A regular file where the quarantine directory should be makes both
  // create_directories and the rename fail.
  std::ofstream(root_ + "/quarantine", std::ios::binary) << "in the way";
  EXPECT_TRUE(store.Quarantine(*id, "rot").IsIOError());
  EXPECT_GT(registry.CounterValue(metric_names::kArchiveQuarantineErrorsTotal),
            errors_before);
  // The rotted blob stayed in place (the move failed) — it must still be
  // invisible to Get, which keeps failing fixity.
  EXPECT_TRUE(store.Get(*id).status().IsCorruption());
}


// ------------------------------------- One inventory for audit and lint --

// What `daspos audit` does: one inventory rebuilds the catalog and is the
// fixity report.
FixityReport AuditLikeTheCli(ObjectStore* store, ThreadPool* pool = nullptr) {
  const ArchiveInventory inventory = ArchiveInventory::Take(*store, pool);
  Archive archive(store);
  auto recovered = archive.RecoverCatalog(inventory);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  return inventory.Fixity();
}

// Sorted subjects of every `code` finding.
std::vector<std::string> SubjectsOf(const lint::LintReport& report,
                                    std::string_view code) {
  std::vector<std::string> subjects;
  for (const lint::Diagnostic& diagnostic : report.diagnostics()) {
    if (diagnostic.code == code) subjects.push_back(diagnostic.subject);
  }
  std::sort(subjects.begin(), subjects.end());
  return subjects;
}

std::vector<std::string> Sorted(std::vector<std::string> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

class ArchiveInventoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (std::filesystem::temp_directory_path() /
             ("daspos_inventory_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::unique_ptr<ObjectStore> Open(bool pack) const {
    if (pack) return std::make_unique<PackObjectStore>(root_);
    return std::make_unique<FileObjectStore>(root_);
  }

  // Flips the first byte of `needle` where the store keeps object `id`:
  // its own file (loose store) or the segment log (pack store).
  void RotOnDisk(bool pack, const std::string& id, const std::string& needle) {
    const std::string path =
        pack ? PackSegmentPath(root_)
             : root_ + "/" + id.substr(0, 2) + "/" + id.substr(2);
    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok()) << path;
    const size_t at = bytes->find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    FlipByte(path, at);
  }

  // One store with six defects; audit and lint must name the same ids.
  void AuditAndLintAgreeOnSixDefects(bool pack);

  std::string root_;
};

TEST_F(ArchiveInventoryTest, ForgedPackOrphanIsCorruptedToAuditAndLint) {
  // A record forged past its XXH64 gate passes Get, and no manifest
  // references it; only the inventory's one Verify per object finds it.
  const std::string payload = "orphan record forged past its checksum gate";
  std::string id;
  {
    PackObjectStore store(root_);
    auto put = store.Put(payload);
    ASSERT_TRUE(put.ok());
    id = *put;
  }
  ForgeFirstPackRecord(root_, payload);
  PackObjectStore store(root_);
  ASSERT_TRUE(store.Get(id).ok());

  FixityReport audit = AuditLikeTheCli(&store);
  EXPECT_FALSE(audit.clean());
  EXPECT_EQ(audit.corrupted_objects, std::vector<std::string>{id});
  EXPECT_TRUE(audit.missing_objects.empty());
  EXPECT_EQ(audit.objects_checked, 1u);
  EXPECT_EQ(SubjectsOf(lint::CheckArchive(store), "A002"),
            std::vector<std::string>{id});
}

void ArchiveInventoryTest::AuditAndLintAgreeOnSixDefects(bool pack) {
  std::string rotted_manifest, rotted_payload, stranded, quarantined, sized,
      orphan;
  const std::string never_stored = Sha256::HashHex("bytes never stored");
  {
    std::unique_ptr<ObjectStore> store = Open(pack);
    Archive archive(store.get());
    SubmissionPackage kept;
    kept.title = "kept package";
    kept.files = {{"rots.dat", "text/plain", "payload bytes that rot"},
                  {"held.dat", "text/plain", "payload bytes set aside"}};
    ASSERT_TRUE(archive.Deposit(kept).ok());
    rotted_payload = Sha256::HashHex("payload bytes that rot");
    quarantined = Sha256::HashHex("payload bytes set aside");

    SubmissionPackage lost;
    lost.title = "package whose manifest rots";
    lost.files = {{"stranded.dat", "text/plain", "payload it alone claims"}};
    auto lost_id = archive.Deposit(lost);
    ASSERT_TRUE(lost_id.ok());
    rotted_manifest = *lost_id;
    stranded = Sha256::HashHex("payload it alone claims");

    // A hand-built manifest: one file never stored, one declared too big.
    auto sized_id = store->Put("sized bytes");
    ASSERT_TRUE(sized_id.ok());
    sized = *sized_id;
    Json manifest = Json::Object();
    manifest["aip_version"] = 1;
    manifest["title"] = "hand-built package";
    Json files = Json::Array();
    auto add_file = [&files](const std::string& name, const std::string& id,
                             uint64_t bytes) {
      Json entry = Json::Object();
      entry["name"] = name;
      entry["sha256"] = id;
      entry["bytes"] = bytes;
      files.push_back(std::move(entry));
    };
    add_file("absent.dat", never_stored, 18);
    add_file("sized.dat", sized, 4096);
    manifest["files"] = std::move(files);
    ASSERT_TRUE(store->Put(manifest.Dump(2)).ok());

    auto orphan_id = store->Put("stray blob nobody claims");
    ASSERT_TRUE(orphan_id.ok());
    orphan = *orphan_id;
    ASSERT_TRUE(store->Quarantine(quarantined, "set aside by the test").ok());
  }
  RotOnDisk(pack, rotted_payload, "payload bytes that rot");
  RotOnDisk(pack, rotted_manifest, "package whose manifest rots");

  std::unique_ptr<ObjectStore> store = Open(pack);
  const std::vector<std::string> corrupted =
      Sorted({rotted_payload, rotted_manifest});
  const std::vector<std::string> missing = Sorted({never_stored, quarantined});
  FixityReport audit = AuditLikeTheCli(store.get());
  EXPECT_EQ(audit.corrupted_objects, corrupted);
  EXPECT_EQ(audit.missing_objects, missing);
  // Seven stored objects, the id never stored and the quarantined one.
  EXPECT_EQ(audit.objects_checked, 9u);
  ThreadPool pool(4);
  FixityReport pooled = AuditLikeTheCli(store.get(), &pool);
  EXPECT_EQ(pooled.corrupted_objects, audit.corrupted_objects);
  EXPECT_EQ(pooled.missing_objects, audit.missing_objects);
  EXPECT_EQ(pooled.objects_checked, audit.objects_checked);

  lint::LintReport lint = lint::CheckArchive(*store);
  EXPECT_EQ(SubjectsOf(lint, "A002"), audit.corrupted_objects);
  EXPECT_EQ(SubjectsOf(lint, "A001"), audit.missing_objects);
  EXPECT_EQ(SubjectsOf(lint, "A003"), Sorted({orphan, stranded}));
  EXPECT_EQ(SubjectsOf(lint, "A004"), std::vector<std::string>{sized});
  EXPECT_EQ(SubjectsOf(lint, "A006"), std::vector<std::string>{quarantined});
  EXPECT_EQ(lint.Codes(), (std::vector<std::string>{"A001", "A002", "A003",
                                                    "A004", "A006"}));
}

TEST_F(ArchiveInventoryTest, AuditAndLintAgreeOnSixDefectsInAFileStore) {
  AuditAndLintAgreeOnSixDefects(/*pack=*/false);
}

TEST_F(ArchiveInventoryTest, AuditAndLintAgreeOnSixDefectsInAPackStore) {
  AuditAndLintAgreeOnSixDefects(/*pack=*/true);
}

TEST(ArchiveInventoryCountTest, AuditAndLintReadEachObjectOnce) {
  MemoryObjectStore backing;
  Archive depositor(&backing);
  ASSERT_TRUE(depositor.Deposit(MakeSubmission()).ok());  // 3 objects
  ASSERT_TRUE(backing.Put("stray blob nobody claims").ok());
  CountingObjectStore store(&backing);
  const std::vector<std::string> ids = CollectIds(backing);
  ASSERT_EQ(ids.size(), 4u);

  auto expect_once_each = [&](const std::string& what) {
    std::map<std::string, int> gets = store.gets();
    std::map<std::string, int> verifies = store.verifies();
    EXPECT_EQ(gets.size(), ids.size()) << what;
    EXPECT_EQ(verifies.size(), ids.size()) << what;
    for (const std::string& id : ids) {
      EXPECT_EQ(gets[id], 1) << what << " Get " << id;
      EXPECT_EQ(verifies[id], 1) << what << " Verify " << id;
    }
    EXPECT_TRUE(store.has().empty()) << what;
    store.Reset();
  };
  ThreadPool pool(4);
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_TRUE(AuditLikeTheCli(&store, threads).clean());
    expect_once_each("audit");
  }
  EXPECT_EQ(lint::CheckArchive(store).Codes(),
            std::vector<std::string>{"A003"});
  expect_once_each("lint");
}

}  // namespace
}  // namespace daspos
