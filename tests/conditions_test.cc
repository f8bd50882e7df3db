// Tests for the conditions system: IOV algebra, the database backend, the
// Alice-style snapshot backend, and their behavioural equivalence at the
// captured run.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "conditions/global_tag.h"
#include "conditions/iov.h"
#include "conditions/snapshot.h"
#include "conditions/store.h"
#include "detsim/calib.h"

namespace daspos {
namespace {

// ------------------------------------------------------------------- IOV --

TEST(RunRangeTest, ContainsBounds) {
  RunRange range{10, 20};
  EXPECT_TRUE(range.Contains(10));
  EXPECT_TRUE(range.Contains(20));
  EXPECT_FALSE(range.Contains(9));
  EXPECT_FALSE(range.Contains(21));
}

TEST(RunRangeTest, OpenEnded) {
  RunRange range = RunRange::From(100);
  EXPECT_TRUE(range.Contains(100));
  EXPECT_TRUE(range.Contains(4000000000u));
  EXPECT_FALSE(range.Contains(99));
  EXPECT_EQ(range.ToString(), "[100,inf]");
}

class RunRangeOverlap
    : public ::testing::TestWithParam<std::tuple<RunRange, RunRange, bool>> {};

TEST_P(RunRangeOverlap, SymmetricOverlap) {
  auto [a, b, expected] = GetParam();
  EXPECT_EQ(a.Overlaps(b), expected);
  EXPECT_EQ(b.Overlaps(a), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunRangeOverlap,
    ::testing::Values(
        std::make_tuple(RunRange{1, 5}, RunRange{6, 10}, false),
        std::make_tuple(RunRange{1, 5}, RunRange{5, 10}, true),
        std::make_tuple(RunRange{1, 100}, RunRange{50, 60}, true),
        std::make_tuple(RunRange{1, 1}, RunRange{1, 1}, true),
        std::make_tuple(RunRange{1, 5}, RunRange::From(6), false),
        std::make_tuple(RunRange::From(3), RunRange::From(1000), true)));

TEST(RunRangeTest, Validity) {
  EXPECT_TRUE((RunRange{5, 5}).Valid());
  EXPECT_FALSE((RunRange{6, 5}).Valid());
}

// ------------------------------------------------------------ ConditionsDb

TEST(ConditionsDbTest, PutGet) {
  ConditionsDb db;
  ASSERT_TRUE(db.Put("calib/a", {1, 10}, "payload-1").ok());
  ASSERT_TRUE(db.Put("calib/a", {11, 20}, "payload-2").ok());
  EXPECT_EQ(*db.GetPayload("calib/a", 5), "payload-1");
  EXPECT_EQ(*db.GetPayload("calib/a", 11), "payload-2");
  EXPECT_TRUE(db.GetPayload("calib/a", 25).status().IsNotFound());
  EXPECT_TRUE(db.GetPayload("calib/b", 5).status().IsNotFound());
  EXPECT_EQ(db.lookup_count(), 4u);
}

TEST(ConditionsDbTest, OverlapRejected) {
  ConditionsDb db;
  ASSERT_TRUE(db.Put("t", {1, 10}, "x").ok());
  EXPECT_TRUE(db.Put("t", {5, 15}, "y").IsAlreadyExists());
  EXPECT_TRUE(db.Put("t", {10, 10}, "y").IsAlreadyExists());
  EXPECT_TRUE(db.Put("t", {11, 20}, "y").ok());
}

TEST(ConditionsDbTest, InvalidRangeRejected) {
  ConditionsDb db;
  EXPECT_TRUE(db.Put("t", {10, 5}, "x").IsInvalidArgument());
}

TEST(ConditionsDbTest, AppendClosesOpenInterval) {
  ConditionsDb db;
  ASSERT_TRUE(db.Append("t", 1, "v1").ok());
  ASSERT_TRUE(db.Append("t", 100, "v2").ok());
  EXPECT_EQ(*db.GetPayload("t", 50), "v1");
  EXPECT_EQ(*db.GetPayload("t", 99), "v1");
  EXPECT_EQ(*db.GetPayload("t", 100), "v2");
  EXPECT_EQ(*db.GetPayload("t", 1000000), "v2");
}

TEST(ConditionsDbTest, AppendMustAdvance) {
  ConditionsDb db;
  ASSERT_TRUE(db.Append("t", 100, "v1").ok());
  EXPECT_TRUE(db.Append("t", 100, "v2").IsInvalidArgument());
  EXPECT_TRUE(db.Append("t", 50, "v2").IsInvalidArgument());
}

TEST(ConditionsDbTest, TagsSorted) {
  ConditionsDb db;
  ASSERT_TRUE(db.Put("z", {1, 2}, "x").ok());
  ASSERT_TRUE(db.Put("a", {1, 2}, "x").ok());
  auto tags = db.Tags();
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], "a");
  EXPECT_EQ(tags[1], "z");
}

// --------------------------------------------------------------- Snapshot

ConditionsDb PopulatedDb() {
  ConditionsDb db;
  CalibrationSet calib_v1;
  calib_v1.version = 1;
  CalibrationSet calib_v2;
  calib_v2.version = 2;
  calib_v2.tracker_phi_offset = 0.002;
  EXPECT_TRUE(db.Append("calib/detector", 1, calib_v1.ToPayload()).ok());
  EXPECT_TRUE(db.Append("calib/detector", 50, calib_v2.ToPayload()).ok());
  EXPECT_TRUE(db.Put("beamspot", {1, 1000}, "x=0 y=0\n").ok());
  return db;
}

TEST(SnapshotTest, CaptureAndServe) {
  ConditionsDb db = PopulatedDb();
  auto snapshot =
      ConditionsSnapshot::Capture(db, 60, {"calib/detector", "beamspot"});
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->run(), 60u);

  // Snapshot serves exactly what the database serves at that run.
  EXPECT_EQ(*snapshot->GetPayload("calib/detector", 60),
            *db.GetPayload("calib/detector", 60));
  EXPECT_EQ(*snapshot->GetPayload("beamspot", 60),
            *db.GetPayload("beamspot", 60));
}

TEST(SnapshotTest, ConcurrentLookupsAreAllCounted) {
  ConditionsDb db = PopulatedDb();
  auto snapshot = ConditionsSnapshot::Capture(db, 60, {"beamspot"});
  ASSERT_TRUE(snapshot.ok());
  constexpr int kThreads = 4;
  constexpr int kLookups = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&snapshot] {
      for (int i = 0; i < kLookups; ++i) {
        (void)snapshot->GetPayload("beamspot", 60);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(snapshot->lookup_count(), uint64_t{kThreads} * kLookups);
}

TEST(SnapshotTest, WrongRunRefused) {
  ConditionsDb db = PopulatedDb();
  auto snapshot = ConditionsSnapshot::Capture(db, 60, {"beamspot"});
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->GetPayload("beamspot", 61)
                  .status()
                  .IsFailedPrecondition());
}

TEST(SnapshotTest, MissingTagFailsCapture) {
  ConditionsDb db = PopulatedDb();
  EXPECT_TRUE(ConditionsSnapshot::Capture(db, 60, {"nope"})
                  .status()
                  .IsNotFound());
}

TEST(SnapshotTest, SerializeParseRoundTrip) {
  ConditionsDb db = PopulatedDb();
  auto snapshot =
      ConditionsSnapshot::Capture(db, 7, {"calib/detector", "beamspot"});
  ASSERT_TRUE(snapshot.ok());
  std::string text = snapshot->Serialize();

  auto parsed = ConditionsSnapshot::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->run(), 7u);
  ASSERT_EQ(parsed->Tags().size(), 2u);
  EXPECT_EQ(*parsed->GetPayload("calib/detector", 7),
            *snapshot->GetPayload("calib/detector", 7));
  EXPECT_EQ(*parsed->GetPayload("beamspot", 7), "x=0 y=0\n");
}

TEST(SnapshotTest, ParseErrors) {
  EXPECT_TRUE(ConditionsSnapshot::Parse("tag: x bytes: 5\nabc")
                  .status()
                  .IsCorruption());  // truncated payload + missing run
  EXPECT_TRUE(
      ConditionsSnapshot::Parse("garbage line\n").status().IsCorruption());
  EXPECT_TRUE(ConditionsSnapshot::Parse("# empty\n").status().IsCorruption());
  EXPECT_TRUE(ConditionsSnapshot::Parse("run: 5\ntag: x 5\n")
                  .status()
                  .IsCorruption());  // missing bytes: keyword
}

TEST(SnapshotTest, PayloadWithTrickyContentsSurvives) {
  ConditionsDb db;
  std::string tricky = "line1\ntag: fake bytes: 3\nrun: 9\n# comment\n";
  ASSERT_TRUE(db.Put("weird", {1, 10}, tricky).ok());
  auto snapshot = ConditionsSnapshot::Capture(db, 5, {"weird"});
  ASSERT_TRUE(snapshot.ok());
  auto parsed = ConditionsSnapshot::Parse(snapshot->Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetPayload("weird", 5), tricky);
}

TEST(SnapshotTest, CalibrationPayloadDecodesIdentically) {
  // The preservation property: reprocessing from a snapshot applies
  // byte-identical constants to reprocessing from the live database.
  ConditionsDb db = PopulatedDb();
  auto snapshot = ConditionsSnapshot::Capture(db, 80, {"calib/detector"});
  ASSERT_TRUE(snapshot.ok());
  auto from_db =
      CalibrationSet::FromPayload(*db.GetPayload("calib/detector", 80));
  auto from_snapshot = CalibrationSet::FromPayload(
      *snapshot->GetPayload("calib/detector", 80));
  ASSERT_TRUE(from_db.ok());
  ASSERT_TRUE(from_snapshot.ok());
  EXPECT_TRUE(*from_db == *from_snapshot);
  EXPECT_EQ(from_db->version, 2u);
}

// -------------------------------------------------------------- GlobalTag

GlobalTag MakeGlobalTag() {
  GlobalTag tag;
  tag.name = "PRESERVATION_2014_V1";
  tag.roles = {{"detector", "calib/detector"}, {"beam", "beamspot"}};
  return tag;
}

TEST(GlobalTagTest, SerializeParseRoundTrip) {
  GlobalTag tag = MakeGlobalTag();
  auto restored = GlobalTag::Parse(tag.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->name, tag.name);
  EXPECT_EQ(restored->roles, tag.roles);
}

TEST(GlobalTagTest, ParseErrors) {
  EXPECT_FALSE(GlobalTag::Parse("detector = x\n").ok());   // no header
  EXPECT_FALSE(GlobalTag::Parse("globaltag: g\nrubbish line\n").ok());
  EXPECT_FALSE(GlobalTag::Parse("globaltag: g\n = x\n").ok());  // empty role
}

}  // namespace
}  // namespace daspos
