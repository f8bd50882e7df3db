// Tests for data tiers: dataset containers per tier, schema checks, and the
// skim/slim derivation engine with its reduction accounting.
#include <gtest/gtest.h>

#include "detsim/simulation.h"
#include "event/pdg.h"
#include "mc/generator.h"
#include "reco/reconstruction.h"
#include "support/sha256.h"
#include "tiers/dataset.h"
#include "tiers/skimslim.h"
#include "tiers/tier.h"

namespace daspos {
namespace {

TEST(TierTest, NamesAndSchemas) {
  EXPECT_EQ(TierName(DataTier::kRaw), "RAW");
  EXPECT_EQ(TierName(DataTier::kAod), "AOD");
  EXPECT_EQ(TierSchema(DataTier::kGen), "daspos.gen.v1");
  EXPECT_EQ(TierSchema(DataTier::kDerived), "daspos.derived.v1");
}

// ------------------------------------------------------------- Codec pins
//
// One fixed event per tier, built from literal integers and dyadic
// fractions (exact in binary: no libm, no RNG), written through the tier
// writer with fixed metadata. The digests pin the record codecs and the
// container format byte for byte, so a codec rewrite that changes any byte
// (byte order, field order, varint layout) fails here. Changing a digest is
// a format change: it needs a schema_version bump and a reader for the old
// bytes.

DatasetInfo PinnedInfo(DataTier tier) {
  DatasetInfo info;
  info.tier = tier;
  info.name = "pinned";
  info.producer = "codec pin v1";
  info.parents = {"pinned_parent"};
  info.description = "fixed literal events";
  return info;
}

PhysicsObject PinnedObject(ObjectType type, int charge) {
  PhysicsObject object;
  object.type = type;
  object.momentum = FourVector(24.5, -7.25, 130.0, 132.625);
  object.charge = charge;
  object.isolation = 0.125;
  object.quality = 0.9375;
  object.displacement_mm = 0.03125;
  return object;
}

GenEvent PinnedGenEvent() {
  GenEvent event;
  event.event_number = 0x0102030405060708ull;
  event.process_id = 1;
  event.weight = 0.5;
  GenParticle boson;
  boson.pdg_id = 23;
  boson.status = 2;
  boson.mother = -1;
  boson.momentum = FourVector(1.5, -2.25, 300.0, 320.75);
  GenParticle muon;
  muon.pdg_id = -13;
  muon.status = 1;
  muon.mother = 0;
  muon.momentum = FourVector(45.5, 10.25, -80.0, 92.875);
  muon.vertex_mm = 0.0625;
  event.particles = {boson, muon};
  return event;
}

RawEvent PinnedRawEvent() {
  RawEvent event;
  event.run_number = 0x01020304u;
  event.event_number = 0x0102030405060708ull;
  event.trigger_bits = 0x80000005u;
  event.hits = {{SubDetector::kEcal, 70000u, 1023, 1.5f},
                {SubDetector::kMuon, 3u, 65535, -0.25f}};
  return event;
}

RecoEvent PinnedRecoEvent() {
  RecoEvent event;
  event.run_number = 0x01020304u;
  event.event_number = 0x0102030405060708ull;
  event.trigger_bits = 3;
  event.weight = 0.75;
  Track track;
  track.momentum = FourVector(20.0, -5.5, 12.25, 24.0625);
  track.charge = -1;
  track.hit_count = 12;
  track.chi2 = 1.25;
  track.d0_mm = -0.015625;
  event.tracks = {track};
  CaloCluster cluster;
  cluster.energy = 50.5;
  cluster.eta = -1.25;
  cluster.phi = 2.5;
  cluster.em_fraction = 0.875;
  cluster.cell_count = 9;
  event.clusters = {cluster};
  event.objects = {PinnedObject(ObjectType::kMuon, -1),
                   PinnedObject(ObjectType::kMet, 0)};
  event.vertex_count = 3;
  return event;
}

AodEvent PinnedAodEvent() {
  AodEvent event;
  event.run_number = 0x01020304u;
  event.event_number = 0x0102030405060708ull;
  event.trigger_bits = 3;
  event.weight = 0.75;
  event.vertex_count = 3;
  event.objects = {PinnedObject(ObjectType::kElectron, 1),
                   PinnedObject(ObjectType::kJet, 0)};
  return event;
}

TEST(CodecPinTest, TierBlobsMatchPinnedDigests) {
  EXPECT_EQ(Sha256::HashHex(WriteGenDataset(PinnedInfo(DataTier::kGen),
                                            {PinnedGenEvent()})),
            "00189cd8b635e54f0843291764a39fc4363cc7db670fb5fab039a233b2c4b3fa");
  EXPECT_EQ(Sha256::HashHex(WriteRawDataset(PinnedInfo(DataTier::kRaw),
                                            {PinnedRawEvent()})),
            "5724616863ba3b092607b53d418854275dc80c8bd3b35cef0b003ec4dae0cc11");
  EXPECT_EQ(Sha256::HashHex(WriteRecoDataset(PinnedInfo(DataTier::kReco),
                                             {PinnedRecoEvent()})),
            "7cf6e5cd8fd644bf449fdca9eb0d825b195604ccebe62db01f399ad37351cf00");
  EXPECT_EQ(Sha256::HashHex(WriteAodDataset(PinnedInfo(DataTier::kAod),
                                            {PinnedAodEvent()})),
            "553257418c68d69e38a7ad9e01fd848ee20d4f28fca776e85355929b8d5f82b0");
}

// ----------------------------------------------------------------- Dataset

std::vector<GenEvent> SmallSample(int n) {
  GeneratorConfig config;
  config.process = Process::kZToLL;
  config.seed = 71;
  EventGenerator gen(config);
  return gen.GenerateMany(static_cast<size_t>(n));
}

TEST(DatasetTest, GenRoundTripWithMetadata) {
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "zmm_gen";
  info.producer = "generation v1.0";
  info.description = "test sample";
  std::vector<GenEvent> events = SmallSample(20);
  std::string blob = WriteGenDataset(info, events);

  DatasetInfo restored_info;
  auto restored = ReadGenDataset(blob, &restored_info);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 20u);
  EXPECT_EQ(restored_info.name, "zmm_gen");
  EXPECT_EQ(restored_info.tier, DataTier::kGen);
  EXPECT_EQ((*restored)[7].event_number, events[7].event_number);
  EXPECT_EQ((*restored)[7].particles.size(), events[7].particles.size());
}

TEST(DatasetTest, TierMismatchRejected) {
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "x";
  std::string blob = WriteGenDataset(info, SmallSample(1));
  EXPECT_TRUE(ReadRawDataset(blob).status().IsInvalidArgument());
  EXPECT_TRUE(ReadAodDataset(blob).status().IsInvalidArgument());
}

TEST(DatasetTest, CorruptionDetectedOnRead) {
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "x";
  std::string blob = WriteGenDataset(info, SmallSample(3));
  blob[blob.size() / 2] ^= 0x02;
  EXPECT_TRUE(ReadGenDataset(blob).status().IsCorruption());
}

TEST(DatasetTest, ReadDatasetInfoOnly) {
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "peek";
  info.parents = {"parent_a", "parent_b"};
  std::string blob = WriteGenDataset(info, SmallSample(2));
  auto peeked = ReadDatasetInfo(blob);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(peeked->name, "peek");
  ASSERT_EQ(peeked->parents.size(), 2u);
  EXPECT_EQ(peeked->parents[1], "parent_b");
}

// ------------------------------------------------------ full-chain fixture

/// Builds a small AOD dataset through the real chain once per suite.
class SkimSlimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig gen_config;
    gen_config.process = Process::kZToLL;
    gen_config.lepton_flavor = pdg::kMuon;
    gen_config.seed = 72;
    EventGenerator gen(gen_config);

    SimulationConfig sim_config;
    sim_config.seed = 73;
    sim_config.noise_cells_mean = 5.0;
    DetectorSimulation sim(sim_config);

    ReconstructionConfig reco_config;
    reco_config.geometry = sim_config.geometry;
    reco_config.calib = sim_config.calib;
    Reconstructor reco(reco_config);

    std::vector<AodEvent> aod;
    for (int i = 0; i < 120; ++i) {
      aod.push_back(AodEvent::FromReco(
          reco.Reconstruct(sim.Simulate(gen.Generate(), 1))));
    }
    DatasetInfo info;
    info.tier = DataTier::kAod;
    info.name = "zmm_aod";
    info.producer = "test-chain";
    aod_blob_ = new std::string(WriteAodDataset(info, aod));
  }
  static void TearDownTestSuite() {
    delete aod_blob_;
    aod_blob_ = nullptr;
  }

  static const std::string& aod_blob() { return *aod_blob_; }

 private:
  static const std::string* aod_blob_;
};

const std::string* SkimSlimTest::aod_blob_ = nullptr;

// ---------------------------------------------------------------- SkimSpec

TEST_F(SkimSlimTest, SkimAllKeepsEverything) {
  DerivationStats stats;
  auto blob = DeriveDataset(aod_blob(), "derived_all", SkimSpec::All(),
                            SlimSpec::None(), &stats);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(stats.input_events, 120u);
  EXPECT_EQ(stats.output_events, 120u);
}

TEST_F(SkimSlimTest, RequireObjectsSelects) {
  DerivationStats stats;
  auto blob = DeriveDataset(aod_blob(), "derived_dimuon",
                            SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0),
                            SlimSpec::None(), &stats);
  ASSERT_TRUE(blob.ok());
  // Z->mumu with acceptance: a fraction survives, but not all, not none.
  EXPECT_GT(stats.output_events, 10u);
  EXPECT_LT(stats.output_events, 120u);
  // Every surviving event really has two such muons.
  auto events = ReadAodDataset(*blob);
  ASSERT_TRUE(events.ok());
  for (const AodEvent& event : *events) {
    int muons = 0;
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == ObjectType::kMuon && obj.momentum.Pt() > 10.0) ++muons;
    }
    EXPECT_GE(muons, 2);
  }
}

TEST_F(SkimSlimTest, SkimIsMonotonic) {
  // Tighter cuts can only reduce the yield.
  DerivationStats loose, tight;
  ASSERT_TRUE(DeriveDataset(aod_blob(), "d1",
                            SkimSpec::RequireObjects(ObjectType::kMuon, 1, 5.0),
                            SlimSpec::None(), &loose)
                  .ok());
  ASSERT_TRUE(
      DeriveDataset(aod_blob(), "d2",
                    SkimSpec::RequireObjects(ObjectType::kMuon, 2, 20.0),
                    SlimSpec::None(), &tight)
          .ok());
  EXPECT_GE(loose.output_events, tight.output_events);
}

TEST_F(SkimSlimTest, TriggerSkim) {
  DerivationStats stats;
  ASSERT_TRUE(DeriveDataset(aod_blob(), "d_trig",
                            SkimSpec::RequireTrigger(TriggerBits::kMuon),
                            SlimSpec::None(), &stats)
                  .ok());
  EXPECT_GT(stats.output_events, 0u);
  EXPECT_LE(stats.output_events, stats.input_events);
}

// ---------------------------------------------------------------- SlimSpec

TEST_F(SkimSlimTest, SlimDropsObjectTypesButKeepsMet) {
  DerivationStats stats;
  auto blob = DeriveDataset(aod_blob(), "d_slim", SkimSpec::All(),
                            SlimSpec::LeptonsOnly(5.0), &stats);
  ASSERT_TRUE(blob.ok());
  auto events = ReadAodDataset(*blob);
  ASSERT_TRUE(events.ok());
  for (const AodEvent& event : *events) {
    int met = 0;
    for (const PhysicsObject& obj : event.objects) {
      if (obj.type == ObjectType::kMet) {
        ++met;
        continue;
      }
      EXPECT_TRUE(obj.type == ObjectType::kElectron ||
                  obj.type == ObjectType::kMuon);
      EXPECT_GE(obj.momentum.Pt(), 5.0);
    }
    EXPECT_EQ(met, 1);
  }
}

TEST_F(SkimSlimTest, SlimReducesBytes) {
  DerivationStats stats;
  ASSERT_TRUE(DeriveDataset(aod_blob(), "d_small", SkimSpec::All(),
                            SlimSpec::LeptonsOnly(5.0), &stats)
                  .ok());
  EXPECT_LT(stats.output_bytes, stats.input_bytes);
  EXPECT_LT(stats.SizeReduction(), 1.0);
  EXPECT_DOUBLE_EQ(stats.EventReduction(), 1.0);
}

TEST_F(SkimSlimTest, DerivedMetadataRecordsLogicalDescription) {
  auto blob = DeriveDataset(aod_blob(), "d_meta",
                            SkimSpec::RequireObjects(ObjectType::kMuon, 2, 10.0),
                            SlimSpec::LeptonsOnly(10.0));
  ASSERT_TRUE(blob.ok());
  DatasetInfo info;
  auto events = ReadAodDataset(*blob, &info);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(info.tier, DataTier::kDerived);
  ASSERT_EQ(info.parents.size(), 1u);
  EXPECT_EQ(info.parents[0], "zmm_aod");
  EXPECT_NE(info.producer.find("skim="), std::string::npos);
  EXPECT_NE(info.producer.find("slim="), std::string::npos);
}

TEST(SlimSpecTest, ApplyOnEmptyEvent) {
  AodEvent event;
  AodEvent slimmed = SlimSpec::LeptonsOnly(10.0).Apply(event);
  EXPECT_TRUE(slimmed.objects.empty());
}

TEST(DerivationStatsTest, ZeroDenominators) {
  DerivationStats stats;
  EXPECT_DOUBLE_EQ(stats.EventReduction(), 0.0);
  EXPECT_DOUBLE_EQ(stats.SizeReduction(), 0.0);
}

}  // namespace
}  // namespace daspos
