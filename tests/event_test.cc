// Unit tests for the event model: four-vector kinematics, PDG helpers, and
// record round-trips of every tier's event type.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "event/aod.h"
#include "event/experiment.h"
#include "event/fourvector.h"
#include "event/pdg.h"
#include "event/raw.h"
#include "event/reco.h"
#include "event/truth.h"

namespace daspos {
namespace {

constexpr double kPi = 3.14159265358979323846;

// ------------------------------------------------------------ FourVector --

TEST(FourVectorTest, FromPtEtaPhiM) {
  FourVector v = FourVector::FromPtEtaPhiM(50.0, 1.0, 0.5, 0.105);
  EXPECT_NEAR(v.Pt(), 50.0, 1e-9);
  EXPECT_NEAR(v.Eta(), 1.0, 1e-9);
  EXPECT_NEAR(v.Phi(), 0.5, 1e-9);
  EXPECT_NEAR(v.Mass(), 0.105, 1e-6);
}

TEST(FourVectorTest, MassOfSum) {
  // Two back-to-back 45.6 GeV massless particles -> mass 91.2.
  FourVector a = FourVector::FromPtEtaPhiM(45.6, 0.0, 0.0, 0.0);
  FourVector b = FourVector::FromPtEtaPhiM(45.6, 0.0, kPi, 0.0);
  EXPECT_NEAR((a + b).Mass(), 91.2, 1e-9);
  EXPECT_NEAR(InvariantMass(a, b), 91.2, 1e-9);
}

TEST(FourVectorTest, NegativeMassSquaredClampsToZero) {
  FourVector v(1.0, 0.0, 0.0, 0.5);  // spacelike from rounding or error
  EXPECT_DOUBLE_EQ(v.Mass(), 0.0);
}

TEST(FourVectorTest, EtaOfStraightUpIsClamped) {
  FourVector v(0.0, 0.0, 10.0, 10.0);
  EXPECT_DOUBLE_EQ(v.Eta(), 20.0);
  FourVector w(0.0, 0.0, -10.0, 10.0);
  EXPECT_DOUBLE_EQ(w.Eta(), -20.0);
}

TEST(FourVectorTest, DeltaPhiWraps) {
  FourVector a = FourVector::FromPtEtaPhiM(10, 0.0, 3.0, 0.0);
  FourVector b = FourVector::FromPtEtaPhiM(10, 0.0, -3.0, 0.0);
  EXPECT_NEAR(DeltaPhi(a, b), 2.0 * kPi - 6.0, 1e-9);
}

TEST(FourVectorTest, DeltaR) {
  FourVector a = FourVector::FromPtEtaPhiM(10, 0.5, 1.0, 0.0);
  FourVector b = FourVector::FromPtEtaPhiM(20, 0.5, 1.0, 0.0);
  EXPECT_NEAR(DeltaR(a, b), 0.0, 1e-9);
  FourVector c = FourVector::FromPtEtaPhiM(10, 1.5, 1.0, 0.0);
  EXPECT_NEAR(DeltaR(a, c), 1.0, 1e-9);
}

TEST(FourVectorTest, EtOfTransverseParticleEqualsE) {
  FourVector v = FourVector::FromPtEtaPhiM(30.0, 0.0, 0.3, 0.0);
  EXPECT_NEAR(v.Et(), v.e(), 1e-9);
}

// ------------------------------------------------------------------- PDG --

TEST(PdgTest, Masses) {
  EXPECT_NEAR(pdg::Mass(pdg::kZ), 91.1876, 1e-4);
  EXPECT_NEAR(pdg::Mass(pdg::kMuon), 0.10566, 1e-5);
  EXPECT_DOUBLE_EQ(pdg::Mass(-pdg::kMuon), pdg::Mass(pdg::kMuon));
  EXPECT_DOUBLE_EQ(pdg::Mass(999999), 0.0);
}

TEST(PdgTest, Charges) {
  EXPECT_DOUBLE_EQ(pdg::Charge(pdg::kElectron), -1.0);
  EXPECT_DOUBLE_EQ(pdg::Charge(-pdg::kElectron), 1.0);
  EXPECT_DOUBLE_EQ(pdg::Charge(pdg::kPiPlus), 1.0);
  EXPECT_DOUBLE_EQ(pdg::Charge(-pdg::kPiPlus), -1.0);
  EXPECT_DOUBLE_EQ(pdg::Charge(pdg::kPhoton), 0.0);
  EXPECT_NEAR(pdg::Charge(pdg::kUp), 2.0 / 3.0, 1e-12);
}

TEST(PdgTest, Classification) {
  EXPECT_TRUE(pdg::IsNeutrino(-pdg::kNuMu));
  EXPECT_TRUE(pdg::IsHadron(pdg::kProton));
  EXPECT_TRUE(pdg::IsInvisible(pdg::kNuE));
  EXPECT_FALSE(pdg::IsInvisible(pdg::kMuon));
}

TEST(ExperimentTest, NamesMatchTable1) {
  EXPECT_EQ(ExperimentName(Experiment::kAlice), "Alice");
  EXPECT_EQ(ExperimentName(Experiment::kAtlas), "Atlas");
  EXPECT_EQ(ExperimentName(Experiment::kCms), "CMS");
  EXPECT_EQ(ExperimentName(Experiment::kLhcb), "LHCb");
  EXPECT_EQ(kAllExperiments.size(), 4u);
}

// -------------------------------------------------------------- GenEvent --

GenEvent MakeTruthEvent() {
  GenEvent event;
  event.event_number = 42;
  event.process_id = 1;
  event.weight = 0.75;
  GenParticle z;
  z.pdg_id = pdg::kZ;
  z.status = 2;
  z.mother = -1;
  z.momentum = FourVector(1.0, 2.0, 3.0, 95.0);
  GenParticle mu;
  mu.pdg_id = pdg::kMuon;
  mu.status = 1;
  mu.mother = 0;
  mu.momentum = FourVector(10.0, 20.0, 30.0, 40.0);
  mu.vertex_mm = 0.5;
  event.particles = {z, mu};
  return event;
}

TEST(GenEventTest, RecordRoundTrip) {
  GenEvent event = MakeTruthEvent();
  auto restored = DecodeRecord<GenEvent>(EncodeRecord(event));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->event_number, 42u);
  EXPECT_EQ(restored->process_id, 1);
  EXPECT_DOUBLE_EQ(restored->weight, 0.75);
  ASSERT_EQ(restored->particles.size(), 2u);
  EXPECT_EQ(restored->particles[0].pdg_id, pdg::kZ);
  EXPECT_EQ(restored->particles[1].mother, 0);
  EXPECT_TRUE(restored->particles[1].momentum ==
              event.particles[1].momentum);
  EXPECT_DOUBLE_EQ(restored->particles[1].vertex_mm, 0.5);
}

TEST(GenEventTest, FinalStateFilters) {
  GenEvent event = MakeTruthEvent();
  auto fs = event.FinalState();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].pdg_id, pdg::kMuon);
}

TEST(GenEventTest, TrailingBytesRejected) {
  std::string record = EncodeRecord(MakeTruthEvent()) + "junk";
  EXPECT_TRUE(DecodeRecord<GenEvent>(record).status().IsCorruption());
}

TEST(GenEventTest, TruncatedRecordRejected) {
  std::string record = EncodeRecord(MakeTruthEvent());
  EXPECT_FALSE(DecodeRecord<GenEvent>(record.substr(0, 10)).ok());
}

// -------------------------------------------------------------- RawEvent --

TEST(RawEventTest, RecordRoundTrip) {
  RawEvent raw;
  raw.run_number = 7;
  raw.event_number = 1234567;
  raw.trigger_bits = 0b1010;
  raw.hits.push_back({SubDetector::kTracker, 123456, 40, 1.5f});
  raw.hits.push_back({SubDetector::kEcal, 99, 500, -0.25f});
  raw.hits.push_back({SubDetector::kMuon, 7, 65535, 15.0f});

  auto restored = DecodeRecord<RawEvent>(EncodeRecord(raw));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->run_number, 7u);
  EXPECT_EQ(restored->event_number, 1234567u);
  EXPECT_EQ(restored->trigger_bits, 0b1010u);
  ASSERT_EQ(restored->hits.size(), 3u);
  EXPECT_EQ(restored->hits[0].detector, SubDetector::kTracker);
  EXPECT_EQ(restored->hits[0].channel, 123456u);
  EXPECT_EQ(restored->hits[2].adc, 65535);
  EXPECT_FLOAT_EQ(restored->hits[1].time_ns, -0.25f);
}

TEST(RawEventTest, BadDetectorIdRejected) {
  RawEvent raw;
  raw.hits.push_back({SubDetector::kTracker, 1, 1, 0.0f});
  std::string record = EncodeRecord(raw);
  // The detector byte of the first hit follows the fixed header
  // (u32 run + varint event_number(1 byte) + u32 trigger + varint count).
  size_t detector_offset = 4 + 1 + 4 + 1;
  record[detector_offset] = 9;
  EXPECT_TRUE(DecodeRecord<RawEvent>(record).status().IsCorruption());
}

/// A raw record with one hit, hand-encoded so fields can go out of range.
std::string RawRecordWithHit(uint64_t channel, uint64_t adc, double time) {
  BinaryWriter w;
  w.PutU32(1);
  w.PutVarint(2);
  w.PutU32(0);
  w.PutVarint(1);
  w.PutU8(static_cast<uint8_t>(SubDetector::kEcal));
  w.PutVarint(channel);
  w.PutVarint(adc);
  w.PutDouble(time);
  return w.TakeBuffer();
}

TEST(RawEventTest, OutOfRangeFieldsRejectedNotNarrowed) {
  // In range: decodes and re-encodes to the same bytes.
  std::string good = RawRecordWithHit(UINT32_MAX, UINT16_MAX, 1.5);
  auto decoded = DecodeRecord<RawEvent>(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeRecord(*decoded), good);
  // A channel or ADC one past its field, or a time no float can hold,
  // would decode to a different value than the one stored.
  EXPECT_TRUE(DecodeRecord<RawEvent>(RawRecordWithHit(1ull << 32, 1, 1.5))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeRecord<RawEvent>(RawRecordWithHit(1, 65536, 1.5))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeRecord<RawEvent>(RawRecordWithHit(1, 1, 0.1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeRecord<RawEvent>(RawRecordWithHit(1, 1, 1e300))
                  .status()
                  .IsCorruption());
  // Infinities are floats too.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(DecodeRecord<RawEvent>(RawRecordWithHit(1, 1, inf)).ok());
}

TEST(GenEventTest, OutOfRangeIntegersRejectedNotNarrowed) {
  GenEvent event = MakeTruthEvent();
  event.particles[0].pdg_id = std::numeric_limits<int>::max();
  ASSERT_TRUE(DecodeRecord<GenEvent>(EncodeRecord(event)).ok());
  // Re-encode the first particle's pdg_id one past int32 by hand.
  BinaryWriter w;
  w.PutVarint(event.event_number);
  w.PutSVarint(event.process_id);
  w.PutDouble(event.weight);
  w.PutVarint(1);
  w.PutSVarint(int64_t{std::numeric_limits<int>::max()} + 1);
  w.PutSVarint(1);
  w.PutSVarint(-1);
  for (int i = 0; i < 5; ++i) w.PutDouble(0.0);
  EXPECT_TRUE(DecodeRecord<GenEvent>(w.buffer()).status().IsCorruption());
}

// ------------------------------------------------------------- RecoEvent --

RecoEvent MakeRecoEvent() {
  RecoEvent event;
  event.run_number = 3;
  event.event_number = 55;
  event.trigger_bits = 1;
  event.weight = 2.0;
  event.vertex_count = 4;
  Track track;
  track.momentum = FourVector::FromPtEtaPhiM(25.0, 0.5, 1.0, 0.14);
  track.charge = -1;
  track.hit_count = 9;
  track.chi2 = 7.5;
  track.d0_mm = 0.03;
  event.tracks.push_back(track);
  CaloCluster cluster;
  cluster.energy = 33.0;
  cluster.eta = 0.52;
  cluster.phi = 1.02;
  cluster.em_fraction = 0.93;
  cluster.cell_count = 5;
  event.clusters.push_back(cluster);
  PhysicsObject electron;
  electron.type = ObjectType::kElectron;
  electron.momentum = FourVector::FromPtEtaPhiM(30.0, 0.5, 1.0, 0.0);
  electron.charge = -1;
  electron.isolation = 0.5;
  electron.quality = 0.93;
  event.objects.push_back(electron);
  return event;
}

TEST(RecoEventTest, RecordRoundTrip) {
  RecoEvent event = MakeRecoEvent();
  auto restored = DecodeRecord<RecoEvent>(EncodeRecord(event));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->vertex_count, 4);
  ASSERT_EQ(restored->tracks.size(), 1u);
  EXPECT_EQ(restored->tracks[0].charge, -1);
  EXPECT_DOUBLE_EQ(restored->tracks[0].d0_mm, 0.03);
  ASSERT_EQ(restored->clusters.size(), 1u);
  EXPECT_DOUBLE_EQ(restored->clusters[0].em_fraction, 0.93);
  ASSERT_EQ(restored->objects.size(), 1u);
  EXPECT_EQ(restored->objects[0].type, ObjectType::kElectron);
}

TEST(ObjectTypeTest, Names) {
  EXPECT_EQ(ObjectTypeName(ObjectType::kElectron), "electron");
  EXPECT_EQ(ObjectTypeName(ObjectType::kMet), "met");
}

// -------------------------------------------------------------- AodEvent --

TEST(AodEventTest, FromRecoDropsIntermediateData) {
  RecoEvent reco = MakeRecoEvent();
  AodEvent aod = AodEvent::FromReco(reco);
  EXPECT_EQ(aod.event_number, reco.event_number);
  EXPECT_EQ(aod.objects.size(), reco.objects.size());
  // AOD records are much smaller than RECO records (the §3.2 reduction).
  EXPECT_LT(EncodeRecord(aod).size(), EncodeRecord(reco).size());
}

TEST(AodEventTest, RecordRoundTrip) {
  AodEvent aod = AodEvent::FromReco(MakeRecoEvent());
  auto restored = DecodeRecord<AodEvent>(EncodeRecord(aod));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->objects.size(), 1u);
  EXPECT_EQ(restored->objects[0].type, ObjectType::kElectron);
  EXPECT_EQ(restored->vertex_count, 4);
}

TEST(AodEventTest, ObjectsOfTypeAndMet) {
  AodEvent aod;
  PhysicsObject jet;
  jet.type = ObjectType::kJet;
  PhysicsObject met;
  met.type = ObjectType::kMet;
  met.momentum = FourVector(3.0, 4.0, 0.0, 5.0);
  aod.objects = {jet, met};
  EXPECT_EQ(aod.ObjectsOfType(ObjectType::kJet).size(), 1u);
  EXPECT_EQ(aod.ObjectsOfType(ObjectType::kMuon).size(), 0u);
  ASSERT_NE(aod.Met(), nullptr);
  EXPECT_DOUBLE_EQ(aod.Met()->momentum.Pt(), 5.0);
  AodEvent empty;
  EXPECT_EQ(empty.Met(), nullptr);
}

}  // namespace
}  // namespace daspos
