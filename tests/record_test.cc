// Tests for the declared record layouts (serialize/record.h): every declared
// type round-trips through the generic encoder and decoder, and the field
// tables in docs/FORMAT.md are exactly what the describer renders.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "detsim/simulation.h"
#include "event/aod.h"
#include "event/raw.h"
#include "event/reco.h"
#include "event/truth.h"
#include "mc/generator.h"
#include "reco/reconstruction.h"

namespace daspos {
namespace {

constexpr int kMin = std::numeric_limits<int>::min();
constexpr int kMax = std::numeric_limits<int>::max();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Chain events from two seeds, plus hand-built events holding the edge
/// value of every bounded field.
struct Samples {
  std::vector<GenEvent> gen;
  std::vector<RawEvent> raw;
  std::vector<RecoEvent> reco;
  std::vector<AodEvent> aod;
};

Samples MakeSamples() {
  Samples s;
  for (uint64_t seed : {7u, 8u}) {
    GeneratorConfig gen_config;
    gen_config.process = Process::kZToLL;
    gen_config.seed = seed;
    EventGenerator generator(gen_config);
    SimulationConfig sim_config;
    DetectorSimulation simulation(sim_config);
    ReconstructionConfig reco_config;
    reco_config.geometry = sim_config.geometry;
    reco_config.calib = sim_config.calib;
    Reconstructor reconstructor(reco_config);
    for (int i = 0; i < 5; ++i) {
      s.gen.push_back(generator.Generate());
      s.raw.push_back(simulation.Simulate(s.gen.back(), 1));
      s.reco.push_back(reconstructor.Reconstruct(s.raw.back()));
      s.aod.push_back(AodEvent::FromReco(s.reco.back()));
    }
  }

  GenEvent gen;
  gen.event_number = std::numeric_limits<uint64_t>::max();
  gen.process_id = kMin;
  for (int edge : {kMin, kMax}) {
    GenParticle particle;
    particle.pdg_id = edge;
    particle.status = edge;
    particle.mother = edge;
    particle.momentum = FourVector(-0.0, 1e300, -1e-300, 0.5);
    gen.particles.push_back(particle);
  }
  s.gen.push_back(gen);

  RawEvent raw;
  raw.run_number = UINT32_MAX;
  raw.event_number = std::numeric_limits<uint64_t>::max();
  raw.trigger_bits = UINT32_MAX;
  raw.hits.push_back({SubDetector::kMuon, UINT32_MAX, UINT16_MAX, kInf});
  raw.hits.push_back({SubDetector::kTracker, 0, 0, -kInf});
  raw.hits.push_back({SubDetector::kEcal, 1, 1,
                      std::numeric_limits<float>::max()});
  s.raw.push_back(raw);

  RecoEvent reco;
  reco.run_number = UINT32_MAX;
  reco.vertex_count = kMin;
  Track track;
  track.charge = kMin;
  track.hit_count = kMax;
  reco.tracks.push_back(track);
  CaloCluster cluster;
  cluster.cell_count = kMax;
  reco.clusters.push_back(cluster);
  PhysicsObject met;
  met.type = ObjectType::kMet;
  met.charge = kMax;
  reco.objects.push_back(met);
  s.reco.push_back(reco);
  s.aod.push_back(AodEvent::FromReco(reco));
  return s;
}

const Samples& GetSamples() {
  static const Samples samples = MakeSamples();
  return samples;
}

template <typename T>
std::vector<T> Flatten(const auto& events, const auto& member) {
  std::vector<T> out;
  for (const auto& event : events) {
    out.insert(out.end(), (event.*member).begin(), (event.*member).end());
  }
  return out;
}

/// The samples of one declared type: whole events, or every element of
/// their lists.
template <typename T>
std::vector<T> SamplesOf() {
  const Samples& s = GetSamples();
  if constexpr (std::is_same_v<T, GenEvent>) return s.gen;
  if constexpr (std::is_same_v<T, GenParticle>) {
    return Flatten<T>(s.gen, &GenEvent::particles);
  }
  if constexpr (std::is_same_v<T, RawEvent>) return s.raw;
  if constexpr (std::is_same_v<T, RawHit>) {
    return Flatten<T>(s.raw, &RawEvent::hits);
  }
  if constexpr (std::is_same_v<T, RecoEvent>) return s.reco;
  if constexpr (std::is_same_v<T, Track>) {
    return Flatten<T>(s.reco, &RecoEvent::tracks);
  }
  if constexpr (std::is_same_v<T, CaloCluster>) {
    return Flatten<T>(s.reco, &RecoEvent::clusters);
  }
  if constexpr (std::is_same_v<T, PhysicsObject>) {
    return Flatten<T>(s.reco, &RecoEvent::objects);
  }
  if constexpr (std::is_same_v<T, AodEvent>) return s.aod;
}

template <typename T>
class RecordRoundTripTest : public ::testing::Test {};

using DeclaredRecords =
    ::testing::Types<GenParticle, GenEvent, RawHit, RawEvent, Track,
                     CaloCluster, PhysicsObject, RecoEvent, AodEvent>;
TYPED_TEST_SUITE(RecordRoundTripTest, DeclaredRecords);

TYPED_TEST(RecordRoundTripTest, DecodeOfEncodeIsTheValue) {
  const std::vector<TypeParam> values = SamplesOf<TypeParam>();
  ASSERT_GT(values.size(), 1u);
  for (size_t i = 0; i < values.size(); ++i) {
    const std::string record = EncodeRecord(values[i]);
    Result<TypeParam> decoded = DecodeRecord<TypeParam>(record);
    ASSERT_TRUE(decoded.ok()) << i << ": " << decoded.status().ToString();
    EXPECT_TRUE(*decoded == values[i]) << i;
    // == cannot tell -0.0 from 0.0; the bytes can.
    EXPECT_EQ(EncodeRecord(*decoded), record) << i;
  }
}

TYPED_TEST(RecordRoundTripTest, EveryTruncationIsCorruption) {
  const std::string record = EncodeRecord(SamplesOf<TypeParam>().back());
  for (size_t size = 0; size < record.size(); ++size) {
    EXPECT_TRUE(DecodeRecord<TypeParam>(record.substr(0, size))
                    .status()
                    .IsCorruption())
        << size;
  }
  EXPECT_TRUE(
      DecodeRecord<TypeParam>(record + '\0').status().IsCorruption());
}

TEST(RecordErrorTest, ErrorsNameTheRecordAndField) {
  RawEvent raw;
  raw.hits.push_back({SubDetector::kEcal, 1, 1, 0.0f});
  std::string record = EncodeRecord(raw);
  record[4 + 1 + 4 + 1] = 9;  // the first hit's detector byte
  EXPECT_EQ(DecodeRecord<RawEvent>(record).status().message(),
            "RawEvent.hits: RawHit.detector: enum value out of range");
  EXPECT_EQ(DecodeRecord<RawEvent>(EncodeRecord(raw) + "x").status().message(),
            "trailing bytes after RawEvent record");
}

// --------------------------------------------------------- docs/FORMAT.md

/// Every declared table, in the order FORMAT.md lists them.
template <typename... Ts>
std::string RenderTables() {
  std::string out;
  ((out += "### " + std::string(kLayoutOf<Ts>.name) + "\n\n" +
           DescribeRecord<Ts>() + "\n"),
   ...);
  return out;
}

TEST(RecordTableTest, FormatMdHoldsTheDeclaredTables) {
  const std::string expected =
      RenderTables<GenEvent, GenParticle, RawEvent, RawHit, RecoEvent, Track,
                   CaloCluster, PhysicsObject, AodEvent>();
  std::ifstream file(DASPOS_FORMAT_MD);
  ASSERT_TRUE(file.good()) << DASPOS_FORMAT_MD;
  std::stringstream text;
  text << file.rdbuf();
  const std::string doc = text.str();
  const std::string begin = "<!-- record tables: begin -->\n\n";
  const std::string end = "<!-- record tables: end -->";
  const size_t from = doc.find(begin);
  const size_t to = doc.find(end);
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  EXPECT_EQ(doc.substr(from + begin.size(), to - from - begin.size()),
            expected)
      << "docs/FORMAT.md's record tables differ from the declared layouts; "
         "the block between the markers must read:\n"
      << expected;
}

}  // namespace
}  // namespace daspos
