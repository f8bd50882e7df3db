// Deterministic fuzz tests: every parser in the preservation stack must
// survive arbitrary corruption of its input with a typed error — never a
// crash, hang, or silent success. Preserved data WILL rot; the first line
// of defence is that readers fail loudly and safely.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "archive/migrate.h"
#include "archive/object_store.h"
#include "archive/pack_store.h"
#include "archive/replicated_store.h"
#include "archive/scrub.h"
#include "conditions/global_tag.h"
#include "conditions/snapshot.h"
#include "conditions/store.h"
#include "detsim/calib.h"
#include "detsim/simulation.h"
#include "event/aod.h"
#include "event/raw.h"
#include "event/reco.h"
#include "event/truth.h"
#include "hist/yoda_io.h"
#include "level2/dialects.h"
#include "lhada/lhada.h"
#include "mc/generator.h"
#include "reco/reconstruction.h"
#include "serialize/container.h"
#include "serialize/json.h"
#include "support/compress.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "store_test_util.h"
#include "tiers/dataset.h"
#include "workflow/journal.h"

namespace daspos {
namespace {

/// Applies one random mutation: flip a byte, truncate, duplicate a slice,
/// or insert junk.
std::string Mutate(const std::string& input, Rng* rng) {
  if (input.empty()) return input;
  std::string out = input;
  switch (rng->UniformInt(4)) {
    case 0: {  // byte flip
      size_t pos = static_cast<size_t>(rng->UniformInt(out.size()));
      out[pos] = static_cast<char>(
          static_cast<unsigned char>(out[pos]) ^ (1u << rng->UniformInt(8)));
      break;
    }
    case 1: {  // truncate
      out.resize(static_cast<size_t>(rng->UniformInt(out.size())));
      break;
    }
    case 2: {  // duplicate a slice
      size_t a = static_cast<size_t>(rng->UniformInt(out.size()));
      size_t len = static_cast<size_t>(
          rng->UniformInt(std::min<uint64_t>(64, out.size() - a) + 1));
      out.insert(a, out.substr(a, len));
      break;
    }
    default: {  // insert junk bytes
      size_t pos = static_cast<size_t>(rng->UniformInt(out.size()));
      std::string junk;
      for (int i = 0; i < 8; ++i) {
        junk.push_back(static_cast<char>(rng->UniformInt(256)));
      }
      out.insert(pos, junk);
    }
  }
  return out;
}

std::string RandomBytes(size_t n, Rng* rng) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng->UniformInt(256)));
  }
  return out;
}

constexpr int kRounds = 400;

TEST(FuzzTest, JsonParserNeverCrashes) {
  Rng rng(101);
  std::string seed = R"({"a":[1,2,{"b":"text A"}],"c":null,"d":1.5e3})";
  for (int i = 0; i < kRounds; ++i) {
    auto result = Json::Parse(Mutate(seed, &rng));
    // Either parses or errors; both are fine — just don't crash.
    if (result.ok()) {
      (void)result->Dump();
    }
  }
  for (int i = 0; i < kRounds; ++i) {
    (void)Json::Parse(RandomBytes(1 + rng.UniformInt(200), &rng));
  }
}

TEST(FuzzTest, ContainerOpenNeverCrashesAndNeverLies) {
  Rng rng(102);
  GeneratorConfig config;
  config.seed = 9;
  EventGenerator generator(config);
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "fuzz";
  std::string pristine = WriteGenDataset(info, generator.GenerateMany(10));
  int accepted_mutants = 0;
  for (int i = 0; i < kRounds; ++i) {
    std::string mutant = Mutate(pristine, &rng);
    auto reader = ContainerReader::Open(mutant);
    if (reader.ok() && mutant != pristine) ++accepted_mutants;
  }
  // The SHA-256 footer makes accepting a damaged container essentially
  // impossible.
  EXPECT_EQ(accepted_mutants, 0);
  for (int i = 0; i < kRounds; ++i) {
    (void)ContainerReader::Open(RandomBytes(rng.UniformInt(300), &rng));
  }
}

/// Feeds mutants and random bytes to DecodeRecord<Event>. Nothing may crash,
/// and every record the decoder accepts must re-encode to exactly its own
/// bytes: a decoder that narrows or normalizes a field would let two
/// different preserved files decode to the same event. Returns how many
/// mutants were accepted.
template <typename Event>
int FuzzRecordDecoder(const std::string& record, Rng* rng) {
  int accepted = 0;
  for (int i = 0; i < kRounds; ++i) {
    std::string mutant = Mutate(record, rng);
    auto event = DecodeRecord<Event>(mutant);
    if (!event.ok()) continue;
    ++accepted;
    EXPECT_TRUE(EncodeRecord(*event) == mutant)
        << "accepted mutant " << i << " re-encodes differently";
  }
  for (int i = 0; i < kRounds; ++i) {
    std::string junk = RandomBytes(rng->UniformInt(200), rng);
    auto event = DecodeRecord<Event>(junk);
    if (event.ok()) {
      EXPECT_TRUE(EncodeRecord(*event) == junk) << "accepted junk " << i;
    }
  }
  return accepted;
}

/// One realistic event per tier, from the generator through the detector
/// simulation and reconstruction.
struct TierRecords {
  std::string gen, raw, reco, aod;
};

TierRecords MakeTierRecords() {
  GeneratorConfig gen_config;
  gen_config.process = Process::kZToLL;
  gen_config.seed = 10;
  GenEvent truth = EventGenerator(gen_config).Generate();
  SimulationConfig sim_config;
  RawEvent raw = DetectorSimulation(sim_config).Simulate(truth, 1);
  ReconstructionConfig reco_config;
  reco_config.geometry = sim_config.geometry;
  reco_config.calib = sim_config.calib;
  RecoEvent reco = Reconstructor(reco_config).Reconstruct(raw);
  return {EncodeRecord(truth), EncodeRecord(raw), EncodeRecord(reco),
          EncodeRecord(AodEvent::FromReco(reco))};
}

TEST(FuzzTest, EventRecordDecodersNeverCrash) {
  Rng rng(103);
  GeneratorConfig config;
  config.process = Process::kQcdDijet;
  config.seed = 10;
  EventGenerator generator(config);
  (void)FuzzRecordDecoder<GenEvent>(EncodeRecord(generator.Generate()), &rng);
}

TEST(FuzzTest, EveryAcceptedRecordReencodesByteIdentically) {
  Rng rng(112);
  const TierRecords records = MakeTierRecords();
  ASSERT_FALSE(records.reco.empty());
  // Flips inside doubles decode to other valid doubles, so each tier has
  // accepted mutants for the property to bite on.
  EXPECT_GT(FuzzRecordDecoder<GenEvent>(records.gen, &rng), 0);
  EXPECT_GT(FuzzRecordDecoder<RawEvent>(records.raw, &rng), 0);
  EXPECT_GT(FuzzRecordDecoder<RecoEvent>(records.reco, &rng), 0);
  EXPECT_GT(FuzzRecordDecoder<AodEvent>(records.aod, &rng), 0);
}

TEST(FuzzTest, YodaReaderNeverCrashes) {
  Rng rng(104);
  Histo1D histogram("/fuzz/h", 10, 0.0, 1.0);
  histogram.Fill(0.5);
  std::string seed = WriteYoda({histogram});
  for (int i = 0; i < kRounds; ++i) {
    (void)ReadYoda(Mutate(seed, &rng));
  }
}

TEST(FuzzTest, CalibrationPayloadParserNeverCrashes) {
  Rng rng(105);
  CalibrationSet calib;
  std::string seed = calib.ToPayload();
  for (int i = 0; i < kRounds; ++i) {
    (void)CalibrationSet::FromPayload(Mutate(seed, &rng));
  }
}

TEST(FuzzTest, SnapshotParserNeverCrashes) {
  Rng rng(106);
  ConditionsDb db;
  CalibrationSet calib;
  ASSERT_TRUE(db.Append("calib/detector", 1, calib.ToPayload()).ok());
  std::string seed =
      ConditionsSnapshot::Capture(db, 5, {"calib/detector"})->Serialize();
  for (int i = 0; i < kRounds; ++i) {
    (void)ConditionsSnapshot::Parse(Mutate(seed, &rng));
  }
}

TEST(FuzzTest, DialectDecodersNeverCrash) {
  Rng rng(107);
  level2::CommonEvent event;
  event.run = 1;
  event.event = 2;
  event.objects.push_back({"muon", 30.0, 0.5, 1.0, -1});
  event.tracks.push_back({5.0, 0.1, 0.2, 1, 0.01});
  event.met = 12.0;
  for (Experiment experiment : kAllExperiments) {
    const level2::Level2Codec& codec = level2::CodecFor(experiment);
    std::string seed = codec.Encode(event);
    for (int i = 0; i < kRounds / 4; ++i) {
      (void)codec.Decode(Mutate(seed, &rng));
      (void)codec.Decode(RandomBytes(rng.UniformInt(150), &rng));
    }
  }
}

TEST(FuzzTest, LhadaParserNeverCrashes) {
  Rng rng(108);
  std::string seed =
      "analysis fuzz\nobject m\n take muon\n select pt > 25\n"
      "cut c\n select count(m) >= 2\n select mass(m[0], m[1]) > 50\n";
  for (int i = 0; i < kRounds; ++i) {
    (void)lhada::AnalysisDescription::Parse(Mutate(seed, &rng));
  }
  // Line-shuffled garbage built from valid keywords.
  const char* fragments[] = {"analysis x",  "object o",   "take muon",
                             "select pt > ", "cut c",      "require c",
                             "select count(o) >= ",        "select met < "};
  for (int i = 0; i < kRounds; ++i) {
    std::string document;
    int lines = 1 + static_cast<int>(rng.UniformInt(8));
    for (int l = 0; l < lines; ++l) {
      document += fragments[rng.UniformInt(8)];
      if (rng.Accept(0.5)) {
        document += std::to_string(rng.UniformInt(100));
      }
      document += "\n";
    }
    (void)lhada::AnalysisDescription::Parse(document);
  }
}

TEST(FuzzTest, GlobalTagParserNeverCrashes) {
  Rng rng(110);
  GlobalTag tag;
  tag.name = "FUZZ_GT";
  tag.roles = {{"detector", "calib/detector"}, {"beam", "beamspot"}};
  std::string seed = tag.Serialize();
  for (int i = 0; i < kRounds; ++i) {
    (void)GlobalTag::Parse(Mutate(seed, &rng));
  }
}

TEST(FuzzTest, DecompressorNeverCrashesOnRandomBytes) {
  Rng rng(111);
  for (int i = 0; i < kRounds; ++i) {
    std::string junk = "DZ01" + RandomBytes(rng.UniformInt(200), &rng);
    (void)Decompress(junk);
  }
}

TEST(FuzzTest, MutatedDatasetNeverYieldsWrongEvents) {
  // If a mutated dataset happens to open (it should not), the decoded
  // events must still satisfy basic invariants; with fixity on, we expect
  // zero acceptances and this documents the guarantee.
  Rng rng(109);
  GeneratorConfig config;
  config.seed = 12;
  EventGenerator generator(config);
  DatasetInfo info;
  info.tier = DataTier::kGen;
  info.name = "guard";
  std::string pristine = WriteGenDataset(info, generator.GenerateMany(5));
  for (int i = 0; i < kRounds; ++i) {
    std::string mutant = Mutate(pristine, &rng);
    if (mutant == pristine) continue;
    auto events = ReadGenDataset(mutant);
    EXPECT_FALSE(events.ok()) << "mutant accepted at round " << i;
  }
}

TEST(FuzzTest, PackStoreReopenNeverServesWrongBytes) {
  // A sealed pack store whose sidecar index, segment log, or both were
  // mutated must reopen without crashing, finish its walk, and answer every
  // Get with bytes that hash to the id or with an error.
  const std::string base = std::filesystem::temp_directory_path().string() +
                           "/daspos_fuzz_pack_" + std::to_string(::getpid());
  std::filesystem::remove_all(base);
  std::vector<std::string> ids;
  {
    PackOptions options;
    options.compress = true;  // mixes compressed and raw records
    PackObjectStore store(base + "/pristine", options);
    Rng payload_rng(113);
    for (int i = 0; i < 6; ++i) {
      auto id = store.Put(
          i % 2 == 0 ? std::string(200, static_cast<char>('a' + i))
                     : RandomBytes(static_cast<size_t>(40 + 24 * i),
                                   &payload_rng));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  auto segment = ReadFileToString(PackSegmentPath(base + "/pristine"));
  auto index = ReadFileToString(PackIndexPath(base + "/pristine"));
  ASSERT_TRUE(segment.ok() && index.ok());

  Rng rng(112);
  for (int i = 0; i < kRounds; ++i) {
    // Rounds cycle through: index only, segment only, both.
    const std::string root = base + "/round" + std::to_string(i);
    const std::string idx = i % 3 != 1 ? Mutate(*index, &rng) : *index;
    const std::string seg = i % 3 != 0 ? Mutate(*segment, &rng) : *segment;
    ASSERT_TRUE(WriteStringToFile(PackIndexPath(root), idx).ok());
    ASSERT_TRUE(WriteStringToFile(PackSegmentPath(root), seg).ok());
    PackObjectStore store(root);
    std::vector<std::string> probes = ids;
    (void)store.ForEachId([&probes](const std::string& id) {
      probes.push_back(id);
      return Status::OK();
    });
    for (const std::string& id : probes) {
      auto got = store.Get(id);
      if (got.ok()) {
        EXPECT_EQ(Sha256::HashHex(*got), id) << "round " << i;
      }
    }
  }
  std::filesystem::remove_all(base);
}

// ------------------------------------------------ durable JSON-lines state
//
// The run journal, the scrub cursor and the pack quarantine log are written
// by AppendJsonLine and read back by ParseJsonLines; the GENERATION marker
// is one document. Each is written here by its production writer, then
// truncated at every byte offset (a crash mid-append) and bit-flipped (rot)
// and opened through its public reader. A truncated file must read as a
// prefix of what was written; a flipped one must never crash the reader.

/// Flips one seeded bit of `text`.
std::string FlipBit(std::string text, Rng* rng) {
  const size_t pos = static_cast<size_t>(rng->UniformInt(text.size()));
  text[pos] = static_cast<char>(static_cast<unsigned char>(text[pos]) ^
                                (1u << rng->UniformInt(8)));
  return text;
}

/// How many of `text`'s lines are whole within its first `size` bytes (the
/// trailing newline need not be).
size_t WholeLines(const std::string& text, size_t size) {
  size_t whole = 0;
  for (size_t end = text.find('\n'); end != std::string::npos;
       end = text.find('\n', end + 1)) {
    if (end <= size) ++whole;
  }
  return whole;
}

class DurableStateFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path().string() +
            "/daspos_fuzz_state_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid());
    std::filesystem::remove_all(base_);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  std::string Dir(const std::string& name) const { return base_ + "/" + name; }

  std::string base_;
};

TEST_F(DurableStateFuzzTest, JournalReadsAPrefixOfItsRecords) {
  std::vector<RunJournal::Record> written;
  {
    auto journal = RunJournal::Open(Dir("written"));
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 3; ++i) {
      RunJournal::Record record;
      record.step = "step" + std::to_string(i);
      record.output = "out" + std::to_string(i);
      record.config_hash = std::string(64, static_cast<char>('a' + i));
      record.bytes = 1000u * static_cast<uint64_t>(i + 1);
      record.events = static_cast<uint64_t>(10 * i);
      ASSERT_TRUE((*journal)->Append(record, "blob " + record.step).ok());
    }
    written = (*journal)->records();
  }
  auto text = ReadFileToString(RunJournal::LinesPath(Dir("written")));
  ASSERT_TRUE(text.ok());
  const std::string lines_path = RunJournal::LinesPath(Dir("read"));
  auto read_back = [&](const std::string& bytes) {
    EXPECT_TRUE(WriteStringToFile(lines_path, bytes).ok());
    auto journal = RunJournal::Open(Dir("read"));
    EXPECT_TRUE(journal.ok());
    return journal.ok() ? (*journal)->records()
                        : std::vector<RunJournal::Record>{};
  };
  for (size_t size = 0; size <= text->size(); ++size) {
    std::vector<RunJournal::Record> records =
        read_back(text->substr(0, size));
    ASSERT_EQ(records.size(), WholeLines(*text, size)) << "size " << size;
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].step, written[i].step);
      EXPECT_EQ(records[i].output, written[i].output);
      EXPECT_EQ(records[i].digest, written[i].digest);
      EXPECT_EQ(records[i].config_hash, written[i].config_hash);
      EXPECT_EQ(records[i].bytes, written[i].bytes);
      EXPECT_EQ(records[i].events, written[i].events);
    }
  }
  Rng rng(114);
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_LE(read_back(FlipBit(*text, &rng)).size(), written.size());
  }
}

TEST_F(DurableStateFuzzTest, ScrubCursorResumesFromAPrefix) {
  MemoryObjectStore r0, r1;
  ReplicatedObjectStore store({&r0, &r1});
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = store.Put("scrubbed object " + std::to_string(i));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::sort(ids.begin(), ids.end());
  ScrubOptions options;
  options.cursor_dir = Dir("cursor");
  options.batch_size = 2;
  // One full pass: checkpoints after ids[1], ids[3] and ids[5] (complete).
  ASSERT_TRUE(ScrubReplicas({&r0, &r1}, options).ok());
  const std::string cursor_path = Dir("cursor") + "/scrub_cursor.jsonl";
  auto text = ReadFileToString(cursor_path);
  ASSERT_TRUE(text.ok());
  ASSERT_EQ(WholeLines(*text, text->size()), 3u);

  // Each probe scrubs one object and appends its checkpoint after the
  // bytes it was given; that line says where the probe resumed.
  options.batch_size = 1;
  options.max_objects = 1;
  for (size_t size = 0; size <= text->size(); ++size) {
    ASSERT_TRUE(WriteStringToFile(cursor_path, text->substr(0, size)).ok());
    ASSERT_TRUE(ScrubReplicas({&r0, &r1}, options).ok());
    auto after = ReadFileToString(cursor_path);
    ASSERT_TRUE(after.ok());
    auto line = Json::Parse(after->substr(size));
    ASSERT_TRUE(line.ok()) << "size " << size;
    // Pass 1 resumes after batch `whole`; all three mean pass 2 begins.
    const size_t whole = WholeLines(*text, size);
    const uint64_t pass = whole == 3 ? 2 : 1;
    const size_t resume_at = whole == 3 ? 0 : 2 * whole;
    EXPECT_EQ(line->Get("pass").as_uint(), pass) << "size " << size;
    EXPECT_EQ(line->Get("last_id").as_string(), ids[resume_at])
        << "size " << size;
    EXPECT_EQ(line->Get("checked").as_uint(), resume_at + 1)
        << "size " << size;
  }
  Rng rng(115);
  for (int i = 0; i < kRounds / 4; ++i) {
    ASSERT_TRUE(WriteStringToFile(cursor_path, FlipBit(*text, &rng)).ok());
    EXPECT_TRUE(ScrubReplicas({&r0, &r1}, options).ok()) << "round " << i;
  }
}

TEST_F(DurableStateFuzzTest, QuarantineLogReplaysAPrefix) {
  // Three healthy records; a copy of the store with all three rotted
  // writes the quarantine log (one line per Quarantine, in id order below).
  const std::string payload = "quarantine fuzz payload #";
  std::vector<std::string> ids;
  {
    PackObjectStore store(Dir("pristine"));
    for (int i = 0; i < 3; ++i) {
      auto id = store.Put(payload + std::to_string(i));
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(store.Flush().ok());
  }
  std::filesystem::copy(Dir("pristine"), Dir("rotted"),
                        std::filesystem::copy_options::recursive);
  const uint64_t stride = kPackRecordHeaderSize + payload.size() + 1;
  for (uint64_t i = 0; i < 3; ++i) {
    FlipByte(PackSegmentPath(Dir("rotted")),
             kPackSegmentHeaderSize + kPackRecordHeaderSize + i * stride);
  }
  {
    PackObjectStore rotted(Dir("rotted"));
    for (const std::string& id : ids) {
      auto got = rotted.Get(id);
      ASSERT_TRUE(got.status().IsCorruption());
      ASSERT_TRUE(rotted.Quarantine(id, got.status().message()).ok());
    }
  }
  auto text = ReadFileToString(Dir("rotted") + "/quarantine.jsonl");
  ASSERT_TRUE(text.ok());
  ASSERT_EQ(WholeLines(*text, text->size()), 3u);

  const std::string log_path = Dir("pristine") + "/quarantine.jsonl";
  for (size_t size = 0; size <= text->size(); ++size) {
    ASSERT_TRUE(WriteStringToFile(log_path, text->substr(0, size)).ok());
    PackObjectStore store(Dir("pristine"));
    const size_t whole = WholeLines(*text, size);
    std::vector<std::string> condemned(
        ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(whole));
    std::sort(condemned.begin(), condemned.end());
    EXPECT_EQ(store.QuarantinedIds().value(), condemned) << "size " << size;
    for (size_t i = 0; i < ids.size(); ++i) {
      auto got = store.Get(ids[i]);
      if (i < whole) {
        EXPECT_TRUE(got.status().IsNotFound()) << "size " << size;
      } else {
        EXPECT_EQ(got.ok() ? *got : "", payload + std::to_string(i))
            << "size " << size;
      }
    }
  }
  Rng rng(116);
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(WriteStringToFile(log_path, FlipBit(*text, &rng)).ok());
    PackObjectStore store(Dir("pristine"));
    EXPECT_LE(store.QuarantinedIds().value().size(), ids.size());
    for (const std::string& id : ids) {
      auto got = store.Get(id);
      if (got.ok()) {
        EXPECT_EQ(Sha256::HashHex(*got), id) << "round " << i;
      }
    }
  }
}

TEST_F(DurableStateFuzzTest, GenerationMarkerReadsWhollyOrAsZero) {
  MemoryObjectStore source, target;
  ASSERT_TRUE(source.Put("migrated object").ok());
  MigrateOptions options;
  options.state_dir = Dir("state");
  ASSERT_TRUE(MigrateGeneration(source, target, options).ok());
  ASSERT_TRUE(MigrateGeneration(source, target, options).ok());
  const std::string marker_path = Dir("state") + "/GENERATION";
  auto text = ReadFileToString(marker_path);
  ASSERT_TRUE(text.ok());
  ASSERT_EQ(ReadGeneration(Dir("state")), 2u);

  const size_t close = text->rfind('}');
  ASSERT_NE(close, std::string::npos);
  for (size_t size = 0; size <= text->size(); ++size) {
    ASSERT_TRUE(WriteStringToFile(marker_path, text->substr(0, size)).ok());
    EXPECT_EQ(ReadGeneration(Dir("state")), size > close ? 2u : 0u)
        << "size " << size;
  }
  Rng rng(117);
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(WriteStringToFile(marker_path, FlipBit(*text, &rng)).ok());
    (void)ReadGeneration(Dir("state"));
  }
  // A generation that is not a valid uint reads as 0, never as a wrapped
  // or truncated value.
  for (const char* bad : {"-1", "2.5", "1e300", "-1e300",
                          "18446744073709551616", "\"2\"", "null"}) {
    const std::string marker = std::string("{\"generation\": ") + bad + "}";
    ASSERT_TRUE(WriteStringToFile(marker_path, marker).ok());
    EXPECT_EQ(ReadGeneration(Dir("state")), 0u) << bad;
  }
}

}  // namespace
}  // namespace daspos
