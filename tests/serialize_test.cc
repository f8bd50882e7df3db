// Unit + property tests for JSON, binary primitives, and the
// self-describing container (including corruption injection).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "serialize/binary.h"
#include "serialize/container.h"
#include "serialize/json.h"
#include "support/io.h"
#include "support/threadpool.h"

namespace daspos {
namespace {

// ------------------------------------------------------------------ JSON --

TEST(JsonTest, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.Dump(), "null");
}

TEST(JsonTest, Scalars) {
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(-3.5).Dump(), "-3.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).Dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json j = Json::Object();
  j["z"] = 1;
  j["a"] = 2;
  j["m"] = 3;
  EXPECT_EQ(j.Dump(), "{\"z\":1,\"a\":2,\"m\":3}");
}

TEST(JsonTest, ArrayPushBack) {
  Json j = Json::Array();
  j.push_back(1);
  j.push_back("two");
  j.push_back(Json());
  EXPECT_EQ(j.Dump(), "[1,\"two\",null]");
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.at(1).as_string(), "two");
  EXPECT_TRUE(j.at(99).is_null());
}

TEST(JsonTest, GetAndHas) {
  Json j = Json::Object();
  j["key"] = "value";
  EXPECT_TRUE(j.Has("key"));
  EXPECT_FALSE(j.Has("other"));
  EXPECT_EQ(j.Get("key").as_string(), "value");
  EXPECT_TRUE(j.Get("other").is_null());
}

TEST(JsonTest, StringEscaping) {
  Json j(std::string("a\"b\\c\nd\te\x01"));
  std::string dumped = j.Dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), j.as_string());
}

TEST(JsonTest, ParseBasicDocument) {
  auto r = Json::Parse(R"({"name":"AOD","n":3,"ok":true,"list":[1,2.5,null]})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get("name").as_string(), "AOD");
  EXPECT_EQ(r->Get("n").as_int(), 3);
  EXPECT_TRUE(r->Get("ok").as_bool());
  EXPECT_EQ(r->Get("list").size(), 3u);
  EXPECT_DOUBLE_EQ(r->Get("list").at(1).as_number(), 2.5);
  EXPECT_TRUE(r->Get("list").at(2).is_null());
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  auto r = Json::Parse("  {\n \"a\" : [ 1 , 2 ] \n}  ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get("a").size(), 2u);
}

TEST(JsonTest, ParseUnicodeEscape) {
  auto r = Json::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->as_string(), "A\xc3\xa9");
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1,}").ok());
}

TEST(JsonTest, DeepNestingRejected) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, PrettyDumpParsesBack) {
  Json j = Json::Object();
  j["schema"] = "aod";
  j["parents"] = Json::Array();
  j["parents"].push_back("file1");
  j["nested"] = Json::Object();
  j["nested"]["k"] = 1.25;
  std::string pretty = j.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto parsed = Json::Parse(pretty);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == j);
}

TEST(JsonTest, AsIntReadsZeroOutsideInt64Range) {
  EXPECT_EQ(Json::Parse("1e300")->as_int(), 0);
  EXPECT_EQ(Json::Parse("-1e300")->as_int(), 0);
  EXPECT_EQ(Json(9223372036854775808.0).as_int(), 0);  // 2^63
  EXPECT_EQ(Json(std::nan("")).as_int(), 0);
  EXPECT_EQ(Json(-9223372036854775808.0).as_int(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(Json(-7).as_int(), -7);
  EXPECT_EQ(Json(2.9).as_int(), 2);
  EXPECT_EQ(Json("12").as_int(), 0);
}

TEST(JsonTest, AsUintTakesOnlyIntegralNumbersInRange) {
  EXPECT_EQ(Json(0).as_uint(), std::optional<uint64_t>(0));
  EXPECT_EQ(Json(uint64_t{1} << 53).as_uint(),
            std::optional<uint64_t>(uint64_t{1} << 53));
  EXPECT_EQ(Json(18446744073709549568.0).as_uint(),  // largest double < 2^64
            std::optional<uint64_t>(18446744073709549568u));
  EXPECT_EQ(Json(18446744073709551616.0).as_uint(), std::nullopt);  // 2^64
  EXPECT_EQ(Json::Parse("1e300")->as_uint(), std::nullopt);
  EXPECT_EQ(Json(-1).as_uint(), std::nullopt);
  EXPECT_EQ(Json(1.5).as_uint(), std::nullopt);
  EXPECT_EQ(Json(std::nan("")).as_uint(), std::nullopt);
  EXPECT_EQ(Json("7").as_uint(), std::nullopt);
  EXPECT_EQ(Json().as_uint(), std::nullopt);
}

TEST(JsonTest, IntegersADoubleCannotHoldStayExact) {
  // 2^53 + 1 and 2^63 + 2049 round to their neighbours as doubles; built
  // from an integer or parsed from an integer literal, they keep every digit.
  const uint64_t above_2_53 = (uint64_t{1} << 53) + 1;
  const uint64_t above_2_63 = (uint64_t{1} << 63) + 2049;
  for (uint64_t n : {above_2_53, above_2_63, ~uint64_t{0}}) {
    const Json json(n);
    EXPECT_EQ(json.Dump(), std::to_string(n));
    EXPECT_EQ(json.as_uint(), std::optional<uint64_t>(n));
    auto parsed = Json::Parse(json.Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(*parsed == json);
    EXPECT_EQ(parsed->as_uint(), std::optional<uint64_t>(n));
    EXPECT_FALSE(*parsed == Json(n - 1));
  }
  const int64_t negative = -static_cast<int64_t>(above_2_53);
  EXPECT_EQ(Json(negative).Dump(), std::to_string(negative));
  EXPECT_EQ(Json::Parse(std::to_string(negative))->as_integer<int64_t>(),
            std::optional<int64_t>(negative));
  EXPECT_EQ(Json(negative).as_int(), negative);
  EXPECT_EQ(Json(negative).as_uint(), std::nullopt);
  EXPECT_EQ(Json(above_2_63).as_int(), 0);  // past int64_t
  EXPECT_EQ(Json(above_2_63).as_integer<int64_t>(), std::nullopt);
  // Integers a double holds dump exactly as before.
  EXPECT_EQ(Json(uint64_t{1} << 53).Dump(), "9007199254740992");
  EXPECT_EQ(Json((uint64_t{1} << 63) + 2048).Dump(),
            "9.2233720368547779e+18");
  EXPECT_EQ(Json(uint64_t{123}).Dump(), "123");
}

TEST(JsonLinesTest, StopsAtFirstUnparsableLine) {
  std::string text =
      "{\"step\": \"gen\", \"output\": \"gen_out\"}\n"
      "\n"
      "{\"step\": \"sim\", \"output\": \"raw\"}\n"
      "{\"step\": \"tr\n"  // crash-truncated tail
      "{\"step\": \"after\"}\n";
  std::vector<Json> lines = ParseJsonLines(text);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].Get("step").as_string(), "gen");
  EXPECT_EQ(lines[1].Get("output").as_string(), "raw");
  EXPECT_TRUE(ParseJsonLines("").empty());
  EXPECT_EQ(ParseJsonLines("1\r\n [2] \n").size(), 2u);
}

TEST(JsonLinesTest, AppendJsonLineWritesCompactLinesThatReadBack) {
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/daspos_json_lines_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.jsonl";
  Json first = Json::Object();
  first["id"] = "a";
  first["n"] = uint64_t{3};
  Json second = Json::Object();
  second["nested"] = Json::Array();
  second["nested"].push_back(1.5);
  ASSERT_TRUE(AppendJsonLine(path, first).ok());
  ASSERT_TRUE(AppendJsonLine(path, second).ok());
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "{\"id\":\"a\",\"n\":3}\n{\"nested\":[1.5]}\n");
  EXPECT_EQ(ParseJsonLines(*text), (std::vector<Json>{first, second}));
  std::filesystem::remove_all(dir);
}

// Round-trip property over a sweep of doubles.
class JsonNumberRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(JsonNumberRoundTrip, ExactThroughDumpParse) {
  double v = GetParam();
  auto parsed = Json::Parse(Json(v).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->as_number(), v);
}

INSTANTIATE_TEST_SUITE_P(Sweep, JsonNumberRoundTrip,
                         ::testing::Values(0.0, 1.0, -1.0, 0.1, -0.1, 1e-12,
                                           3.141592653589793, 91.1876, 1e15,
                                           -2.5e-7, 12345678.9));

// ---------------------------------------------------------------- Binary --

TEST(BinaryTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutDouble(91.1876);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetU8(), 0xab);
  EXPECT_EQ(*r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 91.1876);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryTest, StringRoundTrip) {
  BinaryWriter w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string("\x00\x01", 2));
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_EQ(*r.GetString(), std::string("\x00\x01", 2));
}

TEST(BinaryTest, TruncationDetected) {
  BinaryWriter w;
  w.PutU64(7);
  std::string data(w.buffer().substr(0, 4));
  BinaryReader r(data);
  EXPECT_TRUE(r.GetU64().status().IsCorruption());
}

TEST(BinaryTest, VarintTruncationDetected) {
  std::string bad("\xff\xff", 2);  // continuation bits with no terminator
  BinaryReader r(bad);
  EXPECT_TRUE(r.GetVarint().status().IsCorruption());
}

TEST(BinaryTest, StringLengthBeyondBufferDetected) {
  BinaryWriter w;
  w.PutVarint(100);  // claims 100 bytes
  w.PutRaw("short");
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.GetString().status().IsCorruption());
}

TEST(BinaryTest, SkipAdvances) {
  BinaryWriter w;
  w.PutRaw("abcdef");
  BinaryReader r(w.buffer());
  ASSERT_TRUE(r.Skip(4).ok());
  EXPECT_EQ(*r.GetRaw(2), "ef");
  EXPECT_TRUE(r.Skip(1).IsCorruption());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  BinaryWriter w;
  w.PutVarint(GetParam());
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetVarint(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                      (1ull << 32), (1ull << 56) + 5,
                      std::numeric_limits<uint64_t>::max()));

class SVarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(SVarintRoundTrip, Signed) {
  BinaryWriter w;
  w.PutSVarint(GetParam());
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetSVarint(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SVarintRoundTrip,
    ::testing::Values(int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{63},
                      int64_t{-64}, int64_t{1000000}, int64_t{-1000000},
                      std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int64_t>::min()));

// Pinned encodings: the preserved formats depend on these exact bytes, so a
// byte-order or framing change fails here before any digest moves.
TEST(BinaryTest, FixedWidthBytesArePinnedLittleEndian) {
  BinaryWriter w;
  w.PutU32(0xdeadbeef);
  EXPECT_EQ(w.buffer(), std::string("\xef\xbe\xad\xde", 4));
  w.Clear();
  w.PutU64(0x0123456789abcdefull);
  EXPECT_EQ(w.buffer(), std::string("\xef\xcd\xab\x89\x67\x45\x23\x01", 8));
  w.Clear();
  w.PutDouble(1.0);  // IEEE-754 0x3ff0000000000000
  EXPECT_EQ(w.buffer(), std::string("\x00\x00\x00\x00\x00\x00\xf0\x3f", 8));
  w.Clear();
  w.PutDouble(-2.5);  // 0xc004000000000000
  EXPECT_EQ(w.buffer(), std::string("\x00\x00\x00\x00\x00\x00\x04\xc0", 8));
}

TEST(BinaryTest, ClearKeepsTheAllocation) {
  BinaryWriter w;
  w.PutRaw(std::string(1000, 'x'));
  const char* data = w.buffer().data();
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.buffer().empty());
  w.PutU8(7);
  EXPECT_EQ(w.buffer(), std::string("\x07", 1));
  w.PutRaw(std::string(999, 'y'));
  EXPECT_EQ(w.buffer().data(), data);
  EXPECT_EQ(w.TakeBuffer(), "\x07" + std::string(999, 'y'));
}

TEST(BinaryTest, MixedSmallAndLargePutsKeepOrder) {
  // Small puts go to spare room, large raw payloads are appended directly;
  // the output must be the plain concatenation either way.
  BinaryWriter w;
  w.Reserve(16);
  std::string expected;
  for (int i = 0; i < 50; ++i) {
    const std::string payload(static_cast<size_t>(i * 37 % 700),
                              static_cast<char>('a' + i % 26));
    w.PutString(payload);
    w.PutU32(static_cast<uint32_t>(i));
    AppendVarint(expected, payload.size());
    expected += payload;
    expected += std::string("\0\0\0\0", 4);
    expected[expected.size() - 4] = static_cast<char>(i);
  }
  EXPECT_EQ(w.size(), expected.size());
  EXPECT_EQ(w.buffer(), expected);
  EXPECT_EQ(w.TakeBuffer(), expected);
  EXPECT_EQ(w.size(), 0u);
}

TEST(BinaryTest, FixedWidthTruncationAtEveryOffsetDetected) {
  BinaryWriter w;
  w.PutU64(0x0123456789abcdefull);
  for (size_t n = 0; n < 8; ++n) {
    BinaryReader u64(std::string_view(w.buffer()).substr(0, n));
    EXPECT_TRUE(u64.GetU64().status().IsCorruption()) << n;
    BinaryReader dbl(std::string_view(w.buffer()).substr(0, n));
    EXPECT_TRUE(dbl.GetDouble().status().IsCorruption()) << n;
  }
  for (size_t n = 0; n < 4; ++n) {
    BinaryReader u32(std::string_view(w.buffer()).substr(0, n));
    EXPECT_TRUE(u32.GetU32().status().IsCorruption()) << n;
  }
}

struct VarintCase {
  uint64_t value;
  std::string bytes;
};

// Names each case by its value. Without this gtest prints the raw bytes of
// the struct, std::string's heap pointer included, and the test names would
// change from one build to the next.
void PrintTo(const VarintCase& c, std::ostream* os) {
  *os << "0x" << std::hex << c.value;
}

class VarintEncoding : public ::testing::TestWithParam<VarintCase> {};

TEST_P(VarintEncoding, BytesArePinnedAndRoundTrip) {
  const VarintCase& c = GetParam();
  BinaryWriter w;
  w.PutVarint(c.value);
  EXPECT_EQ(w.buffer(), c.bytes);
  std::string framed;
  AppendVarint(framed, c.value);
  EXPECT_EQ(framed, c.bytes);
  BinaryReader r(w.buffer());
  auto decoded = r.GetVarint();
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, c.value);
  EXPECT_TRUE(r.AtEnd());
}

TEST_P(VarintEncoding, TruncationAtEveryOffsetDetected) {
  const std::string& bytes = GetParam().bytes;
  for (size_t n = 0; n < bytes.size(); ++n) {
    BinaryReader r(std::string_view(bytes).substr(0, n));
    EXPECT_TRUE(r.GetVarint().status().IsCorruption()) << "prefix " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintEncoding,
    ::testing::Values(
        VarintCase{0, std::string("\x00", 1)},
        VarintCase{0x7f, "\x7f"},
        VarintCase{0x80, "\x80\x01"},
        VarintCase{(1ull << 14) - 1, "\xff\x7f"},
        VarintCase{1ull << 14, "\x80\x80\x01"},
        VarintCase{1ull << 63, "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"},
        VarintCase{std::numeric_limits<uint64_t>::max(),
                   "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"}));

TEST(BinaryTest, NonMinimalVarintRejected) {
  // Zero in the final group after a continuation: a longer spelling of a
  // shorter value, which would re-encode to different bytes.
  const std::string ten_bytes("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00",
                              10);
  for (std::string bad : {std::string("\x80\x00", 2),
                          std::string("\xff\x00", 2),
                          std::string("\x80\x80\x00", 3), ten_bytes}) {
    BinaryReader r(bad);
    EXPECT_TRUE(r.GetVarint().status().IsCorruption()) << bad.size();
  }
}

TEST(BinaryTest, OverflowingAndElevenByteVarintsRejected) {
  // Ten bytes whose last group carries bits beyond 2^64.
  std::string overflow("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", 10);
  BinaryReader r1(overflow);
  EXPECT_TRUE(r1.GetVarint().status().IsCorruption());
  // Eleven bytes: the tenth still has its continuation bit set.
  std::string eleven("\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", 11);
  BinaryReader r2(eleven);
  EXPECT_TRUE(r2.GetVarint().status().IsCorruption());
}

TEST(BinaryTest, NarrowingGettersRejectOutOfRangeValues) {
  BinaryWriter w;
  w.PutSVarint(std::numeric_limits<int32_t>::max());
  w.PutSVarint(std::numeric_limits<int32_t>::min());
  w.PutSVarint(int64_t{std::numeric_limits<int32_t>::max()} + 1);
  w.PutSVarint(int64_t{std::numeric_limits<int32_t>::min()} - 1);
  w.PutVarint(65535);
  w.PutVarint(65536);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetSVarint32(), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(*r.GetSVarint32(), std::numeric_limits<int32_t>::min());
  EXPECT_TRUE(r.GetSVarint32().status().IsCorruption());
  EXPECT_TRUE(r.GetSVarint32().status().IsCorruption());
  EXPECT_EQ(*r.GetVarintAtMost(65535), 65535u);
  EXPECT_TRUE(r.GetVarintAtMost(65535).status().IsCorruption());
  EXPECT_TRUE(r.AtEnd());
}

// ------------------------------------------------------------- Container --

Json TestMetadata() {
  Json m = Json::Object();
  m["schema"] = "test-records";
  m["schema_version"] = 1;
  m["producer"] = "serialize_test";
  return m;
}

TEST(ContainerTest, RoundTrip) {
  ContainerWriter w(TestMetadata());
  w.AddRecord("first record");
  w.AddRecord("");
  w.AddRecord(std::string("\x00\x01\x02", 3));
  std::string blob = w.Finish();

  auto reader = ContainerReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->record_count(), 3u);
  EXPECT_EQ(reader->metadata().Get("schema").as_string(), "test-records");
  ASSERT_EQ(reader->records().size(), 3u);
  EXPECT_EQ(reader->records()[0], "first record");
  EXPECT_EQ(reader->records()[1], "");
  EXPECT_EQ(reader->records()[2], std::string("\x00\x01\x02", 3));
}

TEST(ContainerTest, EmptyContainer) {
  ContainerWriter w(TestMetadata());
  std::string blob = w.Finish();
  auto reader = ContainerReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->record_count(), 0u);
}

TEST(ContainerTest, BitFlipDetectedByFixity) {
  ContainerWriter w(TestMetadata());
  w.AddRecord("payload payload payload");
  std::string blob = w.Finish();
  // Flip one bit in the record region.
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x01);
  auto reader = ContainerReader::Open(blob);
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST(ContainerTest, TruncationDetected) {
  ContainerWriter w(TestMetadata());
  w.AddRecord("payload");
  std::string blob = w.Finish();
  auto reader = ContainerReader::Open(blob.substr(0, blob.size() - 10));
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST(ContainerTest, BadMagicDetected) {
  ContainerWriter w(TestMetadata());
  std::string blob = w.Finish();
  blob[0] = 'X';
  EXPECT_TRUE(ContainerReader::Open(blob).status().IsCorruption());
}

TEST(ContainerTest, OpenUnverifiedSkipsFixity) {
  ContainerWriter w(TestMetadata());
  w.AddRecord("abcdefghij");
  std::string blob = w.Finish();
  // Corrupt a byte inside the record payload only.
  size_t pos = blob.find("abcdefghij");
  ASSERT_NE(pos, std::string::npos);
  blob[pos] = 'X';
  EXPECT_TRUE(ContainerReader::Open(blob).status().IsCorruption());
  auto reader = ContainerReader::OpenUnverified(blob);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->records()[0], "Xbcdefghij");
}

TEST(ContainerTest, ManyRecords) {
  ContainerWriter w(TestMetadata());
  const int n = 1000;
  for (int i = 0; i < n; ++i) w.AddRecord("record-" + std::to_string(i));
  std::string blob = w.Finish();
  auto reader = ContainerReader::Open(blob);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->record_count(), static_cast<uint64_t>(n));
  EXPECT_EQ(reader->records()[999], "record-999");
}

TEST(ContainerTest, SplicedAndLargeContainersMatchRecordByRecord) {
  // Well past the writer's hash batch, so the fixity hash is fed in several
  // increments; splicing pre-framed records must give the same bytes.
  std::vector<std::string> records;
  for (int i = 0; i < 300; ++i) {
    records.push_back(std::string(static_cast<size_t>(700 + i),
                                  static_cast<char>('a' + i % 26)));
  }
  ContainerWriter one_by_one(TestMetadata());
  for (const std::string& record : records) one_by_one.AddRecord(record);
  const std::string expected = one_by_one.Finish();

  std::vector<std::string> chunks(1);
  for (size_t i = 0; i < records.size(); ++i) {
    AppendVarint(chunks.back(), records[i].size());
    chunks.back() += records[i];
    if (i % 37 == 36) chunks.emplace_back();
  }
  chunks.insert(chunks.begin() + 3, std::string());  // a chunk that kept none
  for (size_t width : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    std::unique_ptr<ThreadPool> pool;
    if (width > 0) pool = std::make_unique<ThreadPool>(width);
    ContainerWriter spliced(TestMetadata());
    // A record before the chunks, still in the unhashed tail.
    spliced.AddRecord(records[0]);
    spliced.AppendChunks(chunks, records.size(), pool.get());
    EXPECT_EQ(spliced.record_count(), records.size() + 1);
    ContainerWriter reference(TestMetadata());
    reference.AddRecord(records[0]);
    for (const std::string& record : records) reference.AddRecord(record);
    EXPECT_EQ(spliced.Finish(), reference.Finish()) << "pool width " << width;

    ContainerWriter only_chunks(TestMetadata());
    only_chunks.AppendChunks(chunks, records.size(), pool.get());
    EXPECT_EQ(only_chunks.Finish(), expected) << "pool width " << width;
  }

  auto reader = ContainerReader::Open(expected);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->records().size(), records.size());
  EXPECT_EQ(reader->records()[299], records[299]);
}

}  // namespace
}  // namespace daspos
