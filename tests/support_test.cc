// Unit tests for the support library: Status/Result, SHA-256, RNG,
// string utilities, table rendering, and file IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "support/checksum.h"
#include "support/fault.h"
#include "support/flags.h"
#include "support/io.h"
#include "support/result.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/sha256.h"
#include "support/sha256_internal.h"
#include "support/status.h"
#include "support/strings.h"
#include "support/table.h"

namespace daspos {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("run 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "run 42");
  EXPECT_EQ(s.ToString(), "NotFound: run 42");
}

TEST(StatusTest, EveryFactoryMapsToItsPredicate) {
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::PermissionDenied("x").IsPermissionDenied());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    DASPOS_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(0), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto produce = []() -> Result<std::string> { return std::string("ok"); };
  auto consume = [&]() -> Result<int> {
    DASPOS_ASSIGN_OR_RETURN(std::string v, produce());
    return static_cast<int>(v.size());
  };
  ASSERT_TRUE(consume().ok());
  EXPECT_EQ(*consume(), 2);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto produce = []() -> Result<std::string> {
    return Status::Corruption("bad");
  };
  auto consume = [&]() -> Result<int> {
    DASPOS_ASSIGN_OR_RETURN(std::string v, produce());
    return static_cast<int>(v.size());
  };
  EXPECT_TRUE(consume().status().IsCorruption());
}

// ---------------------------------------------------------------- SHA256 --

// NIST FIPS 180-4 test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::HashHex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.HexDigest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data = "data and software preservation for open science";
  Sha256 h;
  for (char c : data) h.Update(&c, 1);
  EXPECT_EQ(h.HexDigest(), Sha256::HashHex(data));
}

TEST(Sha256Test, ExactBlockBoundary) {
  std::string block(64, 'x');
  std::string double_block(128, 'x');
  EXPECT_NE(Sha256::HashHex(block), Sha256::HashHex(double_block));
  // 55/56/57 bytes straddle the padding boundary.
  for (size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    std::string msg(n, 'q');
    Sha256 h;
    h.Update(msg);
    EXPECT_EQ(h.HexDigest(), Sha256::HashHex(msg)) << "length " << n;
  }
}

TEST(Sha256Test, ResetReusesHasher) {
  Sha256 h;
  h.Update("first");
  (void)h.HexDigest();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(h.HexDigest(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Each block kernel, pinned on its own. Sha256 uses one of them per process
// (KernelName says which); the SHA-NI arm skips on CPUs without the
// extensions, the portable arm always runs.
class Sha256KernelTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    kernel_ = std::string_view(GetParam()) == "portable"
                  ? sha256_internal::CompressPortable
                  : sha256_internal::ShaNiKernel();
    if (kernel_ == nullptr) {
      GTEST_SKIP() << "no SHA extensions on this CPU or build";
    }
  }

  std::string Hash(std::string_view data) const {
    Sha256 h = sha256_internal::HasherWith(kernel_);
    h.Update(data);
    return h.HexDigest();
  }

  sha256_internal::Kernel kernel_ = nullptr;
};

TEST_P(Sha256KernelTest, Fips180Vectors) {
  EXPECT_EQ(Hash(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Hash("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(Hash("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                 "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(Hash(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256KernelTest, RandomSplitsMatchEveryOtherPath) {
  Rng rng(20140301);  // pinned: failures replay exactly
  std::vector<size_t> lengths = {0,   1,   55,   56,   57,   63,   64,  65,
                                 119, 120, 127,  128,  129,  192,  4096,
                                 4159, 9216};
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(static_cast<size_t>(rng.UniformInt(9 * 1024 + 1)));
  }
  for (size_t length : lengths) {
    std::string data(length, '\0');
    for (char& c : data) c = static_cast<char>(rng.UniformInt(256));
    // Feed the kernel under test through random Update split points, so
    // head, whole-block and tail paths all run at every alignment.
    Sha256 split = sha256_internal::HasherWith(kernel_);
    size_t offset = 0;
    while (offset < length) {
      size_t take = static_cast<size_t>(
          rng.UniformInt(std::min<size_t>(length - offset, 200) + 1));
      split.Update(data.data() + offset, take);
      offset += take;
    }
    Sha256 portable = sha256_internal::HasherWith(
        sha256_internal::CompressPortable);
    portable.Update(data);
    const std::string expected = portable.HexDigest();
    EXPECT_EQ(split.HexDigest(), expected) << "length " << length;
    EXPECT_EQ(Sha256::HashHex(data), expected) << "length " << length;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256KernelTest, ::testing::Values("portable", "sha_ni"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

TEST(Sha256Test, KernelNameMatchesTheCpu) {
  EXPECT_STREQ(Sha256::KernelName(), sha256_internal::ShaNiKernel() != nullptr
                                         ? "sha-ni"
                                         : "portable");
}

// ------------------------------------------------------------- Checksum --

// Golden XXH64 vectors. These digests are persisted in pack record headers
// and sidecar indexes, so Checksum64 must produce the canonical
// little-endian XXH64 value on EVERY host — a byte-order drift here would
// mass-quarantine a pack written on the other endianness. The first three
// are the published reference values; the rest pin the stripe loop, the
// 8/4/1-byte tails, and seeding.
TEST(ChecksumTest, MatchesXxh64ReferenceVectorsOnAnyHost) {
  EXPECT_EQ(Checksum64(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(Checksum64("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(Checksum64("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(Checksum64("abc", 1), 0xBEA9CA8199328908ull);
  std::string forty(40, '\0');
  for (size_t i = 0; i < forty.size(); ++i) {
    forty[i] = static_cast<char>('A' + i % 26);
  }
  EXPECT_EQ(Checksum64(forty), 0x37523D26107DD78Dull);
  std::string big(1031, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 131 % 251);
  }
  EXPECT_EQ(Checksum64(big), 0x54C585C45BC60226ull);
}

// ------------------------------------------------------------------- RNG --

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntUnbiasedCoverage) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
  for (uint64_t v : seen) EXPECT_LT(v, 10u);
}

TEST(RngTest, GaussMoments) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gauss();
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(RngTest, PoissonMeanSmallAndLarge) {
  Rng rng(9);
  for (double mean : {0.5, 3.0, 20.0, 80.0}) {
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(mean));
    EXPECT_NEAR(sum / n, mean, 5.0 * std::sqrt(mean / n) + 0.05)
        << "mean " << mean;
  }
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.Poisson(0.0), 0u);
  EXPECT_EQ(rng.Poisson(-1.0), 0u);
}

TEST(RngTest, BreitWignerMedianAtPeak) {
  Rng rng(13);
  const int n = 100000;
  int below = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.BreitWigner(91.2, 2.5) < 91.2) ++below;
  }
  // Median of a Cauchy is its location parameter.
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.01);
}

TEST(RngTest, AcceptEdges) {
  Rng rng(3);
  EXPECT_FALSE(rng.Accept(0.0));
  EXPECT_FALSE(rng.Accept(-0.5));
  EXPECT_TRUE(rng.Accept(1.0));
  EXPECT_TRUE(rng.Accept(2.0));
}

TEST(RngTest, AcceptProbability) {
  Rng rng(17);
  int accepted = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Accept(0.3)) ++accepted;
  }
  EXPECT_NEAR(static_cast<double>(accepted) / n, 0.3, 0.01);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(21);
  Rng f1 = parent.Fork(1);
  Rng f2 = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.NextU64() == f2.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkDeterministicGivenSeedAndLabels) {
  Rng p1(33);
  Rng p2(33);
  Rng f1 = p1.Fork(5);
  Rng f2 = p2.Fork(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f1.NextU64(), f2.NextU64());
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitEmpty) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("BEGIN HISTO1D /x", "BEGIN"));
  EXPECT_FALSE(StartsWith("BEG", "BEGIN"));
}

TEST(StringsTest, JoinAndToLower) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(ToLower("AoD Tier"), "aod tier");
}

TEST(StringsTest, HexRoundTrip) {
  std::string bytes("\x00\x7f\xff\x10", 4);
  std::string hex = HexEncode(bytes);
  EXPECT_EQ(hex, "007fff10");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, bytes);
}

TEST(StringsTest, HexDecodeErrors) {
  EXPECT_TRUE(HexDecode("abc").status().IsInvalidArgument());
  EXPECT_TRUE(HexDecode("zz").status().IsInvalidArgument());
}

TEST(StringsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024ull * 1024ull), "3.00 MiB");
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(*ParseU64("42"), 42u);
  EXPECT_EQ(*ParseU64("  7 "), 7u);
  EXPECT_FALSE(ParseU64("").ok());
  EXPECT_FALSE(ParseU64("4x").ok());
  EXPECT_FALSE(ParseU64("-3").ok());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, RendersAlignedColumns) {
  TextTable t;
  t.SetHeader({"experiment", "format"});
  t.AddRow({"CMS", "ig"});
  t.AddRow({"ATLAS", "JiveXML"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| experiment | format  |"), std::string::npos);
  EXPECT_NE(out.find("| ATLAS      | JiveXML |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, ShortRowsRenderEmptyCells) {
  TextTable t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"1"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| 1 |   |   |"), std::string::npos);
}

TEST(TableTest, TitleIsPrinted) {
  TextTable t;
  t.SetTitle("Table 1");
  t.SetHeader({"x"});
  EXPECT_EQ(t.Render().rfind("Table 1\n", 0), 0u);
}

// -------------------------------------------------------------------- IO --

TEST(IoTest, WriteReadRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "daspos_io_test.bin").string();
  std::string payload("binary\0payload", 14);
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  EXPECT_TRUE(FileExists(path));
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST(IoTest, ReadMissingFileFails) {
  auto read = ReadFileToString("/nonexistent/daspos/file");
  EXPECT_TRUE(read.status().IsIOError());
}

TEST(IoTest, WriteCreatesParentDirectories) {
  auto dir = std::filesystem::temp_directory_path() / "daspos_io_nested";
  std::string path = (dir / "a" / "b" / "file.txt").string();
  ASSERT_TRUE(WriteStringToFile(path, "x").ok());
  EXPECT_TRUE(FileExists(path));
  std::filesystem::remove_all(dir);
}

TEST(IoTest, AtomicWriteRoundTripAndOverwrite) {
  auto dir = std::filesystem::temp_directory_path() / "daspos_io_atomic";
  std::string path = (dir / "sub" / "blob.bin").string();
  std::string payload("atomic\0bytes", 12);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  // Overwrite replaces the content wholesale; no temp files survive.
  ASSERT_TRUE(AtomicWriteFile(path, "v2").ok());
  read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v2");
  size_t entries = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++entries;
  }
  EXPECT_EQ(entries, 1u);  // only blob.bin, no tmp.* leftovers
  std::filesystem::remove_all(dir);
}

TEST(IoTest, FsyncDirSucceedsOnDirFailsOnMissingOrFile) {
  auto dir = std::filesystem::temp_directory_path() / "daspos_io_fsyncdir";
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(FsyncDir(dir.string()).ok());
  EXPECT_TRUE(FsyncDir((dir / "absent").string()).IsIOError());
  std::string file = (dir / "plain.txt").string();
  ASSERT_TRUE(WriteStringToFile(file, "x").ok());
  // O_DIRECTORY rejects non-directories instead of fsyncing the wrong node.
  EXPECT_TRUE(FsyncDir(file).IsIOError());
  std::filesystem::remove_all(dir);
}

TEST(IoTest, AppendDurableCreatesThenAppends) {
  auto dir = std::filesystem::temp_directory_path() / "daspos_io_append";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "log.jsonl").string();
  ASSERT_TRUE(AppendDurable(path, "{\"n\":1}\n").ok());
  ASSERT_TRUE(AppendDurable(path, "{\"n\":2}\n").ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "{\"n\":1}\n{\"n\":2}\n");
  // A missing parent is not created; the error names the file.
  const std::string orphan = (dir / "absent" / "log.jsonl").string();
  Status missing = AppendDurable(orphan, "x");
  EXPECT_TRUE(missing.IsIOError());
  EXPECT_NE(missing.message().find(orphan), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------------- Retry --

RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.backoff_ms = 0.0;
  policy.sleeper = [](double) {};
  return policy;
}

TEST(RetryTest, SucceedsAfterTransientFailures) {
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 4;
  int calls = 0;
  Status status = RetryCall(
      policy,
      [&]() -> Status {
        ++calls;
        return calls < 3 ? Status::IOError("blip") : Status::OK();
      },
      "flaky op");
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, ExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 3;
  int calls = 0;
  Status status = RetryCall(
      policy,
      [&]() -> Status {
        ++calls;
        return Status::IOError("still down");
      },
      "doomed op");
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonRetryableStopsImmediately) {
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 5;
  int calls = 0;
  Status status = RetryCall(
      policy,
      [&]() -> Status {
        ++calls;
        return Status::NotFound("gone for good");
      },
      "lookup");
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, DeadlineTripsBeforeAttemptsExhaust) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.backoff_ms = 50.0;
  policy.backoff_multiplier = 1.0;
  policy.jitter = 0.0;
  policy.deadline_ms = 120.0;  // room for two backoffs, not three
  policy.sleeper = [](double) {};
  int calls = 0;
  Status status = RetryCall(
      policy,
      [&]() -> Status {
        ++calls;
        return Status::IOError("slow outage");
      },
      "deadline op");
  EXPECT_TRUE(status.IsDeadlineExceeded());
  EXPECT_LT(calls, 100);
  // The final status names the underlying error for post-mortems.
  EXPECT_NE(status.message().find("slow outage"), std::string::npos);
}

TEST(RetryTest, BackoffIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.backoff_ms = 10.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 35.0;
  policy.jitter = 0.25;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    double a = RetryBackoffMillis(policy, attempt, /*jitter_seed=*/7);
    double b = RetryBackoffMillis(policy, attempt, /*jitter_seed=*/7);
    EXPECT_EQ(a, b);  // same seed, same schedule
    EXPECT_LE(a, 35.0 * 1.25);
    EXPECT_GE(a, 0.0);
  }
  // Without jitter the schedule is exactly exponential-with-cap.
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(RetryBackoffMillis(policy, 1, 0), 10.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMillis(policy, 2, 0), 20.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMillis(policy, 3, 0), 35.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMillis(policy, 4, 0), 35.0);
}

TEST(RetryTest, SleeperReceivesEachBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_ms = 5.0;
  policy.backoff_multiplier = 2.0;
  policy.jitter = 0.0;
  std::vector<double> slept;
  policy.sleeper = [&](double ms) { slept.push_back(ms); };
  Status status = RetryCall(
      policy, []() -> Status { return Status::IOError("down"); }, "op");
  EXPECT_TRUE(status.IsIOError());
  ASSERT_EQ(slept.size(), 3u);  // 4 attempts -> 3 sleeps between them
  EXPECT_DOUBLE_EQ(slept[0], 5.0);
  EXPECT_DOUBLE_EQ(slept[1], 10.0);
  EXPECT_DOUBLE_EQ(slept[2], 20.0);
}

TEST(RetryTest, RetryResultReturnsValueOnEventualSuccess) {
  RetryPolicy policy = FastPolicy();
  policy.max_attempts = 3;
  int calls = 0;
  Result<std::string> result = RetryResult<std::string>(
      policy,
      [&]() -> Result<std::string> {
        ++calls;
        if (calls < 2) return Status::IOError("blip");
        return std::string("payload");
      },
      "fetch");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "payload");
  EXPECT_EQ(calls, 2);
}

// ----------------------------------------------------------------- Fault --

TEST(FaultSpecTest, ParsesRateAndSeed) {
  auto spec = FaultSpec::Parse("seed=42,rate=0.3");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_DOUBLE_EQ(spec->rate, 0.3);
  EXPECT_TRUE(spec->nth.empty());
}

TEST(FaultSpecTest, ParsesScriptedOrdinals) {
  auto spec = FaultSpec::Parse("nth=3,7");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->nth.size(), 2u);
  EXPECT_EQ(spec->nth[0], 3u);
  EXPECT_EQ(spec->nth[1], 7u);
}

TEST(FaultSpecTest, RejectsBadSpecs) {
  EXPECT_TRUE(FaultSpec::Parse("").status().IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("rate=1.5").status().IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("rate=-0.1").status().IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("banana=1").status().IsInvalidArgument());
  EXPECT_TRUE(FaultSpec::Parse("nth=0").status().IsInvalidArgument());
  // A seed alone injects nothing; that is a spec error, not a silent no-op.
  EXPECT_TRUE(FaultSpec::Parse("seed=9").status().IsInvalidArgument());
}

TEST(FaultPlanTest, ScriptedOrdinalsFailExactlyThoseOps) {
  auto spec = FaultSpec::Parse("nth=2,4");
  ASSERT_TRUE(spec.ok());
  FaultPlan plan(*spec);
  std::vector<bool> failed;
  for (int i = 0; i < 5; ++i) failed.push_back(!plan.Next("op").ok());
  EXPECT_EQ(failed, (std::vector<bool>{false, true, false, true, false}));
  EXPECT_EQ(plan.operations(), 5u);
  EXPECT_EQ(plan.injected(), 2u);
}

TEST(FaultPlanTest, RateModeIsDeterministicPerSeed) {
  auto spec = FaultSpec::Parse("seed=123,rate=0.5");
  ASSERT_TRUE(spec.ok());
  FaultPlan a(*spec);
  FaultPlan b(*spec);
  int injected = 0;
  for (int i = 0; i < 200; ++i) {
    Status sa = a.Next("op");
    Status sb = b.Next("op");
    EXPECT_EQ(sa.ok(), sb.ok());  // same seed, same fate per op
    if (!sa.ok()) {
      EXPECT_TRUE(sa.IsIOError());  // injected faults look transient
      ++injected;
    }
  }
  // With rate 0.5 over 200 ops, both extremes would mean a broken RNG.
  EXPECT_GT(injected, 50);
  EXPECT_LT(injected, 150);
  EXPECT_EQ(a.injected(), static_cast<uint64_t>(injected));
}


// ------------------------------------------------------------------ Flags

struct TestFlags {
  bool json = false;
  std::string journal = "unset";
  std::string out;
  uint64_t batch = 64;
  double rate = 0.0;
  std::vector<Flag> Declare() {
    return {Flag::Bool("json", &json),
            Flag::String("journal", &journal, "DIR"),
            Flag::Path("out", &out, "FILE"),
            Flag::U64("batch", &batch, 1, 1000),
            Flag::Double("rate", &rate, 0.0, "N")};
  }
};

Result<std::vector<std::string>> ParseTest(TestFlags* flags,
                                           std::vector<std::string> args) {
  return ParseFlags("test", flags->Declare(), args);
}

TEST(FlagsTest, FillsEveryKindAndKeepsPositionalOrder) {
  TestFlags flags;
  auto positionals =
      ParseTest(&flags, {"a", "--json", "--batch=7", "b", "--rate=2.5",
                         "--journal=dir", "--out=file", "c"});
  ASSERT_TRUE(positionals.ok()) << positionals.status();
  EXPECT_EQ(*positionals, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(flags.json);
  EXPECT_EQ(flags.batch, 7u);
  EXPECT_EQ(flags.rate, 2.5);
  EXPECT_EQ(flags.journal, "dir");
  EXPECT_EQ(flags.out, "file");
}

TEST(FlagsTest, UnsetFlagsKeepTheirDefaults) {
  TestFlags flags;
  ASSERT_TRUE(ParseTest(&flags, {"only"}).ok());
  EXPECT_FALSE(flags.json);
  EXPECT_EQ(flags.journal, "unset");
  EXPECT_EQ(flags.batch, 64u);
}

TEST(FlagsTest, UnknownFlagsAreRejectedByExactName) {
  for (const char* arg : {"--bogus", "--batc=2", "--batchx=2", "-json", "-",
                          "--", "--=1"}) {
    TestFlags flags;
    auto positionals = ParseTest(&flags, {"a", arg});
    ASSERT_FALSE(positionals.ok()) << arg;
    EXPECT_TRUE(positionals.status().IsInvalidArgument());
    EXPECT_EQ(positionals.status().message(),
              "unknown test flag '" + std::string(arg) + "'");
  }
}

TEST(FlagsTest, U64BoundsAreInclusive) {
  TestFlags flags;
  ASSERT_TRUE(ParseTest(&flags, {"--batch=1"}).ok());
  EXPECT_EQ(flags.batch, 1u);
  ASSERT_TRUE(ParseTest(&flags, {"--batch=1000"}).ok());
  EXPECT_EQ(flags.batch, 1000u);
  for (const char* value : {"0", "1001", "-1", "x", "2.5",
                            "99999999999999999999"}) {
    auto positionals =
        ParseTest(&flags, {std::string("--batch=") + value});
    ASSERT_FALSE(positionals.ok()) << value;
    EXPECT_EQ(positionals.status().message(),
              "bad --batch value '" + std::string(value) + "'");
  }
  EXPECT_EQ(flags.batch, 1000u);  // a rejected value leaves the field alone
}

TEST(FlagsTest, DoubleMinimumIsInclusive) {
  TestFlags flags;
  ASSERT_TRUE(ParseTest(&flags, {"--rate=0"}).ok());
  EXPECT_EQ(flags.rate, 0.0);
  for (const char* value : {"-1", "-0.5", "fast", "nan"}) {
    auto positionals = ParseTest(&flags, {std::string("--rate=") + value});
    ASSERT_FALSE(positionals.ok()) << value;
    EXPECT_EQ(positionals.status().message(),
              "bad --rate value '" + std::string(value) + "'");
  }
}

TEST(FlagsTest, DuplicateFlagsLastValueWins) {
  TestFlags flags;
  ASSERT_TRUE(
      ParseTest(&flags, {"--batch=2", "--json", "--batch=3", "--json"}).ok());
  EXPECT_EQ(flags.batch, 3u);
  EXPECT_TRUE(flags.json);
}

TEST(FlagsTest, EmptyValues) {
  TestFlags flags;
  ASSERT_TRUE(ParseTest(&flags, {"--journal="}).ok());
  EXPECT_EQ(flags.journal, "");  // a string may be empty
  auto path = ParseTest(&flags, {"--out="});
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.status().message(), "--out needs a path");
  auto number = ParseTest(&flags, {"--batch="});
  ASSERT_FALSE(number.ok());
  EXPECT_EQ(number.status().message(), "bad --batch value ''");
  EXPECT_FALSE(ParseTest(&flags, {"--rate="}).ok());
}

TEST(FlagsTest, BoolTakesNoValueAndOthersNeedOne) {
  TestFlags flags;
  for (const char* arg : {"--json=1", "--json=", "--batch", "--out"}) {
    auto positionals = ParseTest(&flags, {arg});
    ASSERT_FALSE(positionals.ok()) << arg;
    EXPECT_EQ(positionals.status().message(),
              "unknown test flag '" + std::string(arg) + "'");
  }
  EXPECT_FALSE(flags.json);
}

TEST(FlagsTest, UsageLineRendersDeclarationsAndWraps) {
  TestFlags flags;
  EXPECT_EQ(UsageLine("  tool command <input> <output>", flags.Declare(), 4),
            "  tool command <input> <output> [--json] [--journal=DIR] "
            "[--out=FILE]\n    [--batch=N] [--rate=N]\n");
  EXPECT_EQ(UsageLine("  tool cmd", {}, 4), "  tool cmd\n");
}

}  // namespace
}  // namespace daspos
