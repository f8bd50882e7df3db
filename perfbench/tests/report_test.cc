// Tests of the benchmark's own helpers: the tail-percentile rule, failure
// accounting, and the Get response check on a corrupted wire frame.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "report.h"
#include "service.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(TailRule, MinimumSamplesLeaveTenBeyond) {
  EXPECT_EQ(MinSamplesForTail(0.9), 100u);
  EXPECT_EQ(MinSamplesForTail(0.99), 1000u);
  EXPECT_EQ(MinSamplesForTail(0.5), 20u);
}

TEST(TailRule, RejectsTooFewSamples) {
  std::vector<double> samples = Ramp(99);
  auto summary = SummarizeLatency(&samples, 0.9);
  EXPECT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), daspos::StatusCode::kOutOfRange);
}

TEST(TailRule, NearestRankAtTheBoundary) {
  std::vector<double> samples = Ramp(100);
  std::vector<double> shuffled(samples.rbegin(), samples.rend());
  auto summary = SummarizeLatency(&shuffled, 0.9);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->tail, 90.0);
  EXPECT_EQ(summary->p50, 50.0);
  EXPECT_EQ(summary->samples, 100u);
  EXPECT_EQ(summary->beyond_tail, 10u);
  EXPECT_EQ(summary->tail_p, 0.9);

  std::vector<double> thousand = Ramp(1000);
  auto p99 = SummarizeLatency(&thousand, 0.99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(p99->tail, 990.0);
  EXPECT_EQ(p99->beyond_tail, 10u);
}

TEST(TailRule, ReservoirKeepsAFixedUniformSample) {
  LatencyReservoir reservoir(7, /*capacity=*/1000);
  for (int i = 0; i < 100000; ++i) reservoir.Add(static_cast<double>(i % 100));
  EXPECT_EQ(reservoir.seen(), 100000u);
  ASSERT_EQ(reservoir.samples()->size(), 1000u);
  auto summary = SummarizeLatency(reservoir.samples(), 0.9);
  ASSERT_TRUE(summary.ok());
  EXPECT_NEAR(summary->p50, 49.5, 5.0);
  EXPECT_NEAR(summary->tail, 89.5, 5.0);
}

TEST(TailRule, SlicedRunTakesMediansOverSlices) {
  // 1 s cut into 4 rate slices; slice 2 runs 10x faster (a disturbance in
  // the other direction would do the same) and must not move the median.
  SlicedRun run(1.0, 4, 2, 1);
  int64_t now = 0;
  for (int slice = 0; slice < 4; ++slice) {
    const int ops = slice == 2 ? 1000 : 100;
    const int64_t step = 250'000'000 / ops;
    for (int i = 0; i < ops; ++i) {
      now += step;
      run.Record(now - 1, 1.0, slice < 2 ? 10.0 : 20.0);
    }
  }
  EXPECT_EQ(run.operations(), 1300u);
  EXPECT_NEAR(run.Throughput(), 400.0, 1e-3);
  auto latency = run.Latency(0.9);
  ASSERT_TRUE(latency.ok()) << latency.status().ToString();
  EXPECT_EQ(latency->p50, 15.0);  // median of the two slices' p50s
  EXPECT_EQ(latency->samples, 1300u);
  EXPECT_EQ(latency->beyond_tail, 20u);
  EXPECT_FALSE(run.NeedsMore(now, 0.9));
}

TEST(TailRule, SlicedRunMergesSlicesShortOfTailSamples) {
  SlicedRun run(1.0, 1, 2, 1);
  for (int i = 1; i <= 50; ++i) run.Record(i * 1'000'000, 1.0, 1.0);
  EXPECT_TRUE(run.NeedsMore(50'000'000, 0.9));  // run time not reached
  for (int i = 1; i <= 40; ++i) run.Record(500'000'000 + i, 1.0, 2.0);
  EXPECT_TRUE(run.NeedsMore(1'000'000'000, 0.9));  // last slice has 40
  EXPECT_FALSE(run.Latency(0.9).ok());             // 90 in all is too few
  for (int i = 41; i <= 100; ++i) run.Record(500'000'000 + i, 1.0, 2.0);
  EXPECT_FALSE(run.NeedsMore(1'000'000'000, 0.9));
  auto latency = run.Latency(0.9);
  ASSERT_TRUE(latency.ok()) << latency.status().ToString();
  EXPECT_EQ(latency->samples, 150u);  // the short first slice merged in
  EXPECT_EQ(latency->p50, 2.0);
  EXPECT_EQ(latency->beyond_tail, 15u);
}

TEST(FailureAccounting, AnyFailureFailsTheRun) {
  Tally tally;
  EXPECT_FALSE(tally.correct());  // nothing attempted is not a pass
  tally.Record(true);
  tally.Record(true);
  EXPECT_TRUE(tally.correct());
  EXPECT_EQ(tally.ExitCode(), 0);

  tally.Record(false, "body mismatch");
  tally.Record(false, "second");
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_FALSE(tally.correct());
  EXPECT_NE(tally.ExitCode(), 0);
  EXPECT_EQ(tally.first_failure(), "body mismatch");
}

TEST(FailureAccounting, CrossCheckFailureIsNotAnAttempt) {
  Tally tally;
  tally.Record(true);
  tally.Fail("counter cross-check");
  EXPECT_EQ(tally.attempted(), 1u);
  EXPECT_EQ(tally.failed(), 1u);
  EXPECT_NE(tally.ExitCode(), 0);
}

TEST(FailureAccounting, ResultLineCarriesCountsAndMetrics) {
  Tally tally;
  tally.Record(true);
  tally.Record(false);
  const std::string line =
      ResultLine(tally, {{"latency_p50_us", 18.25, "us"}});
  EXPECT_EQ(line,
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{"
            "\"latency_p50_us\":{\"value\":18.25,\"unit\":\"us\"}}}");
}

// Delivers `bytes` as one read would.
void Feed(FrameBuffer* buffer, std::string_view bytes) {
  std::memcpy(buffer->Reserve(bytes.size()), bytes.data(), bytes.size());
  buffer->Commit(bytes.size());
}

// Feeds `wire` to a fresh framer and checks it as the answer to request 42.
bool AnswerChecks(const std::string& wire, const std::string& body) {
  FrameBuffer buffer(64);
  Feed(&buffer, wire);
  auto frame = buffer.Next();
  return frame.ok() && frame->has_value() &&
         CheckGetResponse(**frame, 42, body);
}

TEST(ResponseCheck, IntactFrameSplitAcrossReadsPasses) {
  const std::string body(4096, 'x');
  const std::string wire =
      daspos::net::EncodeFrame(daspos::net::MessageType::kGetOk, 42, body);
  FrameBuffer buffer(64);
  Feed(&buffer, std::string_view(wire).substr(0, 7));
  auto partial = buffer.Next();
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->has_value());
  Feed(&buffer, std::string_view(wire).substr(7));
  auto frame = buffer.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_TRUE(CheckGetResponse(**frame, 42, body));
  EXPECT_FALSE(CheckGetResponse(**frame, 43, body));
}

TEST(ResponseCheck, EverySingleFlippedByteFailsTheRun) {
  std::string body(256, '\0');
  for (size_t i = 0; i < body.size(); ++i) body[i] = static_cast<char>(i * 7);
  const std::string wire =
      daspos::net::EncodeFrame(daspos::net::MessageType::kGetOk, 42, body);
  ASSERT_TRUE(AnswerChecks(wire, body));
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string corrupted = wire;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    Tally tally;
    tally.Record(AnswerChecks(corrupted, body));
    EXPECT_FALSE(tally.correct()) << "flipped byte " << i << " passed";
    EXPECT_NE(tally.ExitCode(), 0);
  }
}

TEST(ResponseCheck, ErrorFrameIsAFailure) {
  const std::string wire = daspos::net::EncodeFrame(
      daspos::net::MessageType::kError, 42,
      daspos::net::EncodeErrorPayload(daspos::Status::NotFound("gone")));
  EXPECT_FALSE(AnswerChecks(wire, "payload"));
}

}  // namespace
}  // namespace perfbench
