// Tests for the dasposd network layer: wire-protocol codecs, the reactor
// server end to end (byte-identical archive round trips, 16 concurrent
// clients), malformed-frame fuzzing (the daemon must survive anything a
// hostile or broken client sends), backpressure, graceful drain, and
// client-side torn-frame handling against a fake server.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "archive/backend.h"
#include "archive/object_store.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serialize/json.h"
#include "support/io.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"

namespace daspos {
namespace net {
namespace {

uint64_t NetCounter(const char* name) {
  return MetricsRegistry::Global().CounterValue(name);
}

// ---------------------------------------------------------------------------
// Protocol codecs (no sockets).

TEST(ProtocolTest, FrameRoundTrip) {
  const std::string payload = std::string("abc\0def", 7);
  std::string frame = EncodeFrame(MessageType::kGet, 42, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());

  auto header = DecodeFrameHeader(frame);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->type, static_cast<uint8_t>(MessageType::kGet));
  EXPECT_EQ(header->request_id, 42u);
  EXPECT_EQ(header->payload_len, payload.size());
  EXPECT_EQ(frame.substr(kFrameHeaderSize), payload);
}

TEST(ProtocolTest, DecodeRejectsShortBadMagicBadVersionReserved) {
  EXPECT_FALSE(DecodeFrameHeader("DPN1").ok());

  std::string frame = EncodeFrame(MessageType::kPing, 1, "");
  frame[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(frame).ok());

  frame = EncodeFrame(MessageType::kPing, 1, "");
  frame[4] = 9;  // version
  EXPECT_FALSE(DecodeFrameHeader(frame).ok());

  frame = EncodeFrame(MessageType::kPing, 1, "");
  frame[6] = 1;  // reserved byte must be zero
  EXPECT_FALSE(DecodeFrameHeader(frame).ok());
}

TEST(ProtocolTest, RequestTypeRegistry) {
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MessageType::kGet)));
  EXPECT_TRUE(IsRequestType(static_cast<uint8_t>(MessageType::kStat)));
  EXPECT_FALSE(IsRequestType(static_cast<uint8_t>(MessageType::kGetOk)));
  EXPECT_FALSE(IsRequestType(0x7E));
  EXPECT_FALSE(IsRequestType(0x00));
  EXPECT_EQ(ResponseTypeFor(MessageType::kPutBatch),
            MessageType::kPutBatchOk);
  EXPECT_EQ(MessageTypeName(MessageType::kPutBatch), "PUT_BATCH");
}

TEST(ProtocolTest, ErrorPayloadRoundTripsEveryStatusCode) {
  const Status statuses[] = {
      Status::NotFound("a"),          Status::AlreadyExists("b"),
      Status::InvalidArgument("c"),   Status::Corruption("d"),
      Status::IOError("e"),           Status::FailedPrecondition("f"),
      Status::PermissionDenied("g"),  Status::Unimplemented("h"),
      Status::OutOfRange("i"),        Status::DeadlineExceeded("j"),
  };
  for (const Status& status : statuses) {
    Status decoded = DecodeErrorPayload(EncodeErrorPayload(status));
    EXPECT_EQ(decoded.code(), status.code()) << status.ToString();
    EXPECT_EQ(decoded.message(), status.message());
  }
  // The two codes with no Status mapping decode to something non-OK.
  EXPECT_FALSE(
      DecodeErrorPayload(EncodeErrorPayloadWithCode(kWireProtocolError, "x"))
          .ok());
  EXPECT_FALSE(
      DecodeErrorPayload(EncodeErrorPayloadWithCode(kWireUnavailable, "y"))
          .ok());
  // A malformed error payload is itself an error, never OK.
  EXPECT_FALSE(DecodeErrorPayload("").ok());
}

TEST(ProtocolTest, StringListRejectsHostileCountAndTrailing) {
  std::string encoded = EncodePutBatchRequest({"aa", "bb"});
  auto decoded = DecodePutBatchRequest(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, (std::vector<std::string>{"aa", "bb"}));

  // Varint count of ~2^60 in a 3-byte payload must fail before reserving.
  std::string hostile = "\xff\xff\xff\xff\xff\xff\xff\xff\x0f";
  EXPECT_FALSE(DecodePutBatchRequest(hostile).ok());

  encoded.push_back('Z');
  EXPECT_FALSE(DecodePutBatchRequest(encoded).ok());
}

TEST(ProtocolTest, ChainAndLintCodecsRoundTrip) {
  ChainRequest chain;
  chain.process = "minbias";
  chain.events = 123;
  chain.seed = 456;
  auto chain2 = DecodeChainRequest(EncodeChainRequest(chain));
  ASSERT_TRUE(chain2.ok());
  EXPECT_EQ(chain2->process, "minbias");
  EXPECT_EQ(chain2->events, 123u);
  EXPECT_EQ(chain2->seed, 456u);

  std::vector<LintArtifact> artifacts(2);
  artifacts[0].name = "a.json";
  artifacts[0].bytes = std::string("\x00\x01\x02", 3);
  artifacts[1].name = "b.txt";
  artifacts[1].bytes = "text";
  auto back = DecodeLintRequest(EncodeLintRequest(artifacts));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].bytes, artifacts[0].bytes);
  EXPECT_EQ((*back)[1].name, "b.txt");
}

// ---------------------------------------------------------------------------
// Server fixture: a real dasposd core on an ephemeral port, loop on its own
// thread, pack backend in a fresh temp dir.

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {},
                   const std::string& backend = "pack") {
    root_ = std::filesystem::path(::testing::TempDir()) /
            ("net_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove_all(root_);
    auto store = OpenObjectStore(backend + ":" + root_.string());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    options.backend_name = backend;
    server_ = std::make_unique<Server>(store_.get(), options);
    auto started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    loop_thread_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  void StopServer() {
    if (!server_) return;
    server_->TriggerDrain();
    loop_thread_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
    server_.reset();
    store_.reset();
    std::filesystem::remove_all(root_);
  }

  void TearDown() override { StopServer(); }

  std::string Address() const {
    return "127.0.0.1:" + std::to_string(server_->port());
  }

  Result<Client> Connect() { return Client::Connect(Address()); }

  std::filesystem::path root_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<Server> server_;
  std::thread loop_thread_;
  Status run_status_ = Status::OK();
};

/// A raw TCP connection for speaking deliberately broken bytes.
class RawConn {
 public:
  /// `rcvbuf` > 0 pins a small receive window BEFORE connect, so the
  /// server's writes back up quickly (how the backpressure test forces the
  /// outbox cap without depending on kernel buffer autotuning).
  explicit RawConn(uint16_t port, int rcvbuf = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval tv{5, 0};  // reads time out instead of hanging a broken test
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }

  bool connected() const { return connected_; }

  void Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads up to `n` bytes once; <= 0 on EOF/timeout/error.
  ssize_t ReadSome(char* buffer, size_t n) { return read(fd_, buffer, n); }

  /// Reads until EOF or timeout; returns everything received.
  std::string ReadAll() {
    std::string out;
    char buffer[4096];
    for (;;) {
      ssize_t n = read(fd_, buffer, sizeof(buffer));
      if (n <= 0) break;
      out.append(buffer, static_cast<size_t>(n));
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST_F(ServerTest, PingEchoesPayload) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping("hello dasposd").ok());
  EXPECT_TRUE(client->Ping(std::string("\x00\xff\x7f", 3)).ok());
}

TEST_F(ServerTest, PutGetVerifyByteIdentical) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Every byte value, with embedded NULs, long enough to span read chunks.
  std::string blob;
  blob.reserve(300000);
  for (int i = 0; i < 300000; ++i) {
    blob.push_back(static_cast<char>(i % 256));
  }
  auto id = client->Put(blob);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(id->size(), 64u);

  auto back = client->Get(*id);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == blob) << "round-tripped bytes differ";

  EXPECT_TRUE(client->Verify(*id).ok());
  // The store behind the wire saw the same object.
  EXPECT_TRUE(store_->Has(*id));
}

TEST_F(ServerTest, MissingObjectMapsToNotFoundAcrossTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string missing(64, '0');
  auto got = client->Get(missing);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
      << got.status().ToString();
  EXPECT_EQ(client->Verify(missing).code(), StatusCode::kNotFound);
  // And a bad id maps to InvalidArgument, not a dropped connection.
  EXPECT_EQ(client->Get("../../etc/passwd").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, PutBatchStoresAllBlobsInOrder) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<std::string> blobs;
  for (int i = 0; i < 16; ++i) {
    blobs.push_back("blob-" + std::to_string(i) + std::string(1000, 'x'));
  }
  auto ids = client->PutBatch(blobs);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), blobs.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    auto back = client->Get((*ids)[i]);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, blobs[i]);
  }
}

TEST_F(ServerTest, RemoteLintReturnsReportAndRejectsHostileNames) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<LintArtifact> artifacts(1);
  artifacts[0].name = "conds.json";
  artifacts[0].bytes = "{\"tags\": {}}";
  auto report = client->Lint(artifacts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto json = Json::Parse(*report);
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->Has("findings"));

  artifacts[0].name = "../escape";
  EXPECT_EQ(client->Lint(artifacts).status().code(),
            StatusCode::kInvalidArgument);
  artifacts[0].name = "a/b";
  EXPECT_EQ(client->Lint(artifacts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, RemoteLintIsByteStableAndNamesTheSubmittedArtifacts) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // A provenance chain with a parentage gap (W101) and LHADA text that does
  // not parse (L000): both artifacts draw findings.
  std::vector<LintArtifact> artifacts(2);
  artifacts[0].name = "chain.json";
  artifacts[0].bytes = "[{\"dataset\": \"aod\", \"parents\": [\"gone\"]}]";
  artifacts[1].name = "cuts.lhada";
  artifacts[1].bytes = "this is not an analysis description";
  auto first = client->Lint(artifacts);
  auto second = client->Lint(artifacts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*first, *second);

  auto json = Json::Parse(*first);
  ASSERT_TRUE(json.ok());
  std::set<std::string> named;
  for (const Json& finding : json->Get("findings").items()) {
    named.insert(finding.Get("artifact").as_string());
  }
  EXPECT_EQ(named, (std::set<std::string>{"chain.json", "cuts.lhada"}));
}

TEST_F(ServerTest, ChainSubmissionRunsTheStandardChain) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto report = client->Chain("minbias", 20, 7);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto json = Json::Parse(*report);
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(json->Has("steps"));

  EXPECT_EQ(client->Chain("no_such_process", 10, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Chain("minbias", 0, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Chain("minbias", 1u << 30, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, StatReportsBackendAndCounts) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());
  auto stat = client->Stat();
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  auto json = Json::Parse(*stat);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->Get("backend").as_string(), "pack");
  EXPECT_EQ(json->Get("protocol_version").as_int(), 1);
  EXPECT_GE(json->Get("requests_served").as_int(), 2);
  const std::string kernel = json->Get("sha256_kernel").as_string();
  EXPECT_TRUE(kernel == "sha-ni" || kernel == "portable") << kernel;
  EXPECT_EQ(kernel, Sha256::KernelName());
}

TEST_F(ServerTest, StatAnswersWithTheStoreError) {
  StartServer({}, "file");
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Put("held bytes").ok());
  // A regular file where the store root was: the store cannot be walked.
  std::filesystem::remove_all(root_);
  ASSERT_TRUE(WriteStringToFile(root_.string(), "not a directory").ok());
  auto stat = client->Stat();
  ASSERT_FALSE(stat.ok());
  EXPECT_EQ(stat.status().code(), StatusCode::kIOError)
      << stat.status().ToString();
  EXPECT_TRUE(client->Ping().ok());  // the daemon keeps serving
}

TEST_F(ServerTest, ChainReplyDescribesOnlyThatRun) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->Put("earlier traffic " + std::to_string(i)).ok());
  }
  auto report = client->Chain("minbias", 20, 7);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto json = Json::Parse(*report);
  ASSERT_TRUE(json.ok());
  // No daemon-wide registry snapshot: the reply's bytes must not depend on
  // what other clients did before.
  std::vector<std::string> keys;
  for (const auto& [key, value] : json->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"threads", "wall_ms", "pool",
                                            "steps", "failed", "skipped"}));
  EXPECT_EQ(json->Get("pool").Get("threads").as_int(), 1);
}

TEST_F(ServerTest, SixteenConcurrentClientsGetTheirOwnBytesBack) {
  StartServer();
  constexpr int kClients = 16;
  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      auto client = Client::Connect(Address());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        std::string blob = "client-" + std::to_string(c) + "-round-" +
                           std::to_string(round) + "-";
        blob.resize(20000 + static_cast<size_t>(c) * 1000,
                    static_cast<char>('A' + c));
        auto id = client->Put(blob);
        if (!id.ok()) {
          failures.fetch_add(1);
          return;
        }
        auto back = client->Get(*id);
        if (!back.ok() || *back != blob) {
          failures.fetch_add(1);
          return;
        }
        if (!client->Verify(*id).ok()) {
          failures.fetch_add(1);
          return;
        }
        // One PutBatch per round: every id comes back in input order.
        std::vector<std::string> batch;
        for (int k = 0; k < 4; ++k) {
          batch.push_back("client-" + std::to_string(c) + "-round-" +
                          std::to_string(round) + "-batch-" +
                          std::to_string(k));
        }
        auto batch_ids = client->PutBatch(batch);
        if (!batch_ids.ok() || batch_ids->size() != batch.size()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t k = 0; k < batch.size(); ++k) {
          if ((*batch_ids)[k] != Sha256::HashHex(batch[k])) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Malformed-frame fuzzing: every case must (a) close that client with a
// counted protocol error and (b) leave the daemon serving new clients.

TEST_F(ServerTest, FuzzBadMagicClosesClientCountsErrorDaemonSurvives) {
  StartServer();
  const uint64_t before = NetCounter(metric_names::kNetProtocolErrorsTotal);
  {
    RawConn raw(server_->port());
    ASSERT_TRUE(raw.connected());
    raw.Send(std::string(64, 'Q'));  // 64 bytes of not-a-frame
    std::string reply = raw.ReadAll();  // server answers ERROR then closes
    if (!reply.empty()) {
      auto header = DecodeFrameHeader(reply);
      ASSERT_TRUE(header.ok());
      EXPECT_EQ(header->type, static_cast<uint8_t>(MessageType::kError));
    }
  }
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GT(NetCounter(metric_names::kNetProtocolErrorsTotal), before);
}

TEST_F(ServerTest, FuzzOversizedDeclaredLengthIsRejectedBeforeAllocation) {
  ServerOptions options;
  options.max_frame_bytes = 1 << 20;
  StartServer(options);
  const uint64_t before = NetCounter(metric_names::kNetProtocolErrorsTotal);
  {
    RawConn raw(server_->port());
    ASSERT_TRUE(raw.connected());
    // Valid header declaring a 3 GiB payload that never arrives.
    std::string frame = EncodeFrame(MessageType::kPut, 9, "");
    const uint32_t huge = 3u << 30;
    std::memcpy(&frame[kFrameHeaderSize - 4], &huge, 4);
    raw.Send(frame);
    std::string reply = raw.ReadAll();
    ASSERT_GE(reply.size(), kFrameHeaderSize);
    auto header = DecodeFrameHeader(reply);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->type, static_cast<uint8_t>(MessageType::kError));
    EXPECT_EQ(header->request_id, 9u);
  }
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GT(NetCounter(metric_names::kNetProtocolErrorsTotal), before);
}

TEST_F(ServerTest, FuzzUnknownMessageTypeGetsErrorFrameThenClose) {
  StartServer();
  const uint64_t before = NetCounter(metric_names::kNetProtocolErrorsTotal);
  {
    RawConn raw(server_->port());
    ASSERT_TRUE(raw.connected());
    std::string frame = EncodeFrame(MessageType::kPing, 77, "x");
    frame[5] = 0x7E;  // a type the registry does not know
    raw.Send(frame);
    std::string reply = raw.ReadAll();
    ASSERT_GE(reply.size(), kFrameHeaderSize);
    auto header = DecodeFrameHeader(reply);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->type, static_cast<uint8_t>(MessageType::kError));
    EXPECT_EQ(header->request_id, 77u);
    Status decoded = DecodeErrorPayload(reply.substr(kFrameHeaderSize));
    EXPECT_FALSE(decoded.ok());
  }
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GT(NetCounter(metric_names::kNetProtocolErrorsTotal), before);
}

TEST_F(ServerTest, FuzzMidFrameDisconnectIsCountedDaemonSurvives) {
  StartServer();
  const uint64_t before = NetCounter(metric_names::kNetProtocolErrorsTotal);
  {
    RawConn raw(server_->port());
    ASSERT_TRUE(raw.connected());
    std::string frame = EncodeFrame(MessageType::kPut, 5, std::string(4096, 'p'));
    raw.Send(frame.substr(0, frame.size() / 2));  // half a frame, then gone
  }
  // The close is processed asynchronously by the loop; poll the counter.
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 100; ++i) {
    if (NetCounter(metric_names::kNetProtocolErrorsTotal) > before) break;
    ASSERT_TRUE(client->Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(NetCounter(metric_names::kNetProtocolErrorsTotal), before);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, FuzzTruncatedHeaderDisconnectCounted) {
  StartServer();
  const uint64_t before = NetCounter(metric_names::kNetProtocolErrorsTotal);
  {
    RawConn raw(server_->port());
    ASSERT_TRUE(raw.connected());
    raw.Send("DPN1\x01");  // 5 of 20 header bytes
  }
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 100; ++i) {
    if (NetCounter(metric_names::kNetProtocolErrorsTotal) > before) break;
    ASSERT_TRUE(client->Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(NetCounter(metric_names::kNetProtocolErrorsTotal), before);
}

// ---------------------------------------------------------------------------
// Backpressure: a client that pipelines hard but reads slowly must stall
// itself (reads paused past the outbox cap), never the daemon.

TEST_F(ServerTest, BackpressurePausesReadsUntilSlowClientCatchesUp) {
  ServerOptions options;
  options.max_outbox_bytes = 16 << 10;  // tiny cap so the test can hit it
  StartServer(options);
  const uint64_t before =
      NetCounter(metric_names::kNetBackpressureStallsTotal);

  RawConn raw(server_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(raw.connected());
  constexpr int kFrames = 64;
  const std::string payload(64 << 10, 'b');
  // Writer thread pipelines 4 MiB of pings; the main thread starts reading
  // only once the server has paused this client, so responses pile up
  // behind the tiny receive window and the outbox blows past its cap. Two
  // threads because a paused server would otherwise deadlock against a
  // blocked writer — exactly the scenario backpressure creates on purpose.
  std::thread writer([&raw, &payload] {
    for (int i = 0; i < kFrames; ++i) {
      raw.Send(EncodeFrame(MessageType::kPing,
                           static_cast<uint64_t>(i), payload));
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (NetCounter(metric_names::kNetBackpressureStallsTotal) <= before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Not an ASSERT: the reads below must still drain the writer.
  EXPECT_GT(NetCounter(metric_names::kNetBackpressureStallsTotal), before)
      << "the outbox cap was never hit within 10 s; lower it or pipeline "
         "more";
  std::string all;
  const size_t want =
      static_cast<size_t>(kFrames) * (kFrameHeaderSize + payload.size());
  char buffer[64 << 10];
  while (all.size() < want) {
    ssize_t n = raw.ReadSome(buffer, sizeof(buffer));
    if (n <= 0) break;
    all.append(buffer, static_cast<size_t>(n));
  }
  writer.join();
  ASSERT_EQ(all.size(), want) << "missing response bytes";
  // Every response echoes its payload, in order.
  for (int i = 0; i < kFrames; ++i) {
    const size_t offset =
        static_cast<size_t>(i) * (kFrameHeaderSize + payload.size());
    auto header = DecodeFrameHeader(
        std::string_view(all).substr(offset, kFrameHeaderSize));
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->type, static_cast<uint8_t>(MessageType::kPingOk));
    EXPECT_EQ(header->request_id, static_cast<uint64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Drain.

TEST_F(ServerTest, DrainAnswersBufferedWorkThenExitsRunOk) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());
  const uint64_t drains_before = NetCounter(metric_names::kNetDrainsTotal);

  server_->TriggerDrain();
  loop_thread_.join();
  EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  EXPECT_EQ(NetCounter(metric_names::kNetDrainsTotal), drains_before + 1);
  EXPECT_GE(server_->requests_served(), 1u);

  // The listener is gone: nobody new can connect.
  EXPECT_FALSE(Client::Connect(Address()).ok());
  server_.reset();
  store_.reset();
  std::filesystem::remove_all(root_);
}

// ---------------------------------------------------------------------------
// Client-side torn frames, against a fake server the test controls.

class FakeServer {
 public:
  FakeServer() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    listen(fd_, 1);
    socklen_t len = sizeof(addr);
    getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~FakeServer() {
    if (client_fd_ >= 0) close(client_fd_);
    if (fd_ >= 0) close(fd_);
  }

  uint16_t port() const { return port_; }

  void AcceptOne() { client_fd_ = accept(fd_, nullptr, nullptr); }

  /// Reads (and discards) one request frame from the connected client.
  void SwallowRequest() {
    std::string header(kFrameHeaderSize, '\0');
    size_t got = 0;
    while (got < header.size()) {
      ssize_t n = read(client_fd_, header.data() + got, header.size() - got);
      if (n <= 0) return;
      got += static_cast<size_t>(n);
    }
    auto decoded = DecodeFrameHeader(header);
    if (!decoded.ok()) return;
    size_t remaining = decoded->payload_len;
    char buffer[4096];
    while (remaining > 0) {
      ssize_t n = read(client_fd_, buffer,
                       std::min(remaining, sizeof(buffer)));
      if (n <= 0) return;
      remaining -= static_cast<size_t>(n);
    }
    last_request_id_ = decoded->request_id;
  }

  void SendRaw(std::string_view bytes) {
    ssize_t ignored = write(client_fd_, bytes.data(), bytes.size());
    (void)ignored;
  }

  void CloseClient() {
    if (client_fd_ >= 0) {
      close(client_fd_);
      client_fd_ = -1;
    }
  }

  uint64_t last_request_id() const { return last_request_id_; }

 private:
  int fd_ = -1;
  int client_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t last_request_id_ = 0;
};

TEST(ClientTornFrameTest, HeaderCutMidwayIsCorruption) {
  FakeServer fake;
  std::thread accept_thread([&fake] { fake.AcceptOne(); });
  auto client = Client::Connect("127.0.0.1:" + std::to_string(fake.port()));
  accept_thread.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::thread server_side([&fake] {
    fake.SwallowRequest();
    std::string frame =
        EncodeFrame(MessageType::kGetOk, fake.last_request_id(), "payload");
    fake.SendRaw(std::string_view(frame).substr(0, 7));  // 7 of 20+7 bytes
    fake.CloseClient();
  });
  auto got = client->Get(std::string(64, 'a'));
  server_side.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
      << got.status().ToString();
  EXPECT_FALSE(client->connected());  // a torn stream is never reused
}

TEST(ClientTornFrameTest, PayloadCutMidwayIsCorruption) {
  FakeServer fake;
  std::thread accept_thread([&fake] { fake.AcceptOne(); });
  auto client = Client::Connect("127.0.0.1:" + std::to_string(fake.port()));
  accept_thread.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::thread server_side([&fake] {
    fake.SwallowRequest();
    std::string frame = EncodeFrame(MessageType::kGetOk,
                                    fake.last_request_id(),
                                    std::string(1000, 'z'));
    fake.SendRaw(std::string_view(frame).substr(0, kFrameHeaderSize + 100));
    fake.CloseClient();
  });
  auto got = client->Get(std::string(64, 'a'));
  server_side.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(ClientTornFrameTest, MismatchedRequestIdIsCorruption) {
  FakeServer fake;
  std::thread accept_thread([&fake] { fake.AcceptOne(); });
  auto client = Client::Connect("127.0.0.1:" + std::to_string(fake.port()));
  accept_thread.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::thread server_side([&fake] {
    fake.SwallowRequest();
    fake.SendRaw(EncodeFrame(MessageType::kGetOk,
                             fake.last_request_id() + 999, "payload"));
    fake.CloseClient();
  });
  auto got = client->Get(std::string(64, 'a'));
  server_side.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(client->connected());
}

}  // namespace
}  // namespace net
}  // namespace daspos
