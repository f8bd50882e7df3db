// The service workloads: svc_get (pipelined reads of a sealed pack store)
// and svc_put (PutBatch ingest), both against an in-process net::Server
// whose reactor runs on a thread this file owns, so its CPU clock can be
// read. Load comes from the calling thread alone.
#include "service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "archive/pack_store.h"
#include "host.h"
#include "net/client.h"
#include "net/server.h"
#include "support/checksum.h"
#include "support/sha256.h"
#include "workloads.h"

namespace perfbench {

using daspos::Result;
using daspos::Status;
namespace net = daspos::net;

FrameBuffer::FrameBuffer(size_t capacity) : bytes_(capacity) {}

char* FrameBuffer::Reserve(size_t min_free) {
  if (begin_ == end_) begin_ = end_ = 0;
  if (bytes_.size() - end_ < min_free) {
    std::memmove(bytes_.data(), bytes_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (bytes_.size() - end_ < min_free) bytes_.resize(end_ + min_free);
  }
  return bytes_.data() + end_;
}

Result<std::optional<Frame>> FrameBuffer::Next(size_t max_payload) {
  const size_t available = end_ - begin_;
  if (available < net::kFrameHeaderSize) return std::optional<Frame>();
  const std::string_view view(bytes_.data() + begin_, available);
  DASPOS_ASSIGN_OR_RETURN(net::FrameHeader header,
                          net::DecodeFrameHeader(view));
  if (header.payload_len > max_payload) {
    return Status::Corruption("response declares a " +
                              std::to_string(header.payload_len) +
                              "-byte payload");
  }
  const size_t total = net::kFrameHeaderSize + header.payload_len;
  if (available < total) return std::optional<Frame>();
  begin_ += total;
  return std::optional<Frame>(
      Frame{header, view.substr(net::kFrameHeaderSize, header.payload_len)});
}

bool CheckGetResponse(const Frame& frame, uint64_t request_id,
                      std::string_view expected_body) {
  return frame.header.type == static_cast<uint8_t>(net::MessageType::kGetOk) &&
         frame.header.request_id == request_id &&
         frame.payload == expected_body;
}

namespace {

constexpr size_t kBlobBytes = 4096;

// svc_get: 4096 objects keep keys far above the 16 callers and the index
// past trivially cached; 2 connections x 8 in flight put several frames in
// one readable event.
constexpr size_t kGetObjects = 4096;
constexpr size_t kGetConnections = 2;
constexpr size_t kGetDepth = 8;
constexpr double kGetTailP = 0.9;
constexpr size_t kGetRateSlices = 20;
constexpr size_t kGetLatencySlices = 10;

// svc_put: 16-blob batches, 12 new and 4 re-puts of blobs already stored
// (the dedupe read-back gate). Every kPutEpochBatches batches the store is
// replaced by a fresh one, untimed, so memory does not grow with
// throughput. An epoch (about 0.2 s) is kept shorter than a rate slice, so
// every slice's peak RSS spans whole epochs and does not depend on where
// the slice falls in one.
constexpr size_t kPutBatchBlobs = 16;
constexpr size_t kPutNewBlobs = 12;
constexpr double kPutTailP = 0.99;
constexpr size_t kPutRateSlices = 10;
constexpr size_t kPutLatencySlices = 2;
constexpr uint64_t kPutEpochBatches = 512;
constexpr size_t kPutReadBackSample = 16;

struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

std::string RandomBytes(size_t n, SplitMix* rng) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t word = rng->Next();
    std::memcpy(out.data() + i, &word, std::min<size_t>(8, n - i));
  }
  return out;
}

double CpuSecondsOfThisThread() { return ThreadCpuSeconds(pthread_self()); }

/// A fresh directory under the run's work dir. Stores are not deleted until
/// the run ends: on a filesystem mounted with `discard`, unlinking fsynced
/// data costs tens of milliseconds per MiB, which must not land inside a
/// measured loop.
std::string FreshDir(const RunOptions& options, const std::string& name) {
  static int counter = 0;
  return options.work_dir + "/" + name + "-" + std::to_string(counter++);
}

/// A pack store under a fresh `root` served by a net::Server whose Run loop
/// is a thread of this object. Drain before reading requests_served().
class ServiceFixture {
 public:
  explicit ServiceFixture(const std::string& root) {
    std::filesystem::create_directories(root);
    store_ = std::make_unique<daspos::PackObjectStore>(root);
  }
  ~ServiceFixture() {
    (void)Drain();
    server_.reset();
    store_.reset();
  }
  ServiceFixture(const ServiceFixture&) = delete;
  ServiceFixture& operator=(const ServiceFixture&) = delete;

  daspos::PackObjectStore* store() { return store_.get(); }

  Status Start() {
    net::ServerOptions options;
    options.backend_name = "pack";
    server_ = std::make_unique<net::Server>(store_.get(), options);
    DASPOS_RETURN_IF_ERROR(server_->Start());
    loop_ = std::thread([this] { run_status_ = server_->Run(); });
    return Status::OK();
  }

  /// Drains the server and joins its loop thread; returns Run's status.
  Status Drain() {
    if (loop_.joinable()) {
      server_->TriggerDrain();
      loop_.join();
    }
    return run_status_;
  }

  uint16_t port() const { return server_->port(); }
  /// CPU time of the reactor thread so far (while it runs).
  double ReactorCpuSeconds() { return ThreadCpuSeconds(loop_.native_handle()); }
  /// Valid only after Drain: the counter is a plain loop-thread member.
  uint64_t requests_served() const { return server_->requests_served(); }

 private:
  std::unique_ptr<daspos::PackObjectStore> store_;
  std::unique_ptr<net::Server> server_;
  Status run_status_;
  std::thread loop_;
};

/// Blocking TCP socket to the local server, closed on destruction.
class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

Result<std::unique_ptr<Socket>> Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  auto sock = std::make_unique<Socket>(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError("connect: " + std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Status WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write: " + std::string(strerror(errno)));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

// ------------------------------------------------------------- svc_get

struct InFlight {
  uint64_t request_id = 0;
  uint32_t key = 0;
  int64_t sent_ns = 0;  ///< 0 until the request's write is issued
};

struct GetConnection {
  std::unique_ptr<Socket> socket;
  FrameBuffer inbox;
  std::deque<InFlight> in_flight;
  std::string outbox;
  uint64_t next_request_id = 1;
};

struct GetCounters {
  uint64_t completed = 0;
  uint64_t reads = 0;  ///< read() calls that returned response bytes
};

struct GetFixture {
  std::vector<std::string> payloads;
  std::vector<std::string> ids;
  std::unique_ptr<ServiceFixture> service;
  std::vector<GetConnection> connections;
  uint64_t warm_requests = 0;
};

// Keeps kGetDepth Gets in flight on every connection until next_key()
// returns a negative key, then waits for the stragglers. Each response is
// checked against the request it answers (FIFO per connection: the server
// answers a connection's requests in order). Requests freed by one read are
// re-issued in a single write, as a pipelining client would.
Status DriveGets(GetFixture* fixture, const std::function<int64_t()>& next_key,
                 Tally* tally, SlicedRun* run, int64_t run_start,
                 SpanRecorder* spans, int64_t parent, GetCounters* counters) {
  auto issue = [&](size_t index, GetConnection& conn) -> Status {
    while (conn.in_flight.size() < kGetDepth) {
      const int64_t key = next_key();
      if (key < 0) break;
      const uint64_t id =
          (static_cast<uint64_t>(index + 1) << 48) | conn.next_request_id++;
      conn.outbox += net::EncodeFrame(net::MessageType::kGet, id,
                                      fixture->ids[static_cast<size_t>(key)]);
      conn.in_flight.push_back({id, static_cast<uint32_t>(key), 0});
    }
    if (conn.outbox.empty()) return Status::OK();
    const int64_t now = NowNs();
    for (auto it = conn.in_flight.rbegin();
         it != conn.in_flight.rend() && it->sent_ns == 0; ++it) {
      it->sent_ns = now;
    }
    Status status = WriteAll(conn.socket->fd(), conn.outbox);
    conn.outbox.clear();
    return status;
  };

  std::vector<GetConnection>& conns = fixture->connections;
  for (size_t i = 0; i < conns.size(); ++i) {
    DASPOS_RETURN_IF_ERROR(issue(i, conns[i]));
  }
  std::vector<pollfd> fds(conns.size());
  while (true) {
    bool waiting = false;
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].socket->fd(),
                static_cast<short>(conns[i].in_flight.empty() ? 0 : POLLIN),
                0};
      waiting = waiting || !conns[i].in_flight.empty();
    }
    if (!waiting) return Status::OK();
    const int ready = poll(fds.data(), fds.size(), 10000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("poll: " + std::string(strerror(errno)));
    }
    if (ready == 0) return Status::DeadlineExceeded("no response in 10 s");
    for (size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents == 0) continue;
      GetConnection& conn = conns[i];
      char* tail = conn.inbox.Reserve(64u << 10);
      const ssize_t got = read(conn.socket->fd(), tail, conn.inbox.free_bytes());
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return Status::IOError("read: " + std::string(strerror(errno)));
      }
      if (got == 0) return Status::IOError("server closed the connection");
      conn.inbox.Commit(static_cast<size_t>(got));
      ++counters->reads;
      while (true) {
        DASPOS_ASSIGN_OR_RETURN(std::optional<Frame> frame, conn.inbox.Next());
        if (!frame) break;
        if (conn.in_flight.empty()) {
          return Status::Corruption("response with no request in flight");
        }
        const InFlight sent = conn.in_flight.front();
        conn.in_flight.pop_front();
        tally->Record(
            CheckGetResponse(*frame, sent.request_id,
                             fixture->payloads[sent.key]),
            "svc_get: response type, request id or body mismatch");
        const int64_t done = NowNs();
        if (run != nullptr) {
          run->Record(done - run_start, 1.0,
                      static_cast<double>(done - sent.sent_ns) / 1e3);
        }
        if (spans != nullptr) {
          spans->Record("net.get", sent.sent_ns, done, parent,
                        sent.request_id);
        }
        ++counters->completed;
      }
      DASPOS_RETURN_IF_ERROR(issue(i, conn));
    }
  }
}

// Preload + seal the store, start the server, connect, Get every key once.
Result<std::unique_ptr<GetFixture>> SetUpGet(const RunOptions& options,
                                             Tally* tally) {
  auto fixture = std::make_unique<GetFixture>();
  SplitMix rng{options.seed};
  fixture->payloads.reserve(kGetObjects);
  for (size_t i = 0; i < kGetObjects; ++i) {
    fixture->payloads.push_back(RandomBytes(kBlobBytes, &rng));
  }
  fixture->service =
      std::make_unique<ServiceFixture>(FreshDir(options, "svc_get"));
  std::vector<std::string_view> views(fixture->payloads.begin(),
                                      fixture->payloads.end());
  DASPOS_ASSIGN_OR_RETURN(fixture->ids,
                          fixture->service->store()->PutBatch(views));
  DASPOS_RETURN_IF_ERROR(fixture->service->store()->Flush());
  DASPOS_RETURN_IF_ERROR(fixture->service->Start());
  const size_t connections = std::min<size_t>(
      kGetConnections, std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN)));
  for (size_t i = 0; i < connections; ++i) {
    DASPOS_ASSIGN_OR_RETURN(std::unique_ptr<Socket> socket,
                            Connect(fixture->service->port()));
    fixture->connections.emplace_back();
    fixture->connections.back().socket = std::move(socket);
  }
  int64_t next = 0;
  GetCounters warm;
  Tally warm_tally;
  DASPOS_RETURN_IF_ERROR(DriveGets(
      fixture.get(),
      [&next] {
        return next < static_cast<int64_t>(kGetObjects) ? next++ : -1;
      },
      &warm_tally, nullptr, 0, nullptr, SpanRecorder::kNoParent, &warm));
  if (warm_tally.failed() != 0 || warm.completed != kGetObjects) {
    tally->Fail("svc_get warm-up: " + warm_tally.first_failure());
  }
  fixture->warm_requests = warm.completed;
  return fixture;
}

struct GetLoop {
  size_t connections = 0;
  double wall_s = 0.0;
  double reactor_cpu_s = 0.0;
  double generator_cpu_s = 0.0;
  GetCounters counters;
};

// One measured svc_get loop, then drain and the counter cross-check.
Result<GetLoop> MeasureGets(GetFixture* fixture, const RunOptions& options,
                            Tally* tally, SlicedRun* run,
                            SpanRecorder* spans, int64_t parent) {
  GetLoop loop;
  loop.connections = fixture->connections.size();
  SplitMix keys{options.seed ^ 0x5eed5eedull};
  const double reactor0 = fixture->service->ReactorCpuSeconds();
  const double generator0 = CpuSecondsOfThisThread();
  const int64_t start = NowNs();
  Status driven = DriveGets(
      fixture,
      [&] {
        if (!run->NeedsMore(NowNs() - start, kGetTailP)) return int64_t{-1};
        return static_cast<int64_t>(keys.Below(kGetObjects));
      },
      tally, run, start, spans, parent, &loop.counters);
  loop.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  loop.reactor_cpu_s = fixture->service->ReactorCpuSeconds() - reactor0;
  loop.generator_cpu_s = CpuSecondsOfThisThread() - generator0;
  if (!driven.ok()) return driven;

  fixture->connections.clear();
  DASPOS_RETURN_IF_ERROR(fixture->service->Drain());
  const uint64_t sent = fixture->warm_requests + loop.counters.completed;
  if (fixture->service->requests_served() != sent) {
    tally->Fail("svc_get: server counted " +
                std::to_string(fixture->service->requests_served()) +
                " requests, generator completed " + std::to_string(sent));
  }
  return loop;
}

std::string LoadShapeNote(const GetLoop& loop) {
  const double generator = loop.generator_cpu_s / loop.wall_s;
  const double reactor = loop.reactor_cpu_s / loop.wall_s;
  std::string note = "svc_get load shape: 1 generator thread, " +
                     std::to_string(loop.connections) + " connections x " +
                     std::to_string(kGetDepth) +
                     " in flight; generator cpu share " +
                     std::to_string(generator) + ", reactor cpu share " +
                     std::to_string(reactor);
  if (generator > reactor) note += " -- GENERATOR-BOUND";
  return note;
}

// ------------------------------------------------------------- svc_put

/// One fresh store + server + connection, the blobs it will be sent, and
/// their SHA-256 ids computed here so every returned id can be checked.
struct PutEpoch {
  std::vector<std::string> blobs;
  std::vector<std::string> ids;
  size_t next = 0;  ///< blobs [0, next) have been put
  std::unique_ptr<ServiceFixture> service;
  net::Client client;
  uint64_t requests = 0;  ///< PutBatch requests sent to this server
};

// Builds one batch: kPutNewBlobs new blobs, then re-puts of blobs this
// epoch already stored.
void MakeBatch(PutEpoch* epoch, SplitMix* rng, std::vector<std::string>* batch,
               std::vector<std::string>* expected) {
  batch->clear();
  expected->clear();
  const size_t stored = epoch->next;
  for (size_t i = 0; i < kPutBatchBlobs; ++i) {
    const size_t index =
        i < kPutNewBlobs ? epoch->next++
                         : static_cast<size_t>(rng->Below(stored));
    batch->push_back(epoch->blobs[index]);
    expected->push_back(epoch->ids[index]);
  }
}

// Generates the epoch's blobs (a warm batch plus kPutEpochBatches batches
// of new ones) and their ids, opens a fresh store, starts the server,
// connects, and puts the warm batch so the first measured batch has blobs
// to re-put.
Result<std::unique_ptr<PutEpoch>> SetUpPut(const RunOptions& options,
                                           SplitMix* rng, Tally* tally) {
  auto epoch = std::make_unique<PutEpoch>();
  const size_t count = kPutBatchBlobs + kPutEpochBatches * kPutNewBlobs;
  for (size_t i = 0; i < count; ++i) {
    epoch->blobs.push_back(RandomBytes(kBlobBytes, rng));
    epoch->ids.push_back(daspos::Sha256::HashHex(epoch->blobs.back()));
  }
  epoch->service =
      std::make_unique<ServiceFixture>(FreshDir(options, "svc_put"));
  DASPOS_RETURN_IF_ERROR(epoch->service->Start());
  DASPOS_ASSIGN_OR_RETURN(
      epoch->client,
      net::Client::Connect("127.0.0.1:" +
                           std::to_string(epoch->service->port())));
  std::vector<std::string> warm(epoch->blobs.begin(),
                                epoch->blobs.begin() + kPutBatchBlobs);
  epoch->next = kPutBatchBlobs;
  auto ids = epoch->client.PutBatch(warm);
  ++epoch->requests;
  if (!ids.ok() ||
      !std::equal(ids->begin(), ids->end(), epoch->ids.begin(),
                  epoch->ids.begin() + kPutBatchBlobs)) {
    tally->Fail("svc_put warm-up batch ids differ from local SHA-256");
  }
  return epoch;
}

bool EpochDone(const PutEpoch& epoch) {
  return epoch.next + kPutNewBlobs > epoch.blobs.size();
}

// Drains the epoch's server, cross-checks its request counter, and reads a
// sample of the epoch's blobs back in-process.
Status FinishEpoch(PutEpoch* epoch, SplitMix* rng, Tally* tally) {
  epoch->client.Close();
  DASPOS_RETURN_IF_ERROR(epoch->service->Drain());
  if (epoch->service->requests_served() != epoch->requests) {
    tally->Fail("svc_put: server counted " +
                std::to_string(epoch->service->requests_served()) +
                " requests, generator sent " +
                std::to_string(epoch->requests));
  }
  for (size_t i = 0; i < kPutReadBackSample; ++i) {
    const size_t index = static_cast<size_t>(rng->Below(epoch->next));
    auto bytes = epoch->service->store()->Get(epoch->ids[index]);
    tally->Record(bytes.ok() && *bytes == epoch->blobs[index],
                  "svc_put: blob read back after drain differs");
  }
  return Status::OK();
}

struct PutLoop {
  uint64_t batches = 0;
  uint64_t epochs = 0;
};

// The svc_put closed loop. Measured time is the time inside PutBatch calls:
// building the next batch is the benchmark's work. `epoch` holds a set-up
// epoch on entry and is finished on return; `blob_rng` generates the blobs
// of every later epoch.
Result<PutLoop> MeasurePuts(const RunOptions& options,
                            std::unique_ptr<PutEpoch>* epoch,
                            SplitMix* blob_rng, Tally* tally, SlicedRun* run,
                            SpanRecorder* spans, int64_t parent) {
  PutLoop loop;
  SplitMix rng{options.seed ^ 0xba7c4ull};
  std::vector<std::string> batch;
  std::vector<std::string> expected;
  int64_t measured_ns = 0;
  while (run->NeedsMore(measured_ns, kPutTailP)) {
    if (EpochDone(**epoch)) {
      DASPOS_RETURN_IF_ERROR(FinishEpoch(epoch->get(), &rng, tally));
      epoch->reset();
      DASPOS_ASSIGN_OR_RETURN(*epoch, SetUpPut(options, blob_rng, tally));
      ++loop.epochs;
    }
    MakeBatch(epoch->get(), &rng, &batch, &expected);
    const int64_t sent = NowNs();
    auto ids = (*epoch)->client.PutBatch(batch);
    const int64_t done = NowNs();
    ++(*epoch)->requests;
    measured_ns += done - sent;
    if (!ids.ok()) {
      tally->Record(false, "svc_put: " + ids.status().ToString());
      return ids.status();
    }
    tally->Record(*ids == expected,
                  "svc_put: returned id differs from local SHA-256");
    run->Record(measured_ns, static_cast<double>(kPutBatchBlobs),
                static_cast<double>(done - sent) / 1e3);
    if (spans != nullptr) {
      // net::Client keeps its wire request ids private; the span carries
      // the batch ordinal instead.
      spans->Record("net.put_batch", sent, done, parent, loop.batches + 1);
    }
    ++loop.batches;
  }
  DASPOS_RETURN_IF_ERROR(FinishEpoch(epoch->get(), &rng, tally));
  return loop;
}

// ------------------------------------------------------ single layers

// Times `call` in groups of 64 for at least `seconds`; returns ns per call.
template <typename Fn>
double NsPerCall(SpanRecorder* spans, const char* name, int64_t parent,
                 double seconds, Fn&& call) {
  uint64_t calls = 0;
  const int64_t start = NowNs();
  do {
    const int64_t group = NowNs();
    for (int i = 0; i < 64; ++i) call(calls + static_cast<uint64_t>(i));
    spans->Record(name, group, NowNs(), parent);
    calls += 64;
  } while (static_cast<double>(NowNs() - start) < seconds * 1e9);
  return spans->TotalNs(name) / static_cast<double>(calls);
}

}  // namespace

Result<TimedResult> RunGetTimed(const RunOptions& options, Tally* tally) {
  TimedResult result;
  std::vector<double> setups;
  std::unique_ptr<GetFixture> fixture;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    fixture.reset();
    const int64_t start = NowNs();
    DASPOS_ASSIGN_OR_RETURN(fixture, SetUpGet(options, tally));
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  result.setup_s = Median(setups);
  SlicedRun run(options.seconds, kGetRateSlices, kGetLatencySlices,
                options.seed);
  DASPOS_ASSIGN_OR_RETURN(
      GetLoop loop, MeasureGets(fixture.get(), options, tally, &run, nullptr,
                                SpanRecorder::kNoParent));
  result.throughput_per_s = run.Throughput();
  result.peak_rss_mib = run.PeakRssMib();
  DASPOS_ASSIGN_OR_RETURN(result.latency_us, run.Latency(kGetTailP));
  result.notes.push_back(LoadShapeNote(loop));
  result.notes.push_back(
      "svc_get: " + std::to_string(loop.counters.completed) +
      " Gets over " + std::to_string(kGetObjects) + " x " +
      std::to_string(kBlobBytes) +
      "-byte objects, every body and request id checked; medians over " +
      std::to_string(kGetRateSlices) + " rate and " +
      std::to_string(kGetLatencySlices) +
      " latency slices; requests_served cross-checked");
  return result;
}

Result<TimedResult> RunPutTimed(const RunOptions& options, Tally* tally) {
  TimedResult result;
  std::vector<double> setups;
  SplitMix blob_rng{options.seed};
  std::unique_ptr<PutEpoch> epoch;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    epoch.reset();
    const int64_t start = NowNs();
    DASPOS_ASSIGN_OR_RETURN(epoch, SetUpPut(options, &blob_rng, tally));
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  result.setup_s = Median(setups);
  SlicedRun run(options.seconds, kPutRateSlices, kPutLatencySlices,
                options.seed);
  DASPOS_ASSIGN_OR_RETURN(PutLoop loop,
                          MeasurePuts(options, &epoch, &blob_rng, tally, &run,
                                      nullptr, SpanRecorder::kNoParent));
  result.throughput_per_s = run.Throughput();
  result.peak_rss_mib = run.PeakRssMib();
  DASPOS_ASSIGN_OR_RETURN(result.latency_us, run.Latency(kPutTailP));
  result.notes.push_back(
      "svc_put: " + std::to_string(loop.batches) + " PutBatch x " +
      std::to_string(kPutBatchBlobs) + " blobs (" +
      std::to_string(kPutNewBlobs) + " new), " +
      std::to_string(loop.epochs + 1) +
      " store epochs; every id checked against local SHA-256, " +
      std::to_string(kPutReadBackSample) +
      " blobs per epoch read back after drain, requests_served "
      "cross-checked; store fs " +
      FilesystemType(options.work_dir));
  return result;
}

Result<double> TraceGet(const RunOptions& options, Tally* tally,
                        SpanRecorder* spans, std::vector<Metric>* metrics) {
  DASPOS_ASSIGN_OR_RETURN(std::unique_ptr<GetFixture> fixture,
                          SetUpGet(options, tally));
  SlicedRun run(options.seconds, kGetRateSlices, kGetLatencySlices,
                options.seed);
  const int64_t root = spans->Begin("svc_get.loop");
  DASPOS_ASSIGN_OR_RETURN(GetLoop loop,
                          MeasureGets(fixture.get(), options, tally, &run,
                                      spans, root));
  spans->End(root);
  const double requests = static_cast<double>(loop.counters.completed);
  metrics->push_back({"net.reactor_cpu_us_per_req",
                      loop.reactor_cpu_s * 1e6 / requests, "us"});
  metrics->push_back(
      {"net.reactor_busy_share", loop.reactor_cpu_s / loop.wall_s, "share"});
  metrics->push_back({"net.generator_cpu_us_per_req",
                      loop.generator_cpu_s * 1e6 / requests, "us"});
  metrics->push_back({"net.generator_busy_share",
                      loop.generator_cpu_s / loop.wall_s, "share"});
  metrics->push_back(
      {"net.responses_per_read",
       requests / static_cast<double>(loop.counters.reads), "count"});
  return run.Throughput();
}

Result<double> TracePut(const RunOptions& options, Tally* tally,
                        SpanRecorder* spans) {
  SplitMix blob_rng{options.seed};
  DASPOS_ASSIGN_OR_RETURN(std::unique_ptr<PutEpoch> epoch,
                          SetUpPut(options, &blob_rng, tally));
  SlicedRun run(options.seconds, kPutRateSlices, kPutLatencySlices,
                options.seed);
  const int64_t root = spans->Begin("svc_put.loop");
  DASPOS_RETURN_IF_ERROR(MeasurePuts(options, &epoch, &blob_rng, tally, &run,
                                     spans, root)
                             .status());
  spans->End(root);
  return run.Throughput();
}

Status TraceServiceLayers(const RunOptions& options, Tally* tally,
                          SpanRecorder* spans, std::vector<Metric>* metrics) {
  constexpr double kSeconds = 0.25;
  const int64_t root = spans->Begin("layers");
  SplitMix rng{options.seed};
  const std::string body = RandomBytes(kBlobBytes, &rng);
  volatile uint64_t sink = 0;

  metrics->push_back(
      {"net.encode_frame_ns",
       NsPerCall(spans, "net.encode_frame", root, kSeconds,
                 [&](uint64_t i) {
                   std::string frame =
                       net::EncodeFrame(net::MessageType::kGetOk, i, body);
                   sink = sink + static_cast<uint8_t>(frame[i % frame.size()]);
                 }),
       "ns"});
  const std::string frame = net::EncodeFrame(net::MessageType::kGetOk, 7, body);
  metrics->push_back(
      {"net.decode_header_ns",
       NsPerCall(spans, "net.decode_header", root, kSeconds,
                 [&](uint64_t) {
                   auto header = net::DecodeFrameHeader(frame);
                   sink = sink + (header.ok() ? header->payload_len : 0);
                 }),
       "ns"});

  // svc_put-shaped blobs for the PutBatch codec, pack PutBatch and hash
  // loops: one epoch's worth, generated and hashed as svc_put does.
  PutEpoch blobs;
  for (size_t i = 0; i < kPutBatchBlobs + kPutEpochBatches * kPutNewBlobs;
       ++i) {
    blobs.blobs.push_back(RandomBytes(kBlobBytes, &rng));
    blobs.ids.push_back(daspos::Sha256::HashHex(blobs.blobs.back()));
  }
  std::vector<std::string> batch(blobs.blobs.begin(),
                                 blobs.blobs.begin() + kPutBatchBlobs);
  bool codec_ok = true;
  metrics->push_back(
      {"net.putbatch_codec_us",
       NsPerCall(spans, "net.putbatch_codec", root, kSeconds,
                 [&](uint64_t) {
                   auto decoded = net::DecodePutBatchRequest(
                       net::EncodePutBatchRequest(batch));
                   codec_ok = codec_ok && decoded.ok() && *decoded == batch;
                 }) /
           1e3,
       "us"});
  tally->Record(codec_ok, "PutBatch request codec round trip differs");

  // In-process pack Get over the svc_get store layout and key sequence.
  {
    SplitMix payload_rng{options.seed};
    std::vector<std::string> payloads;
    for (size_t i = 0; i < kGetObjects; ++i) {
      payloads.push_back(RandomBytes(kBlobBytes, &payload_rng));
    }
    ServiceFixture fixture(FreshDir(options, "pack_get"));
    std::vector<std::string_view> views(payloads.begin(), payloads.end());
    DASPOS_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                            fixture.store()->PutBatch(views));
    DASPOS_RETURN_IF_ERROR(fixture.store()->Flush());
    SplitMix keys{options.seed ^ 0x5eed5eedull};
    uint64_t mismatches = 0;
    metrics->push_back(
        {"archive.pack_get_us",
         NsPerCall(spans, "archive.pack_get", root, kSeconds,
                   [&](uint64_t) {
                     const size_t key = keys.Below(kGetObjects);
                     auto bytes = fixture.store()->Get(ids[key]);
                     if (!bytes.ok() || *bytes != payloads[key]) ++mismatches;
                   }) /
             1e3,
         "us"});
    tally->Record(mismatches == 0, "in-process pack Get returned wrong bytes");
  }

  // In-process PutBatch of svc_put-shaped batches on a fresh store, until
  // the time is up or the epoch's blobs run out.
  {
    ServiceFixture fixture(FreshDir(options, "pack_put"));
    std::vector<std::string_view> views(batch.begin(), batch.end());
    auto warm = fixture.store()->PutBatch(views);
    bool ok = warm.ok() && std::equal(warm->begin(), warm->end(),
                                      blobs.ids.begin());
    blobs.next = kPutBatchBlobs;
    SplitMix batch_rng{options.seed ^ 0xba7c4ull};
    std::vector<std::string> expected;
    uint64_t calls = 0;
    const int64_t start = NowNs();
    while (static_cast<double>(NowNs() - start) < kSeconds * 1e9 &&
           !EpochDone(blobs)) {
      MakeBatch(&blobs, &batch_rng, &batch, &expected);
      views.assign(batch.begin(), batch.end());
      const int64_t call = NowNs();
      auto ids = fixture.store()->PutBatch(views);
      spans->Record("archive.pack_putbatch", call, NowNs(), root);
      ok = ok && ids.ok() && *ids == expected;
      ++calls;
    }
    metrics->push_back({"archive.pack_putbatch_us",
                        spans->TotalNs("archive.pack_putbatch") / 1e3 /
                            static_cast<double>(calls),
                        "us"});
    tally->Record(ok, "in-process pack PutBatch ids differ from SHA-256");
  }

  // Hash throughput on 4 KiB blobs; the SHA-256 loop also checks the
  // one-shot digest against the incremental hasher's.
  const std::string& blob = blobs.blobs.front();
  daspos::Sha256 incremental;
  incremental.Update(std::string_view(blob).substr(0, 1000));
  incremental.Update(std::string_view(blob).substr(1000));
  const std::string blob_id = incremental.HexDigest();
  bool sha_ok = true;
  const double sha_ns = NsPerCall(spans, "support.sha256", root, kSeconds,
                                  [&](uint64_t) {
                                    sha_ok = sha_ok &&
                                             daspos::Sha256::HashHex(blob) ==
                                                 blob_id;
                                  });
  tally->Record(sha_ok, "Sha256::HashHex differs from the incremental digest");
  const double checksum_ns =
      NsPerCall(spans, "support.checksum64", root, kSeconds, [&](uint64_t) {
        sink = sink + daspos::Checksum64(blob);
      });
  auto mib_per_s = [](double ns_per_blob) {
    return static_cast<double>(kBlobBytes) / (ns_per_blob * 1e-9) /
           (1024.0 * 1024.0);
  };
  metrics->push_back({"support.sha256_mib_per_s", mib_per_s(sha_ns), "MiB/s"});
  metrics->push_back(
      {"support.checksum64_mib_per_s", mib_per_s(checksum_ns), "MiB/s"});
  spans->End(root);
  return Status::OK();
}

}  // namespace perfbench
