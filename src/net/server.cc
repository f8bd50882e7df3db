#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "archive/object_store.h"
#include "detsim/calib.h"
#include "lint/diagnostics.h"
#include "lint/linter.h"
#include "mc/process.h"
#include "serialize/json.h"
#include "support/logging.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"
#include "support/trace.h"
#include "workflow/steps.h"

namespace daspos {
namespace net {

namespace {

/// Upper bound on a remote chain submission: the request runs inline on
/// the loop thread, so an absurd event count must be rejected, not served.
constexpr uint64_t kMaxChainEvents = 100000;

std::string PeerName(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

/// Artifact names come from the client and name every finding in the
/// report; anything path-like is rejected.
Status ValidateArtifactName(const std::string& name) {
  if (name.empty() || name.size() > 255) {
    return Status::InvalidArgument("bad artifact name length");
  }
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos ||
      name.find("..") != std::string::npos || name[0] == '.') {
    return Status::InvalidArgument("artifact name '" + name +
                                   "' may not contain path components");
  }
  return Status::OK();
}

}  // namespace

Server::Server(ObjectStore* store, ServerOptions options)
    : store_(store), options_(std::move(options)) {
  using namespace metric_names;
  MetricsRegistry& registry = MetricsRegistry::Global();
  connections_total_ = &registry.GetCounter(kNetConnectionsTotal);
  active_connections_ = &registry.GetGauge(kNetActiveConnections);
  requests_total_ = &registry.GetCounter(kNetRequestsTotal);
  request_errors_total_ = &registry.GetCounter(kNetRequestErrorsTotal);
  protocol_errors_total_ = &registry.GetCounter(kNetProtocolErrorsTotal);
  bytes_read_total_ = &registry.GetCounter(kNetBytesReadTotal);
  bytes_written_total_ = &registry.GetCounter(kNetBytesWrittenTotal);
  backpressure_stalls_total_ =
      &registry.GetCounter(kNetBackpressureStallsTotal);
  drains_total_ = &registry.GetCounter(kNetDrainsTotal);
  request_wall_ms_ = &registry.GetHistogram(kNetRequestWallMs);
}

Server::~Server() {
  for (auto& [fd, conn] : connections_) {
    close(fd);
    (void)conn;
  }
  connections_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status Server::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  const std::string host =
      options_.host == "localhost" ? "127.0.0.1" : options_.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "' (IPv4 dotted quad or 'localhost')");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError("bind " + host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (listen(listen_fd_, SOMAXCONN) < 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  DASPOS_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  DASPOS_RETURN_IF_ERROR(
      loop_.Add(listen_fd_, kEventRead, [this](uint32_t) { OnAcceptable(); }));
  loop_.set_wakeup_handler([this] { BeginDrain(); });
  loop_.set_tick_handler([this] { CheckDrainComplete(); });
  return Status::OK();
}

Status Server::Run() { return loop_.Run(); }

void Server::TriggerDrain() {
  char byte = 'D';
  ssize_t ignored = write(loop_.wakeup_fd(), &byte, 1);
  (void)ignored;
}

void Server::OnAcceptable() {
  for (;;) {
    sockaddr_in addr;
    socklen_t len = sizeof(addr);
    int fd = accept(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      DASPOS_LOG(kWarning) << "dasposd: accept failed: "
                           << std::strerror(errno);
      return;
    }
    if (draining_ || connections_.size() >= options_.max_connections) {
      close(fd);
      continue;
    }
    if (auto status = SetNonBlocking(fd); !status.ok()) {
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->peer = PeerName(addr);
    Status added = loop_.Add(
        fd, kEventRead, [this, fd](uint32_t revents) {
          OnConnectionEvent(fd, revents);
        });
    if (!added.ok()) {
      close(fd);
      continue;
    }
    connections_[fd] = std::move(conn);
    connections_total_->Increment();
    active_connections_->Add(1);
  }
}

void Server::OnConnectionEvent(int fd, uint32_t revents) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (revents & kEventWrite) WriteToConnection(conn);
  // The write may have closed the connection (flush-then-close).
  if (connections_.count(fd) == 0) return;
  if ((revents & kEventRead) && !conn.reading_paused && !conn.closing) {
    ReadFromConnection(conn);
  }
}

void Server::ReadFromConnection(Connection& conn) {
  char buffer[64 * 1024];
  for (;;) {
    ssize_t n = read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn.inbox.append(buffer, static_cast<size_t>(n));
      conn.bytes_in += static_cast<uint64_t>(n);
      bytes_read_total_->Increment(static_cast<uint64_t>(n));
      if (!DrainInbox(conn)) return;  // closed on protocol error
      if (conn.reading_paused || conn.closing) return;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error. A partial frame left behind means the client
    // disconnected mid-frame — counted so operators can see torn clients.
    if (!conn.inbox.empty()) protocol_errors_total_->Increment();
    CloseConnection(conn.fd);
    return;
  }
}

bool Server::DrainInbox(Connection& conn) {
  const int fd = conn.fd;
  size_t consumed = 0;
  while (conn.inbox.size() - consumed >= kFrameHeaderSize) {
    std::string_view rest =
        std::string_view(conn.inbox).substr(consumed);
    auto header = DecodeFrameHeader(rest);
    if (!header.ok()) {
      ProtocolError(conn, 0, header.status().message());
      return false;
    }
    if (header->payload_len > options_.max_frame_bytes) {
      ProtocolError(conn, header->request_id,
                    "declared payload of " +
                        std::to_string(header->payload_len) +
                        " bytes exceeds the " +
                        std::to_string(options_.max_frame_bytes) +
                        "-byte frame cap");
      return false;
    }
    if (rest.size() - kFrameHeaderSize < header->payload_len) break;
    std::string_view payload = rest.substr(kFrameHeaderSize,
                                           header->payload_len);
    DispatchRequest(conn, *header, payload);
    // A hard write error inside the dispatch closes (and frees) the
    // connection; `conn` must not be touched again in that case.
    if (connections_.count(fd) == 0) return false;
    consumed += kFrameHeaderSize + header->payload_len;
    if (conn.closing) break;  // an unknown type closes after the error frame
  }
  if (consumed > 0) conn.inbox.erase(0, consumed);
  return true;
}

void Server::DispatchRequest(Connection& conn, const FrameHeader& header,
                             std::string_view payload) {
  if (!IsRequestType(header.type)) {
    ProtocolError(conn, header.request_id,
                  "unknown message type 0x" + [t = header.type] {
                    char buf[3];
                    std::snprintf(buf, sizeof(buf), "%02x", t);
                    return std::string(buf);
                  }());
    return;
  }
  const MessageType type = static_cast<MessageType>(header.type);
  requests_total_->Increment();
  ++conn.requests;
  ++requests_served_;
  Result<std::string> response = [&]() -> Result<std::string> {
    Span span("net:request", "net", request_wall_ms_);
    span.AddAttribute("type", MessageTypeName(type));
    span.AddAttribute("bytes", static_cast<uint64_t>(payload.size()));
    span.AddAttribute("peer", conn.peer);
    return HandleRequest(type, payload);
  }();
  if (response.ok()) {
    Enqueue(conn, EncodeFrame(ResponseTypeFor(type), header.request_id,
                              *response));
  } else {
    request_errors_total_->Increment();
    Enqueue(conn, EncodeFrame(MessageType::kError, header.request_id,
                              EncodeErrorPayload(response.status())));
  }
}

Result<std::string> Server::HandleRequest(MessageType type,
                                          std::string_view payload) {
  switch (type) {
    case MessageType::kPing:
      return std::string(payload);
    case MessageType::kGet:
      return store_->Get(std::string(payload));
    case MessageType::kPut:
      return store_->Put(payload);
    case MessageType::kVerify: {
      DASPOS_RETURN_IF_ERROR(store_->Verify(std::string(payload)));
      return std::string();
    }
    case MessageType::kPutBatch: {
      DASPOS_ASSIGN_OR_RETURN(std::vector<std::string> blobs,
                              DecodePutBatchRequest(payload));
      std::vector<std::string_view> views(blobs.begin(), blobs.end());
      DASPOS_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                              store_->PutBatch(views));
      return EncodePutBatchResponse(ids);
    }
    case MessageType::kLint:
      return HandleLint(payload);
    case MessageType::kChain:
      return HandleChain(payload);
    case MessageType::kStat:
      return HandleStat();
    default:
      return Status::Unimplemented("no handler for message type " +
                                   std::to_string(static_cast<int>(type)));
  }
}

Result<std::string> Server::HandleLint(std::string_view payload) {
  DASPOS_ASSIGN_OR_RETURN(std::vector<LintArtifact> artifacts,
                          DecodeLintRequest(payload));
  if (artifacts.empty()) {
    return Status::InvalidArgument("lint request carries no artifacts");
  }
  for (const LintArtifact& artifact : artifacts) {
    DASPOS_RETURN_IF_ERROR(ValidateArtifactName(artifact.name));
  }
  // Lints the submitted bytes in memory: no disk I/O on the loop thread,
  // and findings name the artifact as submitted.
  lint::LintReport report;
  for (const LintArtifact& artifact : artifacts) {
    report.Merge(lint::LintBytes(artifact.name, artifact.bytes));
  }
  return report.ToJson().Dump(2);
}

Result<std::string> Server::HandleChain(std::string_view payload) {
  DASPOS_ASSIGN_OR_RETURN(ChainRequest request, DecodeChainRequest(payload));
  if (request.events == 0 || request.events > kMaxChainEvents) {
    return Status::InvalidArgument(
        "chain event count must be in [1, " +
        std::to_string(kMaxChainEvents) + "], got " +
        std::to_string(request.events));
  }
  DASPOS_ASSIGN_OR_RETURN(Process process, ProcessFromName(request.process));
  Workflow workflow = StandardChainWorkflow(
      process, static_cast<size_t>(request.events), request.seed);
  WorkflowContext context;
  ExecuteOptions options;
  options.max_threads = 1;  // inline on the loop thread; serial by contract
  DASPOS_ASSIGN_OR_RETURN(
      WorkflowReport report,
      ExecuteChain(workflow, CalibrationSet(), &context, nullptr, options));
  return report.ToJson().Dump(2);
}

Result<std::string> Server::HandleStat() {
  DASPOS_ASSIGN_OR_RETURN(uint64_t total_bytes, store_->TotalBytes());
  Json stat = Json::Object();
  stat["backend"] = options_.backend_name;
  stat["total_bytes"] = total_bytes;
  stat["connections"] = static_cast<uint64_t>(connections_.size());
  stat["requests_served"] = requests_served_;
  stat["draining"] = draining_;
  stat["protocol_version"] = static_cast<uint64_t>(kProtocolVersion);
  stat["sha256_kernel"] = Sha256::KernelName();
  return stat.Dump(2);
}

void Server::Enqueue(Connection& conn, std::string frame) {
  conn.outbox_bytes += frame.size();
  conn.outbox.push_back(std::move(frame));
  WriteToConnection(conn);
}

void Server::WriteToConnection(Connection& conn) {
  const int fd = conn.fd;
  while (!conn.outbox.empty()) {
    const std::string& front = conn.outbox.front();
    ssize_t n = write(fd, front.data() + conn.outbox_head,
                      front.size() - conn.outbox_head);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(fd);
      return;
    }
    conn.bytes_out += static_cast<uint64_t>(n);
    bytes_written_total_->Increment(static_cast<uint64_t>(n));
    conn.outbox_head += static_cast<size_t>(n);
    conn.outbox_bytes -= static_cast<size_t>(n);
    if (conn.outbox_head == front.size()) {
      conn.outbox.pop_front();
      conn.outbox_head = 0;
    }
  }
  if (conn.outbox.empty() && (conn.closing || draining_)) {
    CloseConnection(fd);
    return;
  }
  UpdateInterest(conn);
}

void Server::UpdateInterest(Connection& conn) {
  // Backpressure transitions: pause reads at the cap, resume below half.
  if (!conn.reading_paused && conn.outbox_bytes > options_.max_outbox_bytes) {
    conn.reading_paused = true;
    backpressure_stalls_total_->Increment();
  } else if (conn.reading_paused &&
             conn.outbox_bytes <= options_.max_outbox_bytes / 2) {
    conn.reading_paused = false;
  }
  uint32_t events = 0;
  if (!conn.reading_paused && !conn.closing && !draining_) {
    events |= kEventRead;
  }
  if (!conn.outbox.empty()) events |= kEventWrite;
  (void)loop_.Modify(conn.fd, events);
}

void Server::ProtocolError(Connection& conn, uint64_t request_id,
                           const std::string& detail) {
  protocol_errors_total_->Increment();
  conn.closing = true;
  Enqueue(conn, EncodeFrame(MessageType::kError, request_id,
                            EncodeErrorPayloadWithCode(kWireProtocolError,
                                                       detail)));
}

void Server::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  {
    // The connection's life is not a stack scope, so its span is emitted at
    // close: near-zero duration, with the totals as attributes.
    Span span("net:conn", "net");
    span.AddAttribute("peer", conn.peer);
    span.AddAttribute("requests", conn.requests);
    span.AddAttribute("bytes_in", conn.bytes_in);
    span.AddAttribute("bytes_out", conn.bytes_out);
  }
  loop_.Remove(fd);
  close(fd);
  connections_.erase(it);
  active_connections_->Add(-1);
  CheckDrainComplete();
}

void Server::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drains_total_->Increment();
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Flush-or-close every connection. Complete requests were already
  // answered inline at read time; a half-read frame is abandoned.
  std::vector<int> to_close;
  for (auto& [fd, conn] : connections_) {
    if (conn->outbox.empty()) {
      to_close.push_back(fd);
    } else {
      UpdateInterest(*conn);  // drops the read bit, keeps the write bit
    }
  }
  for (int fd : to_close) CloseConnection(fd);
  CheckDrainComplete();
}

void Server::CheckDrainComplete() {
  if (draining_ && connections_.empty()) loop_.Stop();
}

}  // namespace net
}  // namespace daspos
