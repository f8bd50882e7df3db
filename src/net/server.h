// The `dasposd` server core: a single-threaded reactor serving the archive
// protocol (docs/PROTOCOL.md) to many concurrent clients. Requests are
// handled inline on the loop thread (run-to-completion, the Redis model):
// no handler ever blocks on another client, no lock is shared with another
// thread, and the reactor is TSan-clean by construction. The store behind
// it is whatever backend spec the operator opened (`file:`/`pack:`/
// `pack+z:` via OpenObjectStore).
//
// Flow control: each connection owns a bounded outbox. When queued response
// bytes exceed ServerOptions::max_outbox_bytes the server stops reading
// that connection (drops POLLIN) until the kernel drains the queue below
// half the cap — a slow reader throttles itself, never the daemon, and
// memory per connection stays bounded no matter how hard it pipelines.
//
// Graceful drain (SIGTERM): writing one byte to drain_fd() — safe from a
// signal handler — makes the loop (1) close the listen socket, (2) finish
// any complete requests already buffered, (3) flush every outbox, then
// exit Run() with OK. Half-read request frames are abandoned (their bytes
// were never acknowledged); clients see a clean close after their answered
// requests.
#ifndef DASPOS_NET_SERVER_H_
#define DASPOS_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "net/protocol.h"
#include "net/reactor.h"
#include "support/result.h"

namespace daspos {

class Counter;
class Gauge;
class Histogram;
class ObjectStore;

namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read the real one from port() after Start.
  uint16_t port = 0;
  /// Frames whose declared payload exceeds this are protocol errors.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Backpressure cap on queued response bytes per connection.
  size_t max_outbox_bytes = 8u << 20;
  /// Accepted connections beyond this are closed immediately.
  size_t max_connections = 1024;
  /// Human-readable backend label for STAT responses ("pack", "file", ...).
  std::string backend_name = "unknown";
};

class Server {
 public:
  /// The server borrows the store (not owned). It must outlive Run().
  Server(ObjectStore* store, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens + registers with the loop. After OK, port() is real.
  Status Start();
  /// Runs the reactor until a drain completes (or Stop). Loop thread.
  Status Run();

  uint16_t port() const { return port_; }
  /// Writing one byte here (any thread; async-signal-safe) begins a
  /// graceful drain.
  int drain_fd() const { return loop_.wakeup_fd(); }
  /// Thread-safe drain trigger for tests and embedders.
  void TriggerDrain();

  /// Requests served since Start (loop thread only; tests read it after
  /// Run returns).
  uint64_t requests_served() const { return requests_served_; }

 private:
  struct Connection {
    int fd = -1;
    std::string peer;     ///< "ip:port" for logs
    std::string inbox;    ///< bytes read, not yet framed
    std::deque<std::string> outbox;
    size_t outbox_head = 0;   ///< bytes of outbox.front() already written
    size_t outbox_bytes = 0;  ///< total queued, for backpressure
    bool reading_paused = false;
    bool closing = false;  ///< close once the outbox is flushed
    uint64_t requests = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };

  void OnAcceptable();
  void OnConnectionEvent(int fd, uint32_t revents);
  void ReadFromConnection(Connection& conn);
  void WriteToConnection(Connection& conn);
  /// Frames and dispatches everything complete in the inbox. Returns false
  /// if the connection was closed (protocol error).
  bool DrainInbox(Connection& conn);
  void DispatchRequest(Connection& conn, const FrameHeader& header,
                       std::string_view payload);
  /// Handles one request; the returned payload rides a `type|0x80` frame.
  Result<std::string> HandleRequest(MessageType type, std::string_view payload);
  Result<std::string> HandleLint(std::string_view payload);
  Result<std::string> HandleChain(std::string_view payload);
  Result<std::string> HandleStat();

  void Enqueue(Connection& conn, std::string frame);
  void UpdateInterest(Connection& conn);
  /// Counts a malformed frame, sends a best-effort ERROR, and closes after
  /// the flush. The daemon itself always stays up.
  void ProtocolError(Connection& conn, uint64_t request_id,
                     const std::string& detail);
  void CloseConnection(int fd);
  void BeginDrain();
  void CheckDrainComplete();

  ObjectStore* store_;
  ServerOptions options_;
  EventLoop loop_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool draining_ = false;
  uint64_t requests_served_ = 0;
  std::map<int, std::unique_ptr<Connection>> connections_;

  Counter* connections_total_;
  Gauge* active_connections_;
  Counter* requests_total_;
  Counter* request_errors_total_;
  Counter* protocol_errors_total_;
  Counter* bytes_read_total_;
  Counter* bytes_written_total_;
  Counter* backpressure_stalls_total_;
  Counter* drains_total_;
  Histogram* request_wall_ms_;
};

}  // namespace net
}  // namespace daspos

#endif  // DASPOS_NET_SERVER_H_
