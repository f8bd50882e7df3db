// dasposd — the preservation archive as a network service.
//
//   dasposd <archive-store> [--host=ADDR] [--port=N] [--port-file=FILE]
//           [--max-frame-mb=N] [--outbox-kb=N] [--max-connections=N]
//
// Serves the wire protocol in docs/PROTOCOL.md (Get/Put/Verify/PutBatch,
// remote lint, chain submission, status) against any backend spec
// (`file:DIR`, `pack:DIR`, `pack+z:DIR`, or a bare sniffed DIR) to many
// concurrent clients from a single-threaded reactor.
//
// --port=0 (the default) binds an ephemeral port; the real one is printed
// on the "listening on HOST:PORT" line and, with --port-file, written to
// FILE so scripts can coordinate without parsing stdout.
//
// SIGTERM/SIGINT begin a graceful drain: the listener closes, buffered
// requests finish, every response flushes, then the process exits 0. See
// docs/OPERATIONS.md for the runbook.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "archive/backend.h"
#include "net/server.h"
#include "support/flags.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "dasposd: %s\n", message.c_str());
  return 1;
}

/// The daemon's command line. The numbers stay in the flags' units, with
/// ServerOptions' defaults, until main() converts them into `server`.
struct DaemonFlags {
  daspos::net::ServerOptions server;
  uint64_t port = server.port;
  std::string port_file;
  uint64_t max_frame_mb = server.max_frame_bytes >> 20;
  uint64_t outbox_kb = server.max_outbox_bytes >> 10;
  uint64_t max_connections = server.max_connections;
};

std::vector<daspos::Flag> Flags(DaemonFlags* f) {
  using daspos::Flag;
  return {Flag::String("host", &f->server.host, "ADDR"),
          Flag::U64("port", &f->port, 0, 65535),
          Flag::Path("port-file", &f->port_file, "FILE"),
          Flag::U64("max-frame-mb", &f->max_frame_mb, 1, 4096),
          Flag::U64("outbox-kb", &f->outbox_kb, 1, 4u << 20),
          Flag::U64("max-connections", &f->max_connections, 1, 65536)};
}

int Usage() {
  DaemonFlags unused;
  std::string text = "usage:\n";
  text += daspos::UsageLine("  dasposd <archive-store>", Flags(&unused), 10);
  text +=
      "stores : file:DIR (loose sharded), pack:DIR (packfiles),\n"
      "         pack+z:DIR (compressed packfiles); a bare DIR sniffs the "
      "layout\n"
      "drain  : SIGTERM/SIGINT finishes in-flight requests, flushes, exits "
      "0\n";
  std::fputs(text.c_str(), stderr);
  return 1;
}

// The reactor's wakeup pipe, published for the signal handler. write() is
// async-signal-safe; everything else happens on the loop thread.
volatile int g_drain_fd = -1;

void OnSignal(int) {
  const int fd = g_drain_fd;
  if (fd >= 0) {
    const char byte = 'D';
    ssize_t ignored = write(fd, &byte, 1);
    (void)ignored;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();

  DaemonFlags flags;
  auto positionals =
      daspos::ParseFlags("dasposd", Flags(&flags),
                         std::vector<std::string>(argv + 1, argv + argc));
  if (!positionals.ok()) return Fail(positionals.status().message());
  if (positionals->size() != 1) return Usage();
  const std::string& spec_text = (*positionals)[0];
  daspos::net::ServerOptions options = flags.server;
  options.port = static_cast<uint16_t>(flags.port);
  options.max_frame_bytes = static_cast<size_t>(flags.max_frame_mb) << 20;
  options.max_outbox_bytes = static_cast<size_t>(flags.outbox_kb) << 10;
  options.max_connections = static_cast<size_t>(flags.max_connections);

  auto spec = daspos::ParseStoreSpec(spec_text);
  if (!spec.ok()) return Fail(spec.status().ToString());
  options.backend_name = daspos::BackendName(*spec);
  std::unique_ptr<daspos::ObjectStore> store =
      daspos::OpenObjectStore(*spec);

  daspos::RegisterStandardMetrics();
  daspos::net::Server server(store.get(), options);
  if (auto status = server.Start(); !status.ok()) {
    return Fail(status.ToString());
  }

  g_drain_fd = server.drain_fd();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);  // write errors surface as EPIPE, not death

  if (!flags.port_file.empty()) {
    std::FILE* f = std::fopen(flags.port_file.c_str(), "w");
    if (f == nullptr) {
      return Fail("cannot write --port-file " + flags.port_file);
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
    std::fclose(f);
  }
  std::printf("dasposd: sha256 kernel %s\n", daspos::Sha256::KernelName());
  std::printf("dasposd: serving %s (%s) listening on %s:%u\n",
              spec_text.c_str(), options.backend_name.c_str(),
              options.host.c_str(), static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  if (auto status = server.Run(); !status.ok()) {
    return Fail(status.ToString());
  }
  std::printf("dasposd: drained after %llu request(s), exiting\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}
