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

#include "archive/backend.h"
#include "net/server.h"
#include "support/metrics_registry.h"
#include "support/sha256.h"
#include "support/strings.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "dasposd: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dasposd <archive-store> [--host=ADDR] [--port=N] "
               "[--port-file=FILE]\n"
               "          [--max-frame-mb=N] [--outbox-kb=N] "
               "[--max-connections=N]\n"
               "stores : file:DIR (loose sharded), pack:DIR (packfiles),\n"
               "         pack+z:DIR (compressed packfiles); a bare DIR "
               "sniffs the layout\n"
               "drain  : SIGTERM/SIGINT finishes in-flight requests, "
               "flushes, exits 0\n");
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

  std::string spec_text = argv[1];
  daspos::net::ServerOptions options;
  std::string port_file;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--host=", 0) == 0) {
      options.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      auto port = daspos::ParseU64(arg.substr(7));
      if (!port.ok() || *port > 65535) {
        return Fail("bad --port value '" + arg.substr(7) + "'");
      }
      options.port = static_cast<uint16_t>(*port);
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = arg.substr(12);
      if (port_file.empty()) return Fail("--port-file needs a path");
    } else if (arg.rfind("--max-frame-mb=", 0) == 0) {
      auto mb = daspos::ParseU64(arg.substr(15));
      if (!mb.ok() || *mb == 0 || *mb > 4096) {
        return Fail("bad --max-frame-mb value '" + arg.substr(15) + "'");
      }
      options.max_frame_bytes = static_cast<size_t>(*mb) << 20;
    } else if (arg.rfind("--outbox-kb=", 0) == 0) {
      auto kb = daspos::ParseU64(arg.substr(12));
      if (!kb.ok() || *kb == 0 || *kb > (4u << 20)) {
        return Fail("bad --outbox-kb value '" + arg.substr(12) + "'");
      }
      options.max_outbox_bytes = static_cast<size_t>(*kb) << 10;
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      auto n = daspos::ParseU64(arg.substr(18));
      if (!n.ok() || *n == 0 || *n > 65536) {
        return Fail("bad --max-connections value '" + arg.substr(18) + "'");
      }
      options.max_connections = static_cast<size_t>(*n);
    } else {
      return Fail("unknown flag '" + arg + "'");
    }
  }

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

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) return Fail("cannot write --port-file " + port_file);
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
