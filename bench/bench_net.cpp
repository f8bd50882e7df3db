// E10 — dasposd service throughput: the archive protocol served by the
// single-threaded reactor to 1/4/16 concurrent blocking clients, over a
// packfile backend. Two workloads: small Get (read-mostly, the hot
// retrieval path) and PutBatch (bulk ingest). Each reports requests/s and
// p99 per-request latency; every Get response is byte-compared against
// the original payload, so a correctness break fails the run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "archive/pack_store.h"
#include "bench_json.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "support/metrics_registry.h"
#include "support/strings.h"
#include "support/table.h"

using namespace daspos;

namespace {

/// Deterministic pseudo-random payload; incompressible enough that wire
/// cost is honest and unique per seed so PutBatch blobs do not dedupe.
std::string RandomBlob(size_t bytes, uint64_t seed) {
  std::string out;
  out.resize(bytes);
  uint64_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < bytes; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<char>(x & 0xff);
  }
  return out;
}

// Micro-bench: the frame codec alone (encode a Get request + decode its
// header), so protocol overhead is visible separately from socket I/O.
// Skipped by bench.sh (--benchmark_filter='^$'); run manually if needed.
void BM_FrameCodec(benchmark::State& state) {
  std::string id(64, 'a');
  for (auto _ : state) {
    std::string frame = net::EncodeFrame(net::MessageType::kGet, 7, id);
    auto header = net::DecodeFrameHeader(
        std::string_view(frame.data(), net::kFrameHeaderSize));
    benchmark::DoNotOptimize(header);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(net::kFrameHeaderSize + id.size()));
}
BENCHMARK(BM_FrameCodec);

double Percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  size_t index =
      static_cast<size_t>(p * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(index, sorted_ms.size() - 1)];
}

struct WorkloadResult {
  double requests_per_s = 0.0;
  double p99_ms = 0.0;
  uint64_t requests = 0;
  bool ok = true;
};

/// Fans `clients` threads out against 127.0.0.1:`port`, each driving its
/// own connection through `per_client(thread_index, client, &latencies)`.
/// Wall time covers connect through last join — the elapsed time an
/// operator would see, not per-request bookkeeping — so requests/s
/// reflects the server multiplexing all N connections at once.
WorkloadResult RunClients(
    uint16_t port, int clients,
    const std::function<bool(int, net::Client&, std::vector<double>*)>&
        per_client) {
  WorkloadResult result;
  std::vector<double> all_ms;
  std::mutex merge_mutex;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> local_ms;
      auto client =
          net::Client::Connect("127.0.0.1:" + std::to_string(port));
      bool ok = client.ok() && per_client(t, *client, &local_ms);
      std::lock_guard<std::mutex> lock(merge_mutex);
      if (!ok) result.ok = false;
      all_ms.insert(all_ms.end(), local_ms.begin(), local_ms.end());
    });
  }
  for (auto& thread : threads) thread.join();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  std::sort(all_ms.begin(), all_ms.end());
  result.requests = all_ms.size();
  result.requests_per_s =
      wall_ms > 0.0 ? static_cast<double>(all_ms.size()) / (wall_ms / 1000.0)
                    : 0.0;
  result.p99_ms = Percentile(all_ms, 0.99);
  return result;
}

/// Times one call and appends its latency.
template <typename Fn>
auto Timed(std::vector<double>* latencies_ms, Fn&& fn)
    -> decltype(fn()) {
  auto start = std::chrono::steady_clock::now();
  auto result = fn();
  latencies_ms->push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  return result;
}

// Seeds for PutBatch payloads: globally unique so no blob ever dedupes
// against an earlier run's objects — every batch pays the full hash+write.
std::atomic<uint64_t> g_put_seed{1u << 20};

bool RunServiceBench() {
  bool ok = true;
  int blob_kb = daspos_bench::EnvInt("DASPOS_BENCH_NET_BLOB_KB", 4);
  int objects = daspos_bench::EnvInt("DASPOS_BENCH_NET_OBJECTS", 64);
  int get_requests =
      daspos_bench::EnvInt("DASPOS_BENCH_NET_REQUESTS", 2000);
  int batches = daspos_bench::EnvInt("DASPOS_BENCH_NET_BATCHES", 32);
  int batch_blobs =
      daspos_bench::EnvInt("DASPOS_BENCH_NET_BATCH_BLOBS", 16);
  size_t blob_bytes = static_cast<size_t>(blob_kb) * 1024;

  std::string root = (std::filesystem::temp_directory_path() /
                      "daspos_bench_net_store")
                         .string();
  std::filesystem::remove_all(root);
  PackObjectStore store(root);

  // Pre-load the Get working set directly (no network) and seal it so the
  // serve path reads sealed mmap segments, the steady-state layout.
  std::vector<std::string> payloads;
  payloads.reserve(static_cast<size_t>(objects));
  for (int i = 0; i < objects; ++i) {
    payloads.push_back(
        RandomBlob(blob_bytes, 9000 + static_cast<uint64_t>(i)));
  }
  std::vector<std::string_view> views(payloads.begin(), payloads.end());
  auto ids = store.PutBatch(views);
  if (!ids.ok()) {
    std::printf("bench_net: preload failed: %s\n",
                ids.status().ToString().c_str());
    return false;
  }
  (void)store.Flush();

  net::ServerOptions options;
  options.backend_name = "pack";
  net::Server server(&store, options);
  Status start_status = server.Start();
  if (!start_status.ok()) {
    std::printf("bench_net: server start failed: %s\n",
                start_status.ToString().c_str());
    return false;
  }
  uint16_t port = server.port();
  Status run_status;
  std::thread loop_thread([&] { run_status = server.Run(); });

  std::vector<int> client_counts = {1, 4, 16};

  TextTable get_table;
  get_table.SetTitle("Small Get (" + std::to_string(objects) +
                     " objects x " + FormatBytes(blob_bytes) +
                     ", pack backend, " + std::to_string(get_requests) +
                     " requests/client, byte-verified):");
  get_table.SetHeader({"clients", "requests", "requests/s", "p99 ms"});
  for (int clients : client_counts) {
    WorkloadResult result = RunClients(
        port, clients,
        [&](int t, net::Client& client, std::vector<double>* lat) {
          for (int r = 0; r < get_requests; ++r) {
            size_t index = static_cast<size_t>(t * 31 + r) %
                           ids->size();
            auto bytes = Timed(
                lat, [&] { return client.Get((*ids)[index]); });
            if (!bytes.ok() || *bytes != payloads[index]) return false;
          }
          return true;
        });
    ok = ok && result.ok;
    get_table.AddRow({std::to_string(clients),
                      std::to_string(result.requests),
                      FormatDouble(result.requests_per_s, 6),
                      FormatDouble(result.p99_ms, 4)});
    daspos_bench::AppendBenchJson("bench_net", "small_get_requests_per_s",
                                  result.requests_per_s, clients);
    daspos_bench::AppendBenchJson("bench_net", "small_get_p99_ms",
                                  result.p99_ms, clients);
  }
  std::printf("%s\n", get_table.Render().c_str());

  TextTable put_table;
  put_table.SetTitle("\nPutBatch (" + std::to_string(batch_blobs) +
                     " unique blobs x " + FormatBytes(blob_bytes) +
                     " per batch, " + std::to_string(batches) +
                     " batches/client):");
  put_table.SetHeader({"clients", "requests", "requests/s", "p99 ms"});
  for (int clients : client_counts) {
    WorkloadResult result = RunClients(
        port, clients,
        [&](int /*t*/, net::Client& client, std::vector<double>* lat) {
          for (int b = 0; b < batches; ++b) {
            std::vector<std::string> blobs;
            blobs.reserve(static_cast<size_t>(batch_blobs));
            for (int i = 0; i < batch_blobs; ++i) {
              blobs.push_back(RandomBlob(
                  blob_bytes, g_put_seed.fetch_add(1)));
            }
            auto batch_ids =
                Timed(lat, [&] { return client.PutBatch(blobs); });
            if (!batch_ids.ok() ||
                batch_ids->size() != blobs.size()) {
              return false;
            }
          }
          return true;
        });
    ok = ok && result.ok;
    put_table.AddRow({std::to_string(clients),
                      std::to_string(result.requests),
                      FormatDouble(result.requests_per_s, 6),
                      FormatDouble(result.p99_ms, 4)});
    daspos_bench::AppendBenchJson("bench_net", "put_batch_requests_per_s",
                                  result.requests_per_s, clients);
    daspos_bench::AppendBenchJson("bench_net", "put_batch_p99_ms",
                                  result.p99_ms, clients);
  }
  std::printf("%s\n", put_table.Render().c_str());

  server.TriggerDrain();
  loop_thread.join();
  if (!run_status.ok()) {
    std::printf("bench_net: server run failed: %s\n",
                run_status.ToString().c_str());
    ok = false;
  }
  std::printf("service identity: %s (%llu requests served)\n",
              ok ? "all responses byte-identical"
                 : "MISMATCH (see above)",
              static_cast<unsigned long long>(server.requests_served()));
  std::filesystem::remove_all(root);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== E10: dasposd service throughput ====\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RegisterStandardMetrics();
  bool ok = RunServiceBench();
  return ok ? 0 : 1;
}
