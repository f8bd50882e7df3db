// The three workloads. Each runs in-process through the library's public
// API and checks every output it gets; a mismatch is a failed operation in
// the caller's Tally.
//
//   chain    StandardChainWorkflow(z_ll, 2000 events).Execute on 2 threads,
//            one caller back to back (the §3.2 re-execution path).
//   svc_get  net::Server over a sealed PackObjectStore of 4096 x 4 KiB
//            objects; one generator thread keeps 8 Gets in flight on each
//            of 2 connections (the read path).
//   svc_put  the same server over a fresh PackObjectStore; one connection
//            sends 16-blob PutBatch requests back to back, 12 new blobs and
//            4 re-puts each (the write path).
//
// A timed run sets the workload up kSetupRepetitions times (setup_s is the
// median), then measures one closed loop. A traced run measures each
// workload's loop with spans around the calls into every module, plus
// short loops over single-layer calls; see README.md.
#ifndef DASPOS_PERFBENCH_WORKLOADS_H_
#define DASPOS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured loop. A loop also runs until its tail
  /// percentile has enough samples beyond it.
  double seconds = 10.0;
  /// Private working directory for stores; the caller removes it after
  /// the run.
  std::string work_dir;
};

/// Set-ups per timed run; setup_s is their median.
inline constexpr int kSetupRepetitions = 5;

/// A finished timed run: the end-to-end metrics plus printable notes.
struct TimedResult {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double peak_rss_mib = 0.0;
  LatencySummary latency_us;
  std::vector<std::string> notes;
};

// Per-path pieces, defined in chain.cc and service.cc.
daspos::Result<TimedResult> RunChainTimed(const RunOptions& options,
                                          Tally* tally);
daspos::Result<TimedResult> RunGetTimed(const RunOptions& options,
                                        Tally* tally);
daspos::Result<TimedResult> RunPutTimed(const RunOptions& options,
                                        Tally* tally);

/// Traced loops. Each returns the traced loop's throughput (for the
/// overhead comparison); TraceChain and TraceGet also append their
/// per-layer metrics. svc_put's layers come from TraceServiceLayers.
daspos::Result<double> TraceChain(const RunOptions& options, Tally* tally,
                                  SpanRecorder* spans,
                                  std::vector<Metric>* metrics);
daspos::Result<double> TraceGet(const RunOptions& options, Tally* tally,
                                SpanRecorder* spans,
                                std::vector<Metric>* metrics);
daspos::Result<double> TracePut(const RunOptions& options, Tally* tally,
                                SpanRecorder* spans);
/// Single-layer loops: frame codecs, pack Get/PutBatch in-process,
/// SHA-256 and Checksum64.
daspos::Status TraceServiceLayers(const RunOptions& options, Tally* tally,
                                  SpanRecorder* spans,
                                  std::vector<Metric>* metrics);

}  // namespace perfbench

#endif  // DASPOS_PERFBENCH_WORKLOADS_H_
