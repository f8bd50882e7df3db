// perfbench: one workload, one run, one JSON result line.
//
//   perfbench --workload chain|svc_get|svc_put --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--revision R] [--trace-out FILE]
//
// DIR must not exist yet; stores are created under it and it is removed
// when the run ends.
// --trace 0 prints the end-to-end metrics (setup_s, throughput_per_s,
// latency_p50_us, latency_tail_us, peak_rss_mib); --trace 1 prints the
// per-layer metrics of every path and the tracing overhead of the chosen
// workload, and writes the spans to --trace-out. Human-readable lines come
// first; the last line is the JSON result. Exit status is non-zero when any
// operation failed its check or the run could not complete.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "host.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

struct Args {
  std::string workload;
  perfbench::RunOptions run;
  bool trace = false;
  std::string revision = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !flags.count("--workload") || !flags.count("--seed") ||
      !flags.count("--seconds") || !flags.count("--work-dir")) {
    return false;
  }
  args->workload = flags["--workload"];
  char* end = nullptr;
  args->run.seed = std::strtoull(flags["--seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args->run.seconds = std::strtod(flags["--seconds"].c_str(), &end);
  if (*end != '\0' || !(args->run.seconds > 0.0)) return false;
  args->run.work_dir = flags["--work-dir"];
  if (flags.count("--trace")) {
    if (flags["--trace"] != "0" && flags["--trace"] != "1") return false;
    args->trace = flags["--trace"] == "1";
  }
  if (flags.count("--revision")) args->revision = flags["--revision"];
  if (flags.count("--trace-out")) args->trace_out = flags["--trace-out"];
  return args->workload == "chain" || args->workload == "svc_get" ||
         args->workload == "svc_put";
}

daspos::Result<perfbench::TimedResult> RunTimed(const Args& args,
                                                perfbench::Tally* tally) {
  if (args.workload == "chain") return perfbench::RunChainTimed(args.run, tally);
  if (args.workload == "svc_get") return perfbench::RunGetTimed(args.run, tally);
  return perfbench::RunPutTimed(args.run, tally);
}

// Per-layer metrics of every path. The chosen workload first runs as in a
// timed run; the drop from its throughput to that of its traced loop is
// the tracing overhead. Each traced loop runs for half the run length.
daspos::Status RunTraced(const Args& args, perfbench::Tally* tally,
                         perfbench::SpanRecorder* spans,
                         std::vector<Metric>* metrics) {
  DASPOS_ASSIGN_OR_RETURN(perfbench::TimedResult untraced,
                          RunTimed(args, tally));
  perfbench::RunOptions section = args.run;
  section.seconds = args.run.seconds / 2.0;
  DASPOS_ASSIGN_OR_RETURN(double chain,
                          perfbench::TraceChain(section, tally, spans, metrics));
  DASPOS_ASSIGN_OR_RETURN(double get,
                          perfbench::TraceGet(section, tally, spans, metrics));
  double traced = args.workload == "chain" ? chain : get;
  if (args.workload == "svc_put") {
    DASPOS_ASSIGN_OR_RETURN(traced, perfbench::TracePut(section, tally, spans));
  }
  DASPOS_RETURN_IF_ERROR(
      perfbench::TraceServiceLayers(section, tally, spans, metrics));
  metrics->push_back({"trace.overhead_share",
                      1.0 - traced / untraced.throughput_per_s, "share"});
  std::printf("tracing overhead on %s: untraced %.6g/s, traced %.6g/s\n",
              args.workload.c_str(), untraced.throughput_per_s, traced);
  return daspos::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its default: otherwise it rises the first
  // time a large block is freed, at a timing-dependent moment, and peak RSS
  // of identical runs differs by tens of percent.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload chain|svc_get|svc_put --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--revision R] "
                 "[--trace-out FILE]\n");
    return 2;
  }
  // The work dir is removed after the run, so it must be the run's own.
  std::error_code ec;
  if (std::filesystem::exists(args.run.work_dir) ||
      !std::filesystem::create_directories(args.run.work_dir, ec)) {
    std::fprintf(stderr, "perfbench: --work-dir %s must be a new directory\n",
                 args.run.work_dir.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed), args.run.seconds,
              args.trace ? 1 : 0);
  std::printf("host %s\n",
              perfbench::HostFingerprint(args.revision, args.run.work_dir)
                  .c_str());

  perfbench::Tally tally;
  std::vector<Metric> metrics;
  daspos::Status status;
  if (!args.trace) {
    auto result = RunTimed(args, &tally);
    status = result.status();
    if (result.ok()) {
      for (const std::string& note : result->notes) {
        std::printf("%s\n", note.c_str());
      }
      const perfbench::LatencySummary& latency = result->latency_us;
      metrics = {
          {"setup_s", result->setup_s, "s"},
          {"throughput_per_s", result->throughput_per_s, "1/s"},
          {"latency_p50_us", latency.p50, "us"},
          {"latency_tail_us", latency.tail, "us"},
          {"peak_rss_mib", result->peak_rss_mib, "MiB"},
      };
      std::printf("setup_s           %.6g s (median of %d set-ups)\n",
                  result->setup_s, perfbench::kSetupRepetitions);
      std::printf("throughput_per_s  %.6g 1/s\n", result->throughput_per_s);
      std::printf("latency_p50_us    %.6g us (n=%zu)\n", latency.p50,
                  latency.samples);
      std::printf("latency_tail_us   %.6g us (p%g, n=%zu, %zu beyond)\n",
                  latency.tail, latency.tail_p * 100.0, latency.samples,
                  latency.beyond_tail);
      std::printf("peak_rss_mib      %.6g MiB (median over slices of VmHWM%s)\n",
                  result->peak_rss_mib,
                  perfbench::ResetPeakRss() ? ", reset per slice"
                                            : "; reset refused, whole run");
    }
  } else {
    perfbench::SpanRecorder spans;
    status = RunTraced(args, &tally, &spans, &metrics);
    for (const Metric& metric : metrics) {
      std::printf("%-36s %.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    if (!args.trace_out.empty()) {
      daspos::Status written = spans.WriteChromeTrace(args.trace_out);
      std::printf("trace: %zu spans written to %s (%llu more counted only)\n",
                  spans.retained(), args.trace_out.c_str(),
                  static_cast<unsigned long long>(spans.dropped()));
      if (status.ok()) status = written;
    }
  }
  if (!status.ok()) {
    tally.Fail(status.ToString());
    metrics.clear();
  }
  std::printf("operations attempted=%llu failed=%llu%s%s\n",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              tally.failed() ? "; first failure: " : "",
              tally.first_failure().c_str());
  std::printf("%s\n", perfbench::ResultLine(tally, metrics).c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(args.run.work_dir, ec);
  return tally.ExitCode();
}
