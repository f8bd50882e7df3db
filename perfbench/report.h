// Result bookkeeping shared by every workload: latency summaries under the
// tail-sample rule, failure accounting, the one-line JSON result, and the
// in-memory span recorder of the traced run.
#ifndef DASPOS_PERFBENCH_REPORT_H_
#define DASPOS_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/result.h"

namespace perfbench {

/// A reported tail percentile must have at least this many samples beyond
/// it, or it is an extrapolation, not a measurement.
inline constexpr size_t kMinTailSamples = 10;

/// Smallest sample count at which percentile `p` (in (0, 1)) has
/// kMinTailSamples samples beyond it under the nearest-rank rule.
size_t MinSamplesForTail(double p);

/// Median and one tail percentile of a latency sample, nearest-rank.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_p = 0.0;  ///< the percentile `tail` reports, e.g. 0.9
  size_t samples = 0;
  size_t beyond_tail = 0;  ///< samples strictly ranked past `tail`
};

/// Summarizes `samples` (reordered in place). Fails with OutOfRange when
/// fewer than kMinTailSamples samples lie beyond the tail percentile.
daspos::Result<LatencySummary> SummarizeLatency(std::vector<double>* samples,
                                                double tail_p);

/// Fixed-capacity uniform sample of a latency stream (Algorithm R), so a
/// run's memory does not grow with its throughput. Percentiles are taken
/// over the retained samples; seen() is the number of operations timed.
class LatencyReservoir {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 18;

  explicit LatencyReservoir(uint64_t seed,
                            size_t capacity = kDefaultCapacity);

  void Add(double value);
  std::vector<double>* samples() { return &samples_; }
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t rng_state_;
  uint64_t seen_ = 0;
  std::vector<double> samples_;
};

/// A measured loop cut into equal slices of its measured time. Throughput
/// is the median of the slices' rates, peak RSS the median of the slices'
/// peaks, and each latency percentile the median of the slices'
/// percentiles, so a disturbance covering part of a run moves the result by
/// less than its share of the run. Memory is fixed: each latency slice
/// keeps a LatencyReservoir.
class SlicedRun {
 public:
  /// Starts the run's first slice (and its peak-RSS window) now.
  SlicedRun(double seconds, size_t rate_slices, size_t latency_slices,
            uint64_t seed);

  /// Records one operation that completed `elapsed_ns` into the measured
  /// time, having done `work` units (events, Gets, blobs).
  void Record(int64_t elapsed_ns, double work, double latency_us);
  /// True until `seconds` have been measured and the last latency slice
  /// has enough samples for percentile `tail_p`.
  bool NeedsMore(int64_t elapsed_ns, double tail_p) const;

  /// Median over slices of work per second.
  double Throughput() const;
  /// Median over rate slices of the peak RSS (VmHWM) within each slice,
  /// in MiB. Call once, after the loop.
  double PeakRssMib();
  /// Median over latency slices of each slice's p50 and tail. A slice with
  /// too few samples for the tail-sample rule is merged into its neighbour;
  /// fails only when the whole run has too few. `samples` is the total
  /// retained, `beyond_tail` the smallest count beyond the tail in any
  /// slice.
  daspos::Result<LatencySummary> Latency(double tail_p);
  uint64_t operations() const { return operations_; }

 private:
  size_t SliceOf(int64_t elapsed_ns, size_t slices) const;

  int64_t slice_ns_total_;
  std::vector<double> work_;
  std::vector<int64_t> last_ns_;  ///< elapsed time of each slice's last op
  size_t rss_slice_ = 0;           ///< rate slice whose peak is being taken
  std::vector<double> peak_rss_mib_;
  std::vector<LatencyReservoir> latency_;
  uint64_t operations_ = 0;
};

/// Median of `values` (mean of the middle two for an even count).
double Median(std::vector<double> values);

/// Operations attempted and failed in one run. Any failure, whatever its
/// kind, makes the run incorrect and its exit status non-zero.
class Tally {
 public:
  /// Counts one operation and whether its output checked out.
  void Record(bool ok, std::string_view what = "output mismatch");
  /// Counts a failure that is not an operation of its own, such as a
  /// counter cross-check; it still fails the run.
  void Fail(std::string_view what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }
  int ExitCode() const { return correct() ? 0 : 1; }
  /// The first failure's description (empty while none happened).
  const std::string& first_failure() const { return first_failure_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_failure_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The last line of the benchmark's output: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics` ({name: {value, unit}}).
std::string ResultLine(const Tally& tally, const std::vector<Metric>& metrics);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans of the traced run, kept in memory and written out at exit. Per-name
/// totals cover every span; only the first `per_name_capacity` spans of
/// each name are retained for the trace file, so a long run cannot exhaust
/// memory and every layer still appears in it. Not thread-safe: each
/// recorder is used by one thread at a time.
class SpanRecorder {
 public:
  static constexpr int64_t kNoParent = -1;

  explicit SpanRecorder(size_t per_name_capacity = 2048);

  /// Records a finished span; returns its id (usable as a parent).
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t parent = kNoParent, uint64_t request_id = 0);
  /// Opens a span to be closed by End; children may name it as parent.
  int64_t Begin(const char* name, int64_t parent = kNoParent);
  void End(int64_t id);

  /// Total duration of every span recorded under `name`.
  double TotalNs(const std::string& name) const;
  size_t retained() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Writes the retained spans as Chrome trace_event JSON.
  daspos::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    int64_t id;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request_id;
  };
  struct Total {
    double ns = 0.0;
    uint64_t count = 0;
  };

  void Store(const Span& span);

  size_t per_name_capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  int64_t next_id_ = 0;
  std::map<int64_t, Span> open_;  ///< begun, not yet ended
  std::map<std::string, Total> totals_;
};

/// Times `fn` as one span of `recorder` under `parent`.
template <typename Fn>
auto Traced(SpanRecorder* recorder, const char* name, int64_t parent, Fn&& fn)
    -> decltype(fn()) {
  const int64_t start = NowNs();
  struct Closer {
    SpanRecorder* recorder;
    const char* name;
    int64_t start;
    int64_t parent;
    ~Closer() { recorder->Record(name, start, NowNs(), parent); }
  } closer{recorder, name, start, parent};
  return fn();
}

}  // namespace perfbench

#endif  // DASPOS_PERFBENCH_REPORT_H_
