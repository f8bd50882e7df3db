#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "host.h"
#include "serialize/json.h"
#include "support/io.h"

namespace perfbench {
namespace {

// 1-based nearest rank of percentile p among n samples. The epsilon keeps
// an exact product such as 0.9 * 100 from rounding up a rank.
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

double ValueAtRank(std::vector<double>* samples, size_t rank) {
  auto nth = samples->begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples->begin(), nth, samples->end());
  return *nth;
}

}  // namespace

size_t MinSamplesForTail(double p) {
  size_t n = kMinTailSamples;
  while (n - NearestRank(p, n) < kMinTailSamples) ++n;
  return n;
}

daspos::Result<LatencySummary> SummarizeLatency(std::vector<double>* samples,
                                                double tail_p) {
  const size_t n = samples->size();
  if (n < MinSamplesForTail(tail_p)) {
    std::string message = "tail percentile needs ";
    message += std::to_string(MinSamplesForTail(tail_p)) + " samples, have " +
               std::to_string(n);
    return daspos::Status::OutOfRange(message);
  }
  LatencySummary summary;
  summary.samples = n;
  summary.tail_p = tail_p;
  const size_t tail_rank = NearestRank(tail_p, n);
  summary.beyond_tail = n - tail_rank;
  summary.tail = ValueAtRank(samples, tail_rank);
  summary.p50 = ValueAtRank(samples, NearestRank(0.5, n));
  return summary;
}

LatencyReservoir::LatencyReservoir(uint64_t seed, size_t capacity)
    : capacity_(capacity), rng_state_(seed) {
  samples_.reserve(capacity_);
}

void LatencyReservoir::Add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // splitmix64 step; the slot is uniform in [0, seen_).
  uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  const uint64_t slot = z % seen_;
  if (slot < capacity_) samples_[slot] = value;
}

SlicedRun::SlicedRun(double seconds, size_t rate_slices,
                     size_t latency_slices, uint64_t seed)
    : slice_ns_total_(static_cast<int64_t>(seconds * 1e9)),
      work_(rate_slices, 0.0),
      last_ns_(rate_slices, 0) {
  ResetPeakRss();
  for (size_t i = 0; i < latency_slices; ++i) {
    latency_.emplace_back(seed + i,
                          LatencyReservoir::kDefaultCapacity / latency_slices);
  }
}

size_t SlicedRun::SliceOf(int64_t elapsed_ns, size_t slices) const {
  const double at = static_cast<double>(elapsed_ns) /
                    static_cast<double>(slice_ns_total_) *
                    static_cast<double>(slices);
  return std::min(static_cast<size_t>(std::max(at, 0.0)), slices - 1);
}

void SlicedRun::Record(int64_t elapsed_ns, double work, double latency_us) {
  ++operations_;
  const size_t slice = SliceOf(elapsed_ns, work_.size());
  if (slice != rss_slice_) {
    peak_rss_mib_.push_back(perfbench::PeakRssMib());
    ResetPeakRss();
    rss_slice_ = slice;
  }
  work_[slice] += work;
  last_ns_[slice] = elapsed_ns;
  latency_[SliceOf(elapsed_ns, latency_.size())].Add(latency_us);
}

bool SlicedRun::NeedsMore(int64_t elapsed_ns, double tail_p) const {
  return elapsed_ns < slice_ns_total_ ||
         latency_.back().seen() < MinSamplesForTail(tail_p);
}

double SlicedRun::Throughput() const {
  // A slice's rate is its work over the time from the previous slice's
  // last completion to its own, so operations longer than a slice do not
  // quantize the rate.
  std::vector<double> rates;
  int64_t previous_ns = 0;
  for (size_t i = 0; i < work_.size(); ++i) {
    if (work_[i] == 0.0) continue;
    rates.push_back(work_[i] /
                    (static_cast<double>(last_ns_[i] - previous_ns) / 1e9));
    previous_ns = last_ns_[i];
  }
  return Median(rates);
}

double SlicedRun::PeakRssMib() {
  peak_rss_mib_.push_back(perfbench::PeakRssMib());
  return Median(peak_rss_mib_);
}

daspos::Result<LatencySummary> SlicedRun::Latency(double tail_p) {
  // A slice short of tail samples (a slow host, a short run) joins the
  // next one, and a short last group joins the one before it.
  const size_t need = MinSamplesForTail(tail_p);
  std::vector<std::vector<double>> groups;
  std::vector<double> current;
  for (LatencyReservoir& slice : latency_) {
    current.insert(current.end(), slice.samples()->begin(),
                   slice.samples()->end());
    if (current.size() >= need) {
      groups.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty() || groups.empty()) {
    if (groups.empty()) groups.emplace_back();
    groups.back().insert(groups.back().end(), current.begin(), current.end());
  }
  std::vector<double> p50s;
  std::vector<double> tails;
  LatencySummary out;
  out.tail_p = tail_p;
  out.beyond_tail = SIZE_MAX;
  for (std::vector<double>& group : groups) {
    DASPOS_ASSIGN_OR_RETURN(LatencySummary summary,
                            SummarizeLatency(&group, tail_p));
    p50s.push_back(summary.p50);
    tails.push_back(summary.tail);
    out.samples += summary.samples;
    out.beyond_tail = std::min(out.beyond_tail, summary.beyond_tail);
  }
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

void Tally::Record(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) Fail(what);
}

void Tally::Fail(std::string_view what) {
  ++failed_;
  if (first_failure_.empty()) first_failure_ = std::string(what);
}

std::string ResultLine(const Tally& tally, const std::vector<Metric>& metrics) {
  daspos::Json out = daspos::Json::Object();
  out["correct"] = tally.correct();
  out["attempted"] = tally.attempted();
  out["failed"] = tally.failed();
  daspos::Json values = daspos::Json::Object();
  for (const Metric& metric : metrics) {
    daspos::Json entry = daspos::Json::Object();
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    values[metric.name] = std::move(entry);
  }
  out["metrics"] = std::move(values);
  return out.Dump();
}

SpanRecorder::SpanRecorder(size_t per_name_capacity)
    : per_name_capacity_(per_name_capacity) {}

void SpanRecorder::Store(const Span& span) {
  Total& total = totals_[span.name];
  total.ns += static_cast<double>(span.end_ns - span.start_ns);
  ++total.count;
  if (total.count <= per_name_capacity_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

int64_t SpanRecorder::Record(const char* name, int64_t start_ns,
                             int64_t end_ns, int64_t parent,
                             uint64_t request_id) {
  const int64_t id = next_id_++;
  Store(Span{id, name, start_ns, end_ns, parent, request_id});
  return id;
}

int64_t SpanRecorder::Begin(const char* name, int64_t parent) {
  const int64_t id = next_id_++;
  open_[id] = Span{id, name, NowNs(), 0, parent, 0};
  return id;
}

void SpanRecorder::End(int64_t id) {
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span span = it->second;
  open_.erase(it);
  span.end_ns = NowNs();
  Store(span);
}

double SpanRecorder::TotalNs(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.ns;
}

daspos::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  daspos::Json events = daspos::Json::Array();
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  for (const Span& span : spans_) {
    daspos::Json event = daspos::Json::Object();
    event["name"] = span.name;
    event["ph"] = "X";
    event["pid"] = 1;
    event["tid"] = 1;
    event["ts"] = static_cast<double>(span.start_ns - origin) / 1000.0;
    event["dur"] = static_cast<double>(span.end_ns - span.start_ns) / 1000.0;
    daspos::Json args = daspos::Json::Object();
    args["id"] = span.id;
    args["parent"] = span.parent;
    if (span.request_id != 0) args["request_id"] = span.request_id;
    event["args"] = std::move(args);
    events.push_back(std::move(event));
  }
  daspos::Json doc = daspos::Json::Object();
  doc["traceEvents"] = std::move(events);
  doc["dropped_spans"] = dropped_;
  return daspos::WriteStringToFile(path, doc.Dump());
}

}  // namespace perfbench
