#include "support/metrics_registry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace daspos {

namespace {

/// Portable atomic add for doubles (atomic<double>::fetch_add is not
/// guaranteed lock-free everywhere; the CAS loop is).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Shortest round-trip decimal for a bucket bound or sum ("0.25", "5",
/// "1000"); %g keeps golden outputs stable and human-readable.
std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

// ----------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound is >= value; everything above the last
  // bound lands in the +Inf bucket (index bounds_.size()).
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& Histogram::DefaultLatencyBucketsMs() {
  static const std::vector<double> kBuckets = {
      0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
      1000.0, 2500.0, 5000.0};
  return kBuckets;
}

// ----------------------------------------------------------- MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::EntryFor(std::string_view name,
                                                  std::string_view help) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.help = help;
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  MutexLock lock(mutex_);
  Entry& entry = EntryFor(name, help);
  if (!entry.has_instrument()) entry.counter.reset(new Counter());
  if (entry.counter == nullptr) {
    // Kind mismatch: keep the original registration, hand back a detached
    // instrument so the caller still has something safe to increment.
    static Counter* mismatch = new Counter();
    return *mismatch;
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  MutexLock lock(mutex_);
  Entry& entry = EntryFor(name, help);
  if (!entry.has_instrument()) entry.gauge.reset(new Gauge());
  if (entry.gauge == nullptr) {
    static Gauge* mismatch = new Gauge();
    return *mismatch;
  }
  return *entry.gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds,
                                         std::string_view help) {
  MutexLock lock(mutex_);
  Entry& entry = EntryFor(name, help);
  if (!entry.has_instrument()) {
    entry.histogram.reset(new Histogram(std::move(bounds)));
  }
  if (entry.histogram == nullptr) {
    static Histogram* mismatch =
        new Histogram(Histogram::DefaultLatencyBucketsMs());
    return *mismatch;
  }
  return *entry.histogram;
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.counter == nullptr) return 0;
  return it->second.counter->value();
}

int64_t MetricsRegistry::GaugeValue(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.gauge == nullptr) return 0;
  return it->second.gauge->value();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mutex_);
  // entries_ is an ordered map, so every section comes out sorted by name —
  // the determinism the exporters promise.
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) {
      snapshot.counters.push_back({name, entry.help, entry.counter->value()});
    } else if (entry.gauge != nullptr) {
      snapshot.gauges.push_back({name, entry.help, entry.gauge->value()});
    } else if (entry.histogram != nullptr) {
      MetricsSnapshot::HistogramValue value;
      value.name = name;
      value.help = entry.help;
      value.bounds = entry.histogram->bounds();
      value.bucket_counts.reserve(value.bounds.size() + 1);
      for (size_t i = 0; i <= value.bounds.size(); ++i) {
        value.bucket_counts.push_back(entry.histogram->bucket_count(i));
      }
      value.count = entry.histogram->count();
      value.sum = entry.histogram->sum();
      snapshot.histograms.push_back(std::move(value));
    }
  }
  return snapshot;
}

std::string MetricsRegistry::RenderPrometheus() const {
  MetricsSnapshot snapshot = Snapshot();
  std::string out;
  out.reserve(4096);
  char line[160];

  // One merged, name-sorted stream: counters, gauges, and histograms are
  // interleaved exactly as a Prometheus scrape would show them.
  size_t c = 0, g = 0, h = 0;
  auto next_name = [&]() -> const std::string* {
    const std::string* best = nullptr;
    if (c < snapshot.counters.size()) best = &snapshot.counters[c].name;
    if (g < snapshot.gauges.size() &&
        (best == nullptr || snapshot.gauges[g].name < *best)) {
      best = &snapshot.gauges[g].name;
    }
    if (h < snapshot.histograms.size() &&
        (best == nullptr || snapshot.histograms[h].name < *best)) {
      best = &snapshot.histograms[h].name;
    }
    return best;
  };
  for (const std::string* name = next_name(); name != nullptr;
       name = next_name()) {
    if (c < snapshot.counters.size() && snapshot.counters[c].name == *name) {
      const auto& counter = snapshot.counters[c++];
      if (!counter.help.empty()) {
        out += "# HELP " + counter.name + " " + counter.help + "\n";
      }
      out += "# TYPE " + counter.name + " counter\n";
      std::snprintf(line, sizeof(line), "%s %" PRIu64 "\n",
                    counter.name.c_str(), counter.value);
      out += line;
    } else if (g < snapshot.gauges.size() &&
               snapshot.gauges[g].name == *name) {
      const auto& gauge = snapshot.gauges[g++];
      if (!gauge.help.empty()) {
        out += "# HELP " + gauge.name + " " + gauge.help + "\n";
      }
      out += "# TYPE " + gauge.name + " gauge\n";
      std::snprintf(line, sizeof(line), "%s %" PRId64 "\n",
                    gauge.name.c_str(), gauge.value);
      out += line;
    } else {
      const auto& histogram = snapshot.histograms[h++];
      if (!histogram.help.empty()) {
        out += "# HELP " + histogram.name + " " + histogram.help + "\n";
      }
      out += "# TYPE " + histogram.name + " histogram\n";
      uint64_t cumulative = 0;
      for (size_t i = 0; i < histogram.bounds.size(); ++i) {
        cumulative += histogram.bucket_counts[i];
        std::snprintf(line, sizeof(line), "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                      histogram.name.c_str(),
                      FormatNumber(histogram.bounds[i]).c_str(), cumulative);
        out += line;
      }
      cumulative += histogram.bucket_counts[histogram.bounds.size()];
      std::snprintf(line, sizeof(line),
                    "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                    histogram.name.c_str(), cumulative);
      out += line;
      out += histogram.name + "_sum " + FormatNumber(histogram.sum) + "\n";
      std::snprintf(line, sizeof(line), "%s_count %" PRIu64 "\n",
                    histogram.name.c_str(), histogram.count);
      out += line;
    }
  }
  return out;
}

void MetricsRegistry::ResetForTesting() {
  MutexLock lock(mutex_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

void RegisterStandardMetrics(MetricsRegistry& registry) {
  using namespace metric_names;
  const std::vector<double>& latency = Histogram::DefaultLatencyBucketsMs();
  registry.GetCounter(kWorkflowExecutionsTotal,
                      "Workflow::Execute invocations");
  registry.GetCounter(kWorkflowStepsTotal,
                      "workflow steps settled successfully");
  registry.GetCounter(kWorkflowStepFailuresTotal,
                      "workflow steps that exhausted their attempts");
  registry.GetCounter(kWorkflowStepRetriesTotal,
                      "step attempts beyond each step's first");
  registry.GetCounter(kWorkflowCheckpointRestoresTotal,
                      "steps restored from a run-journal checkpoint");
  registry.GetHistogram(kWorkflowStepWallMs, latency,
                        "per-step wall time (gather + run + store)");
  registry.GetCounter(kPoolTasksTotal, "tasks executed by thread pools");
  registry.GetCounter(kPoolBusyUsTotal,
                      "microseconds spent inside pool task bodies");
  registry.GetGauge(kPoolQueueDepth, "tasks queued but not yet running");
  registry.GetHistogram(kPoolTaskWallMs, latency, "per-task wall time");
  registry.GetCounter(kArchivePutTotal, "object-store Put calls");
  registry.GetCounter(kArchiveGetTotal, "object-store Get calls");
  registry.GetCounter(kArchiveVerifyTotal, "object-store Verify calls");
  registry.GetCounter(kArchivePutBytesTotal, "bytes written by Put");
  registry.GetCounter(kArchiveGetBytesTotal, "bytes returned by Get");
  registry.GetCounter(kArchiveCacheHitsTotal,
                      "warm Gets that skipped the re-hash");
  registry.GetCounter(kArchiveCacheMissesTotal,
                      "cold Gets that hashed the full blob");
  registry.GetCounter(kArchiveCacheInvalidationsTotal,
                      "verified-digest cache entries dropped");
  registry.GetCounter(kArchiveQuarantinesTotal,
                      "blobs moved aside after a fixity mismatch");
  registry.GetHistogram(kArchiveGetWallMs, latency, "Get wall time");
  registry.GetHistogram(kArchivePutWallMs, latency, "Put wall time");
  registry.GetCounter(kArchiveWalkErrorsTotal,
                      "store-walk iteration/stat failures (an unreadable "
                      "store must not report as empty)");
  registry.GetCounter(kArchiveQuarantineErrorsTotal,
                      "quarantine moves that failed (forensic copy may be "
                      "lost)");
  registry.GetCounter(kArchiveReadRepairsTotal,
                      "rotted/missing replica copies healed during Get");
  registry.GetCounter(kArchiveDegradedReadsTotal,
                      "reads served while only a minority of replicas was "
                      "healthy");
  registry.GetCounter(kArchiveReplicaPutFailuresTotal,
                      "per-replica Put failures inside quorum writes");
  registry.GetCounter(kArchiveReplicaFallbacksTotal,
                      "reads that fell past an unhealthy replica");
  registry.GetCounter(kScrubPassesTotal, "scrub passes completed");
  registry.GetCounter(kScrubObjectsTotal, "objects fixity-scrubbed");
  registry.GetCounter(kScrubRepairsTotal,
                      "replica copies repaired by the scrubber");
  registry.GetCounter(kScrubUnrepairableTotal,
                      "objects with no healthy copy on any replica");
  registry.GetHistogram(kScrubBatchWallMs, latency,
                        "per-batch scrub wall time");
  registry.GetCounter(kMigrateObjectsTotal,
                      "objects processed by store-generation migration");
  registry.GetCounter(kMigrateBytesTotal, "bytes copied by migration");
  registry.GetCounter(kMigrateResumedTotal,
                      "migration runs resumed from an interrupted cursor");
  registry.GetCounter(kMigrateVerifyFailuresTotal,
                      "target copies that failed the post-copy re-hash");
  registry.GetCounter(kPackAppendsTotal,
                      "records appended to packfile segments");
  registry.GetCounter(kPackAppendBytesTotal,
                      "stored payload bytes appended to segments");
  registry.GetCounter(kPackReadsTotal, "packfile record reads");
  registry.GetCounter(kPackReadBytesTotal,
                      "raw (uncompressed) bytes served by packfile reads");
  registry.GetCounter(kPackMmapReadsTotal,
                      "packfile reads served zero-copy from a sealed-segment "
                      "mapping");
  registry.GetCounter(kPackCompressedBlobsTotal,
                      "blobs stored block-compressed in packfiles");
  registry.GetCounter(kPackCompressionSavedBytesTotal,
                      "raw-minus-stored bytes saved by block compression");
  registry.GetCounter(kPackChecksumFailuresTotal,
                      "packfile records whose stored checksum no longer "
                      "matches (rot or torn write)");
  registry.GetCounter(kPackIndexRebuildsTotal,
                      "segment indexes rebuilt by scanning the segment");
  registry.GetCounter(kPackTornRecordsTotal,
                      "trailing torn records dropped during tail recovery");
  registry.GetCounter(kPackSegmentsCreatedTotal,
                      "packfile segments created");
  registry.GetCounter(kPackQuarantinesTotal,
                      "packfile records quarantined after a fixity or "
                      "checksum mismatch");
  registry.GetCounter(kValidationRunsTotal, "validation farm runs");
  registry.GetCounter(kValidationCellsTotal,
                      "campaign x analysis cells validated");
  registry.GetCounter(kValidationPassTotal, "validation cells that passed");
  registry.GetCounter(kValidationWarnTotal, "validation cells that warned");
  registry.GetCounter(kValidationFailTotal, "validation cells that failed");
  registry.GetCounter(kValidationHistogramsTotal,
                      "histograms compared against archived references");
  registry.GetHistogram(kValidationCellWallMs, latency,
                        "per-cell wall time (chain + analysis + compare)");
  registry.GetCounter(kNetConnectionsTotal, "client connections accepted");
  registry.GetGauge(kNetActiveConnections, "client connections open now");
  registry.GetCounter(kNetRequestsTotal, "request frames dispatched");
  registry.GetCounter(kNetRequestErrorsTotal,
                      "requests answered with an ERROR frame");
  registry.GetCounter(kNetProtocolErrorsTotal,
                      "malformed frames (bad magic/version, oversized "
                      "declared length, unknown type, mid-frame disconnect)");
  registry.GetCounter(kNetBytesReadTotal, "bytes read from client sockets");
  registry.GetCounter(kNetBytesWrittenTotal,
                      "bytes written to client sockets");
  registry.GetCounter(kNetBackpressureStallsTotal,
                      "times a connection's reads were paused because its "
                      "outbox hit the backpressure cap");
  registry.GetCounter(kNetDrainsTotal, "graceful drains begun (SIGTERM)");
  registry.GetHistogram(kNetRequestWallMs, latency,
                        "per-request wall time (decode + handle + encode)");
  registry.GetCounter(kLintArtifactsTotal, "artifacts linted");
  registry.GetCounter(kLintFindingsTotal, "lint diagnostics emitted");
  registry.GetCounter(kRecoEventsTotal, "events reconstructed");
  registry.GetCounter(kTiersInputEventsTotal,
                      "AOD events read by derivation");
  registry.GetCounter(kTiersOutputEventsTotal,
                      "derived events written by derivation");
  registry.GetCounter(kRivetEventsTotal,
                      "generator events run through rivet analyses");
}

}  // namespace daspos
