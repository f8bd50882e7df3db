// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms behind one thread-safe API. The DPHEP validation framework
// (arXiv:1310.7814) argues that automated re-execution is only trustworthy
// when it leaves continuous, inspectable evidence of what ran; the registry
// is that evidence for the whole stack — the workflow engine, the object
// store, the thread pool, and the linter all publish here, and the CLI
// exports the result as Prometheus text exposition or a JSON block in the
// chain report.
//
// Handles returned by GetCounter/GetGauge/GetHistogram are stable for the
// life of the process (instruments are never destroyed, ResetForTesting only
// zeroes values), so hot paths resolve a name once and then touch a single
// relaxed atomic per event. Operation counts are deterministic across thread
// counts; time-derived values (histogram distributions, *_us totals) are
// wall-clock — see docs/OBSERVABILITY.md for the full contract.
#ifndef DASPOS_SUPPORT_METRICS_REGISTRY_H_
#define DASPOS_SUPPORT_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/sync.h"

namespace daspos {

/// Monotonic event counter. Increment is one relaxed atomic add.
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (queue depth, bytes resident). May go up and down.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram with Prometheus semantics: an observation lands in
/// the first bucket whose upper bound is >= the value (`le` is inclusive),
/// and anything past the last bound lands in the implicit +Inf bucket.
/// Bucket bounds are fixed at registration so merged/exported series always
/// line up.
class Histogram {
 public:
  void Observe(double value);

  /// Ascending upper bounds; the +Inf bucket is implicit (bounds.size()
  /// buckets plus one overflow).
  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// Raw (non-cumulative) count of bucket `i`, i in [0, bounds().size()].
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// The default latency scale, in milliseconds: 24 base-2 bounds from
  /// 0.001 ms (1 us) to 8388.608 ms.
  static const std::vector<double>& DefaultLatencyBucketsMs();

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  void Reset();

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  /// Sum of observations; updated with a CAS loop (portable atomic double).
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every registered instrument, sorted by name —
/// the input to both exporters and to the chain report's metrics block.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::string help;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::string help;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::string help;
    std::vector<double> bounds;
    /// Raw per-bucket counts; bounds.size() + 1 entries (last = +Inf).
    std::vector<uint64_t> bucket_counts;
    uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Thread-safe name -> instrument registry. Use Global() for the process
/// registry; local instances exist for tests. Getting a handle takes the
/// registry mutex once; the returned reference is valid forever.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem publishes to.
  static MetricsRegistry& Global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use. A name in the standard catalogue (metric_names) takes its kind
  /// and HELP from the catalogue, so its callers pass no `help`; any other
  /// name records `help` on creation (later calls may pass ""). Asking for
  /// a name as a kind other than its registered or catalogued one returns
  /// a detached dummy instrument — a programming error surfaced by the
  /// dummy's absence from exports.
  Counter& GetCounter(std::string_view name, std::string_view help = "")
      DASPOS_EXCLUDES(mutex_);
  Gauge& GetGauge(std::string_view name, std::string_view help = "")
      DASPOS_EXCLUDES(mutex_);
  /// `bounds` must be ascending; they are fixed on first registration.
  Histogram& GetHistogram(
      std::string_view name,
      std::vector<double> bounds = Histogram::DefaultLatencyBucketsMs(),
      std::string_view help = "") DASPOS_EXCLUDES(mutex_);

  /// Current value of a counter/gauge by name; 0 when not registered.
  /// (Tests use before/after deltas of these.)
  uint64_t CounterValue(std::string_view name) const DASPOS_EXCLUDES(mutex_);
  int64_t GaugeValue(std::string_view name) const DASPOS_EXCLUDES(mutex_);

  /// Sorted-by-name copy of every instrument's current state.
  MetricsSnapshot Snapshot() const DASPOS_EXCLUDES(mutex_);

  /// Prometheus text exposition format (text/plain; version=0.0.4):
  /// # HELP / # TYPE headers, cumulative histogram buckets with inclusive
  /// `le` labels, series sorted by metric name.
  std::string RenderPrometheus() const;

  /// Zeroes every value. Handles stay valid; registrations stay in place.
  void ResetForTesting() DASPOS_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;

    bool has_instrument() const {
      return counter != nullptr || gauge != nullptr || histogram != nullptr;
    }
  };

  /// Finds (creating a bare, instrument-less entry if absent) the entry for
  /// `name`, or returns nullptr when the catalogue gives `name` a kind other
  /// than `kind`. The caller holds the registry mutex and attaches the
  /// right instrument kind.
  Entry* EntryFor(std::string_view name, MetricKind kind,
                  std::string_view help)
      DASPOS_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_ DASPOS_GUARDED_BY(mutex_);
};

/// Canonical metric names — the single source both the instrumented
/// subsystems and RegisterStandardMetrics use, so exposition and
/// documentation cannot drift from the code. Each name's kind and HELP live
/// once, in the catalogue in metrics_registry.cc.
namespace metric_names {
// Workflow engine.
inline constexpr char kWorkflowExecutionsTotal[] =
    "daspos_workflow_executions_total";
inline constexpr char kWorkflowStepsTotal[] = "daspos_workflow_steps_total";
inline constexpr char kWorkflowStepFailuresTotal[] =
    "daspos_workflow_step_failures_total";
inline constexpr char kWorkflowStepRetriesTotal[] =
    "daspos_workflow_step_retries_total";
inline constexpr char kWorkflowCheckpointRestoresTotal[] =
    "daspos_workflow_checkpoint_restores_total";
inline constexpr char kWorkflowStepWallMs[] = "daspos_workflow_step_wall_ms";
// Thread pool.
inline constexpr char kPoolTasksTotal[] = "daspos_pool_tasks_total";
inline constexpr char kPoolBusyUsTotal[] = "daspos_pool_busy_us_total";
inline constexpr char kPoolQueueDepth[] = "daspos_pool_queue_depth";
inline constexpr char kPoolTaskWallMs[] = "daspos_pool_task_wall_ms";
// Object store (FileObjectStore).
inline constexpr char kArchivePutTotal[] = "daspos_archive_put_total";
inline constexpr char kArchiveGetTotal[] = "daspos_archive_get_total";
inline constexpr char kArchiveVerifyTotal[] = "daspos_archive_verify_total";
inline constexpr char kArchivePutBytesTotal[] =
    "daspos_archive_put_bytes_total";
inline constexpr char kArchiveGetBytesTotal[] =
    "daspos_archive_get_bytes_total";
inline constexpr char kArchiveQuarantinesTotal[] =
    "daspos_archive_quarantines_total";
inline constexpr char kArchiveGetWallMs[] = "daspos_archive_get_wall_ms";
inline constexpr char kArchivePutWallMs[] = "daspos_archive_put_wall_ms";
inline constexpr char kArchiveWalkErrorsTotal[] =
    "daspos_archive_walk_errors_total";
inline constexpr char kArchiveQuarantineErrorsTotal[] =
    "daspos_archive_quarantine_errors_total";
// Replicated store (src/archive/replicated_store.cc).
inline constexpr char kArchiveReadRepairsTotal[] =
    "daspos_archive_read_repairs_total";
inline constexpr char kArchiveDegradedReadsTotal[] =
    "daspos_archive_degraded_reads_total";
inline constexpr char kArchiveReplicaPutFailuresTotal[] =
    "daspos_archive_replica_put_failures_total";
inline constexpr char kArchiveReplicaFallbacksTotal[] =
    "daspos_archive_replica_fallbacks_total";
// Bit-preservation scrubber (src/archive/scrub.cc).
inline constexpr char kScrubPassesTotal[] = "daspos_scrub_passes_total";
inline constexpr char kScrubObjectsTotal[] = "daspos_scrub_objects_total";
inline constexpr char kScrubRepairsTotal[] = "daspos_scrub_repairs_total";
inline constexpr char kScrubUnrepairableTotal[] =
    "daspos_scrub_unrepairable_total";
inline constexpr char kScrubBatchWallMs[] = "daspos_scrub_batch_wall_ms";
// Store-generation migration (src/archive/migrate.cc).
inline constexpr char kMigrateObjectsTotal[] = "daspos_migrate_objects_total";
inline constexpr char kMigrateBytesTotal[] = "daspos_migrate_bytes_total";
inline constexpr char kMigrateResumedTotal[] = "daspos_migrate_resumed_total";
inline constexpr char kMigrateVerifyFailuresTotal[] =
    "daspos_migrate_verify_failures_total";
// Packfile backend (src/archive/pack_store.cc).
inline constexpr char kPackAppendsTotal[] = "daspos_pack_appends_total";
inline constexpr char kPackAppendBytesTotal[] =
    "daspos_pack_append_bytes_total";
inline constexpr char kPackReadsTotal[] = "daspos_pack_reads_total";
inline constexpr char kPackReadBytesTotal[] = "daspos_pack_read_bytes_total";
inline constexpr char kPackMmapReadsTotal[] = "daspos_pack_mmap_reads_total";
inline constexpr char kPackCompressedBlobsTotal[] =
    "daspos_pack_compressed_blobs_total";
inline constexpr char kPackCompressionSavedBytesTotal[] =
    "daspos_pack_compression_saved_bytes_total";
inline constexpr char kPackChecksumFailuresTotal[] =
    "daspos_pack_checksum_failures_total";
inline constexpr char kPackIndexRebuildsTotal[] =
    "daspos_pack_index_rebuilds_total";
inline constexpr char kPackTornRecordsTotal[] =
    "daspos_pack_torn_records_total";
inline constexpr char kPackSegmentsCreatedTotal[] =
    "daspos_pack_segments_created_total";
inline constexpr char kPackQuarantinesTotal[] =
    "daspos_pack_quarantines_total";
// Continuous-validation farm (src/validate).
inline constexpr char kValidationRunsTotal[] = "daspos_validation_runs_total";
inline constexpr char kValidationCellsTotal[] =
    "daspos_validation_cells_total";
inline constexpr char kValidationPassTotal[] = "daspos_validation_pass_total";
inline constexpr char kValidationWarnTotal[] = "daspos_validation_warn_total";
inline constexpr char kValidationFailTotal[] = "daspos_validation_fail_total";
inline constexpr char kValidationHistogramsTotal[] =
    "daspos_validation_histograms_compared_total";
inline constexpr char kValidationCellWallMs[] =
    "daspos_validation_cell_wall_ms";
// Network service (src/net/server.cc, dasposd).
inline constexpr char kNetConnectionsTotal[] = "daspos_net_connections_total";
inline constexpr char kNetActiveConnections[] =
    "daspos_net_active_connections";
inline constexpr char kNetRequestsTotal[] = "daspos_net_requests_total";
inline constexpr char kNetRequestErrorsTotal[] =
    "daspos_net_request_errors_total";
inline constexpr char kNetProtocolErrorsTotal[] =
    "daspos_net_protocol_errors_total";
inline constexpr char kNetBytesReadTotal[] = "daspos_net_bytes_read_total";
inline constexpr char kNetBytesWrittenTotal[] =
    "daspos_net_bytes_written_total";
inline constexpr char kNetBackpressureStallsTotal[] =
    "daspos_net_backpressure_stalls_total";
inline constexpr char kNetDrainsTotal[] = "daspos_net_drains_total";
inline constexpr char kNetRequestWallMs[] = "daspos_net_request_wall_ms";
// Linter.
inline constexpr char kLintArtifactsTotal[] = "daspos_lint_artifacts_total";
inline constexpr char kLintFindingsTotal[] = "daspos_lint_findings_total";
// Step bodies.
inline constexpr char kRecoEventsTotal[] = "daspos_reco_events_total";
inline constexpr char kContainerHashedBytesTotal[] =
    "daspos_container_hashed_bytes_total";
inline constexpr char kTiersInputEventsTotal[] =
    "daspos_tiers_input_events_total";
inline constexpr char kTiersOutputEventsTotal[] =
    "daspos_tiers_output_events_total";
inline constexpr char kRivetEventsTotal[] = "daspos_rivet_events_total";
}  // namespace metric_names

/// Registers every standard instrument (zero-valued until its subsystem
/// runs), so `daspos metrics` exposes the full catalogue even for a process
/// that has not touched a given path yet. Idempotent.
void RegisterStandardMetrics(MetricsRegistry& registry =
                                 MetricsRegistry::Global());

}  // namespace daspos

#endif  // DASPOS_SUPPORT_METRICS_REGISTRY_H_
