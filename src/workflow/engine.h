// Workflow engine: a dataflow graph of processing steps over named
// datasets, with optional provenance capture. Models the "nested levels of
// processing required to go from the raw data ... to the final physics
// analysis" (§5) in a form a preservation system can record and re-execute.
//
// Execution is a parallel DAG schedule: every step whose inputs are
// available runs concurrently on a worker pool, while provenance records and
// the report stay in a deterministic topological order (independent of
// thread count and completion timing), so captured chains are byte-identical
// whether re-executed serially or wide.
#ifndef DASPOS_WORKFLOW_ENGINE_H_
#define DASPOS_WORKFLOW_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "conditions/provider.h"
#include "lint/checks.h"
#include "serialize/json.h"
#include "support/result.h"
#include "support/sync.h"
#include "tiers/dataset.h"
#include "workflow/provenance.h"

namespace daspos {

class FaultPlan;
class RunJournal;
class ThreadPool;

/// Execution-time environment: dataset storage plus external services
/// (the conditions database — the paper's canonical external dependency).
/// Datasets are stored as their sealed container bytes, which are the
/// record; the events a step hands its consumers stay inside the Execute
/// that produced them.
///
/// Thread-safe: steps running concurrently may Put and Get datasets. Views
/// returned by GetDataset stay valid and immutable for the context's
/// lifetime (datasets are write-once; map nodes are reference-stable).
class WorkflowContext {
 public:
  /// Stores a dataset blob under a unique logical name.
  Status PutDataset(const std::string& name, std::string blob)
      DASPOS_EXCLUDES(mutex_);
  Result<std::string_view> GetDataset(const std::string& name) const
      DASPOS_EXCLUDES(mutex_);
  bool HasDataset(const std::string& name) const DASPOS_EXCLUDES(mutex_);
  std::vector<std::string> DatasetNames() const DASPOS_EXCLUDES(mutex_);
  uint64_t TotalBytes() const DASPOS_EXCLUDES(mutex_);

  /// Optional conditions service, not owned.
  void set_conditions(const ConditionsProvider* provider) {
    conditions_ = provider;
  }
  const ConditionsProvider* conditions() const { return conditions_; }

  /// Shared worker pool for intra-step data parallelism (not owned). The
  /// engine sets it for the duration of Execute so every step fans its hot
  /// loop out over the same workers instead of oversubscribing; null means
  /// run serially. Set happens-before any step runs (publication goes
  /// through the pool's queue mutex).
  void set_worker_pool(ThreadPool* pool) { worker_pool_ = pool; }
  ThreadPool* worker_pool() const { return worker_pool_; }

 private:
  mutable SharedMutex mutex_;
  std::map<std::string, std::string> datasets_ DASPOS_GUARDED_BY(mutex_);
  // Set before any step runs and cleared after the pool drains; steps only
  // read these, so they stay outside the lock by design.
  const ConditionsProvider* conditions_ = nullptr;
  ThreadPool* worker_pool_ = nullptr;
};

/// What one step run produced: the output dataset blob, the number of
/// events in it (for provenance accounting; 0 when the step cannot tell) and
/// the events the blob encodes, which the engine hands to this Execute's
/// consumers of the output (null: they read the bytes).
struct StepOutput {
  std::string blob;
  uint64_t events = 0;
  std::shared_ptr<const DatasetPayload> payload = nullptr;
};

/// One processing step. Implementations are in steps.h; anything honoring
/// this interface can join a workflow. Run must be safe to call while other
/// steps run on different threads (it may only touch its own state and the
/// thread-safe context).
class WorkflowStep {
 public:
  virtual ~WorkflowStep() = default;

  virtual std::string name() const = 0;
  virtual std::string version() const = 0;
  /// Canonical configuration capture; hashed into provenance.
  virtual Json Config() const = 0;
  /// Consumes the inputs, in binding order, and returns the output
  /// dataset. Steps read an input's events through ReadInput; the inputs
  /// are the step's own, so it can drop them once it is done with them.
  virtual Result<StepOutput> Run(std::vector<DatasetInput> inputs,
                                 WorkflowContext* context) const = 0;
};

/// Report of one executed workflow. Steps are ordered by their stable
/// topological rank (dependency depth, then registration order) — never by
/// completion time — so two executions of the same graph produce the same
/// step sequence regardless of parallelism.
struct WorkflowReport {
  struct StepResult {
    std::string step;
    std::string output;
    uint64_t output_bytes = 0;
    uint64_t output_events = 0;
    /// Wall-clock time of the step (input gather + Run + dataset store).
    double wall_ms = 0.0;
    /// Run attempts consumed (1 = first try succeeded; 0 = restored from a
    /// journal checkpoint without running).
    int attempts = 1;
    /// True when the output was restored from a run-journal checkpoint.
    bool from_checkpoint = false;
  };
  std::vector<StepResult> steps;
  /// Steps that exhausted their retries (keep_going mode only; an empty
  /// list means full success).
  std::vector<std::string> failed_steps;
  /// Steps never dispatched because a (transitive) dependency failed
  /// (keep_going mode only).
  std::vector<std::string> skipped_steps;
  /// Wall-clock time of the whole Execute, and the worker count used.
  double wall_ms = 0.0;
  size_t threads_used = 0;
  /// Activity of this execution's own worker pool: tasks = dispatched steps
  /// plus intra-step parallel chunks, busy_ms = task wall time summed
  /// across workers. Pools a step creates for itself are not counted.
  struct PoolActivity {
    uint64_t tasks_executed = 0;
    double busy_ms = 0.0;
  };
  PoolActivity pool;

  bool fully_succeeded() const {
    return failed_steps.empty() && skipped_steps.empty();
  }

  /// The report as JSON (for `daspos chain --json` and archival next to the
  /// provenance chain). It describes this execution only; the pool block's
  /// utilization is busy_ms over threads x wall_ms.
  Json ToJson() const;

  /// Per-step timing table: label, wall time, share of the summed wall
  /// time, output bytes and events, plus a totals row.
  std::string RenderTimingTable(const std::string& title = "") const;
};

/// Knobs for Workflow::Execute.
struct ExecuteOptions {
  /// Worker threads for ready-step dispatch. 0 means one per hardware
  /// thread; 1 reproduces strictly serial execution.
  size_t max_threads = 0;

  /// Extra attempts after a step's first failure. Only transient failures
  /// (IOError, DeadlineExceeded) are retried; anything else is permanent.
  int max_step_retries = 0;

  /// Base backoff between step retries (exponential, jittered). Tests set 0
  /// for speed.
  double retry_backoff_ms = 10.0;

  /// Per-step wall-clock budget in milliseconds; 0 disables. A step cannot
  /// be killed mid-Run, so this is a post-hoc deadline: an attempt that
  /// finishes past its budget has its output discarded and counts as a
  /// retryable DeadlineExceeded failure.
  double step_timeout_ms = 0.0;

  /// Graceful degradation: when a step exhausts its retries, quarantine it
  /// (with its transitive dependents) and keep executing independent
  /// branches. Execute then returns an OK report with `failed_steps` /
  /// `skipped_steps` naming the casualties instead of an error status.
  bool keep_going = false;

  /// Checkpoint journal (not owned). Every completed step is appended with
  /// its output blob and a digest of each input (a container's footer
  /// digest, or the SHA-256 of any other bytes); with `resume`
  /// set, a step whose journaled record still matches (same step name,
  /// output, config hash and input digests, the last compared once its
  /// inputs are settled) and whose blob digest verifies is restored without
  /// re-running.
  RunJournal* journal = nullptr;
  bool resume = false;

  /// Fault injector for chaos testing (not owned). Consulted once per step
  /// attempt; an injected fault counts as a transient step failure.
  FaultPlan* step_faults = nullptr;
};

/// A directed acyclic processing graph. Steps are bound to named inputs and
/// one named output; execution order is resolved by data availability.
class Workflow {
 public:
  /// Binds a step. The step name and the output name must each be unique
  /// across the workflow (AlreadyExists otherwise), and the output must not
  /// appear among the step's own inputs (self-cycle).
  Status AddStep(std::shared_ptr<WorkflowStep> step,
                 std::vector<std::string> inputs, std::string output);

  /// Runs every step whose inputs are (or become) available; independent
  /// steps run concurrently on up to `options.max_threads` workers. Before
  /// anything runs, the graph is gated through the preservation linter: a
  /// chain with cycles, missing inputs, or unreachable steps is rejected
  /// with named diagnostics instead of failing mid-run. On a step failure
  /// no further steps are dispatched. When `provenance` is non-null, a
  /// record per produced dataset is added — the capture the E5 bench
  /// prices — in the same deterministic order as the report.
  Result<WorkflowReport> Execute(WorkflowContext* context,
                                 ProvenanceStore* provenance = nullptr,
                                 const ExecuteOptions& options = {}) const;

  /// Execution-free description of the graph for the preservation linter.
  /// When `context` is given, its datasets count as external inputs.
  lint::WorkflowGraphSpec GraphSpec(const WorkflowContext* context =
                                        nullptr) const;

  size_t step_count() const { return bindings_.size(); }

 private:
  struct Binding {
    std::shared_ptr<WorkflowStep> step;
    std::vector<std::string> inputs;
    std::string output;
  };
  std::vector<Binding> bindings_;
};

}  // namespace daspos

#endif  // DASPOS_WORKFLOW_ENGINE_H_
