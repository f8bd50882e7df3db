#include "workflow/engine.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "serialize/container.h"
#include "support/fault.h"
#include "support/metrics_registry.h"
#include "support/retry.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "support/sync.h"
#include "support/table.h"
#include "support/threadpool.h"
#include "support/trace.h"
#include "workflow/journal.h"

namespace daspos {

Status WorkflowContext::PutDataset(const std::string& name,
                                   std::string blob) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  WriterMutexLock lock(mutex_);
  auto [it, inserted] = datasets_.emplace(name, std::move(blob));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("dataset '" + name + "' already stored");
  }
  return Status::OK();
}

Result<std::string_view> WorkflowContext::GetDataset(
    const std::string& name) const {
  ReaderMutexLock lock(mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + name + "' not in context");
  }
  // Map nodes are reference-stable and blobs are write-once, so the view
  // outlives the lock safely.
  return std::string_view(it->second);
}

bool WorkflowContext::HasDataset(const std::string& name) const {
  ReaderMutexLock lock(mutex_);
  return datasets_.count(name) > 0;
}

std::vector<std::string> WorkflowContext::DatasetNames() const {
  ReaderMutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(datasets_.size());
  for (const auto& [name, blob] : datasets_) {
    (void)blob;
    out.push_back(name);
  }
  return out;
}

uint64_t WorkflowContext::TotalBytes() const {
  ReaderMutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& [name, blob] : datasets_) {
    (void)name;
    total += blob.size();
  }
  return total;
}

Json WorkflowReport::ToJson() const {
  Json json = Json::Object();
  json["threads"] = static_cast<uint64_t>(threads_used);
  json["wall_ms"] = wall_ms;
  Json pool_json = Json::Object();
  pool_json["threads"] = static_cast<uint64_t>(threads_used);
  pool_json["tasks_executed"] = pool.tasks_executed;
  pool_json["busy_ms"] = pool.busy_ms;
  pool_json["utilization"] =
      threads_used > 0 && wall_ms > 0.0
          ? pool.busy_ms / (static_cast<double>(threads_used) * wall_ms)
          : 0.0;
  json["pool"] = std::move(pool_json);
  Json step_list = Json::Array();
  for (const StepResult& result : steps) {
    Json step = Json::Object();
    step["step"] = result.step;
    step["output"] = result.output;
    step["output_bytes"] = result.output_bytes;
    step["output_events"] = result.output_events;
    step["wall_ms"] = result.wall_ms;
    step["attempts"] = result.attempts;
    step["from_checkpoint"] = result.from_checkpoint;
    step_list.push_back(std::move(step));
  }
  json["steps"] = std::move(step_list);
  Json failed_list = Json::Array();
  for (const std::string& name : failed_steps) failed_list.push_back(name);
  json["failed"] = std::move(failed_list);
  Json skipped_list = Json::Array();
  for (const std::string& name : skipped_steps) skipped_list.push_back(name);
  json["skipped"] = std::move(skipped_list);
  return json;
}

std::string WorkflowReport::RenderTimingTable(const std::string& title) const {
  TextTable table;
  if (!title.empty()) table.SetTitle(title);
  table.SetHeader({"step", "wall", "share", "bytes", "events"});
  double total_ms = 0.0;
  uint64_t total_bytes = 0;
  uint64_t total_events = 0;
  for (const StepResult& result : steps) {
    total_ms += result.wall_ms;
    total_bytes += result.output_bytes;
    total_events += result.output_events;
  }
  for (const StepResult& result : steps) {
    double share = total_ms > 0.0 ? 100.0 * result.wall_ms / total_ms : 0.0;
    table.AddRow({result.step + " -> " + result.output,
                  FormatDouble(result.wall_ms, 3) + " ms",
                  FormatDouble(share, 3) + "%",
                  FormatBytes(result.output_bytes),
                  std::to_string(result.output_events)});
  }
  table.AddRow({"TOTAL", FormatDouble(total_ms, 3) + " ms", "",
                FormatBytes(total_bytes), std::to_string(total_events)});
  return table.Render();
}

Status Workflow::AddStep(std::shared_ptr<WorkflowStep> step,
                         std::vector<std::string> inputs,
                         std::string output) {
  if (step == nullptr) {
    return Status::InvalidArgument("null workflow step");
  }
  if (output.empty()) {
    return Status::InvalidArgument("workflow step needs an output name");
  }
  for (const std::string& input : inputs) {
    if (input == output) {
      return Status::InvalidArgument(
          "step '" + step->name() + "' lists its output '" + output +
          "' among its own inputs (self-cycle)");
    }
  }
  for (const Binding& binding : bindings_) {
    if (binding.output == output) {
      return Status::AlreadyExists("output '" + output +
                                   "' already produced by step '" +
                                   binding.step->name() + "'");
    }
    if (binding.step->name() == step->name()) {
      // Step names key provenance records and journal checkpoints; a
      // duplicate would make resume and reporting ambiguous.
      return Status::AlreadyExists("step '" + step->name() +
                                   "' already added to the workflow");
    }
  }
  bindings_.push_back({std::move(step), std::move(inputs), std::move(output)});
  return Status::OK();
}

namespace {

constexpr size_t kNoRank = static_cast<size_t>(-1);

/// Per-step outcome, filled in by whichever worker ran the step and read by
/// the scheduler thread after the run settles (synchronized via the
/// scheduler mutex).
struct StepSlot {
  Status status = Status::OK();
  bool ran = false;
  uint64_t bytes = 0;
  uint64_t events = 0;
  double wall_ms = 0.0;
  int attempts = 1;
  bool from_checkpoint = false;
  ProvenanceRecord record;
};

/// Scheduler state shared between Execute and the pool workers it
/// dispatches. Function locals cannot carry thread-safety annotations, so
/// the shared pieces live in a named struct whose fields declare their
/// guard; `mutex` orders every scheduling decision.
struct DispatchState {
  Mutex mutex;
  CondVar settled_cv;
  /// Unsatisfied input count per step; a step is dispatched when it hits 0.
  std::vector<size_t> remaining DASPOS_GUARDED_BY(mutex);
  /// 1 when the step has been handed to the pool.
  std::vector<char> submitted DASPOS_GUARDED_BY(mutex);
  size_t scheduled DASPOS_GUARDED_BY(mutex) = 0;
  size_t settled DASPOS_GUARDED_BY(mutex) = 0;
  bool failed DASPOS_GUARDED_BY(mutex) = false;
  size_t first_failed_rank DASPOS_GUARDED_BY(mutex) = kNoRank;
  Status failure DASPOS_GUARDED_BY(mutex) = Status::OK();
  /// The events each step handed over, held until its last reader takes
  /// them, and the number of its readers (dependent edges) yet to do so.
  std::vector<std::shared_ptr<const DatasetPayload>> handoff
      DASPOS_GUARDED_BY(mutex);
  std::vector<size_t> readers_left DASPOS_GUARDED_BY(mutex);
};

/// Input name -> a hex SHA-256 standing for its bytes: what a checkpoint
/// records of its step's inputs and what resume compares. Bytes that open
/// as a container (every tier) are keyed on their footer digest, which
/// already covers their contents, so no tier is hashed again; any other
/// dataset a step writes is hashed whole.
std::map<std::string, std::string> InputDigests(
    const std::vector<std::string>& names,
    const std::vector<std::string_view>& bytes) {
  std::map<std::string, std::string> digests;
  for (size_t i = 0; i < names.size(); ++i) {
    digests[names[i]] =
        ContainerReader::OpenUnverified(bytes[i]).ok()
            ? HexEncode(ContainerReader::DeclaredDigest(bytes[i]))
            : Sha256::HashHex(bytes[i]);
  }
  return digests;
}

/// A checkpoint restores only onto the inputs it was computed from; a
/// record written without input digests restores only an input-less step.
bool CheckpointInputsMatch(const RunJournal::Record& record,
                           const std::map<std::string, std::string>& inputs) {
  return record.inputs.has_value() ? *record.inputs == inputs
                                   : inputs.empty();
}

}  // namespace

lint::WorkflowGraphSpec Workflow::GraphSpec(
    const WorkflowContext* context) const {
  lint::WorkflowGraphSpec spec;
  spec.steps.reserve(bindings_.size());
  for (const Binding& binding : bindings_) {
    spec.steps.push_back(
        {binding.step->name(), binding.inputs, binding.output});
  }
  if (context != nullptr) {
    for (std::string& name : context->DatasetNames()) {
      spec.external_inputs.insert(std::move(name));
    }
  }
  return spec;
}

Result<WorkflowReport> Workflow::Execute(WorkflowContext* context,
                                         ProvenanceStore* provenance,
                                         const ExecuteOptions& options) const {
  Span execute_span("workflow:execute", "workflow");
  const size_t step_count = bindings_.size();
  execute_span.AddAttribute("steps", static_cast<uint64_t>(step_count));

  using namespace metric_names;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter(kWorkflowExecutionsTotal).Increment();
  Counter& steps_total = registry.GetCounter(kWorkflowStepsTotal);
  Counter& step_failures = registry.GetCounter(kWorkflowStepFailuresTotal);
  Counter& step_retries = registry.GetCounter(kWorkflowStepRetriesTotal);
  Counter& checkpoint_restores =
      registry.GetCounter(kWorkflowCheckpointRestoresTotal);
  Histogram& step_wall_ms = registry.GetHistogram(kWorkflowStepWallMs);

  // Dependency graph over bindings: an input either comes from another
  // step's output (an edge) or must pre-exist in the context (external).
  std::map<std::string, size_t> producer_of;
  for (size_t i = 0; i < step_count; ++i) {
    producer_of[bindings_[i].output] = i;
  }
  std::vector<std::vector<size_t>> dependents(step_count);
  std::vector<size_t> indegree(step_count, 0);
  std::vector<std::vector<std::string>> missing_external(step_count);
  for (size_t i = 0; i < step_count; ++i) {
    for (const std::string& input : bindings_[i].inputs) {
      auto it = producer_of.find(input);
      if (it != producer_of.end()) {
        dependents[it->second].push_back(i);
        ++indegree[i];
      } else if (!context->HasDataset(input)) {
        missing_external[i].push_back(input);
      }
    }
  }

  // Stable topological rank via Kahn's algorithm, smallest binding index
  // first. Steps left unranked can never run: they miss an external input,
  // depend (transitively) on such a step, or sit in a cycle. Report and
  // provenance are emitted in rank order, which makes captured chains
  // independent of thread count and completion timing.
  std::vector<size_t> rank(step_count, kNoRank);
  std::vector<size_t> topo;
  topo.reserve(step_count);
  {
    std::vector<size_t> pending = indegree;
    std::set<size_t> ready;
    for (size_t i = 0; i < step_count; ++i) {
      if (pending[i] == 0 && missing_external[i].empty()) ready.insert(i);
    }
    while (!ready.empty()) {
      size_t i = *ready.begin();
      ready.erase(ready.begin());
      rank[i] = topo.size();
      topo.push_back(i);
      for (size_t dependent : dependents[i]) {
        if (--pending[dependent] == 0 &&
            missing_external[dependent].empty()) {
          ready.insert(dependent);
        }
      }
    }
  }

  // Preservation-lint gate: a graph some step of which can never run is
  // rejected up front with named diagnostics — nothing executes, no
  // partial datasets or provenance are produced (arXiv:1310.7814's "catch
  // it before anyone re-runs" discipline).
  if (topo.size() < step_count) {
    lint::LintReport lint_report =
        lint::CheckWorkflowGraph(GraphSpec(context));
    std::string blocked;
    for (const lint::Diagnostic& diagnostic : lint_report.diagnostics()) {
      if (diagnostic.severity != lint::Severity::kError) continue;
      if (!blocked.empty()) blocked += "; ";
      blocked += diagnostic.subject + " (" + diagnostic.message + ") [" +
                 diagnostic.code + "]";
    }
    return Status::FailedPrecondition(
        "workflow cannot progress; blocked steps: " + blocked);
  }

  // No clamp to the step count: a mostly-linear chain still profits from a
  // wide pool because steps fan their own event loops out over it.
  size_t threads =
      options.max_threads > 0 ? options.max_threads
                              : ThreadPool::DefaultThreadCount();

  WorkflowReport report;
  report.threads_used = threads;

  // Resume candidates: a step whose journal record matches its identity
  // (step name, output, config hash). It is restored instead of re-executed
  // only if, once its inputs are settled, the record's input digests equal
  // this run's and the checkpointed blob still verifies (the store re-hashes
  // on read). Any mismatch — renamed step, changed config or inputs, rotted
  // blob, truncated journal tail — silently falls back to a normal run.
  std::vector<std::optional<RunJournal::Record>> checkpoint(step_count);
  if (options.resume && options.journal != nullptr) {
    for (size_t i = 0; i < step_count; ++i) {
      const Binding& binding = bindings_[i];
      auto record = options.journal->Find(binding.step->name());
      if (!record.has_value()) continue;
      if (record->output != binding.output) continue;
      if (record->config_hash !=
          Sha256::HashHex(binding.step->Config().Dump())) {
        continue;
      }
      checkpoint[i] = std::move(record);
    }
  }

  // Indegree-tracked dispatch: every ready step is submitted to the pool;
  // each completion decrements its dependents, runs the first that hits
  // zero on the same worker and submits the rest. A failure stops further
  // dispatch (in-flight steps drain).
  std::vector<StepSlot> slots(step_count);
  DispatchState sched;
  {
    MutexLock lock(sched.mutex);
    sched.remaining = indegree;
    sched.submitted.assign(step_count, 0);
    sched.handoff.resize(step_count);
    for (size_t i = 0; i < step_count; ++i) {
      sched.readers_left.push_back(dependents[i].size());
    }
  }

  {
    ThreadPool pool(threads);
    // Steps share this pool for their intra-step event loops. At one thread
    // the pool is withheld so every loop takes its strictly serial path —
    // the reference each parallel width must reproduce byte for byte.
    context->set_worker_pool(threads > 1 ? &pool : nullptr);
    std::function<void(size_t)> run_chain;
    // Runs one step; returns the dependent this worker runs next, if any.
    auto run_step = [&](size_t index) -> std::optional<size_t> {
      {
        MutexLock lock(sched.mutex);
        if (sched.failed) {
          ++sched.settled;
          if (sched.settled == sched.scheduled) sched.settled_cv.NotifyAll();
          return std::nullopt;
        }
      }
      const Binding& binding = bindings_[index];
      StepSlot& slot = slots[index];
      // The step span opens on the worker thread, so attempt spans and any
      // archive/pool spans its body opens on that worker nest under it.
      Span step_span("step:" + binding.step->name(), "workflow",
                     &step_wall_ms);
      step_span.AddAttribute("output", binding.output);
      Status status = Status::OK();
      // Settle the inputs: their bytes, and the events each producer of
      // this run handed over. Taking a producer's events counts this step
      // off its readers; the last reader's take drops the engine's hold.
      std::vector<std::string_view> input_bytes;
      input_bytes.reserve(binding.inputs.size());
      for (const std::string& input : binding.inputs) {
        auto blob = context->GetDataset(input);
        if (!blob.ok()) {
          status = blob.status();
          break;
        }
        input_bytes.push_back(*blob);
      }
      std::vector<std::shared_ptr<const DatasetPayload>> handed(
          binding.inputs.size());
      {
        MutexLock lock(sched.mutex);
        for (size_t j = 0; j < binding.inputs.size(); ++j) {
          auto producer = producer_of.find(binding.inputs[j]);
          if (producer == producer_of.end()) continue;  // external input
          const size_t p = producer->second;
          handed[j] = sched.handoff[p];
          if (--sched.readers_left[p] == 0) sched.handoff[p].reset();
        }
      }
      std::map<std::string, std::string> input_digests;
      if (status.ok() && options.journal != nullptr) {
        input_digests = InputDigests(binding.inputs, input_bytes);
      }
      std::optional<std::string> restored;
      if (status.ok() && checkpoint[index].has_value() &&
          CheckpointInputsMatch(*checkpoint[index], input_digests)) {
        auto blob = options.journal->LoadBlob(checkpoint[index]->digest);
        if (blob.ok()) restored = std::move(*blob);
      }
      // The output's events, handed to its readers once it is published.
      std::shared_ptr<const DatasetPayload> payload;
      if (restored.has_value()) {
        // Restore from the journal: the blob passed its digest check on
        // load; publishing it is all that remains. Readers decode it.
        slot.bytes = checkpoint[index]->bytes;
        slot.events = checkpoint[index]->events;
        slot.attempts = 0;
        slot.from_checkpoint = true;
        checkpoint_restores.Increment();
        step_span.AddAttribute("from_checkpoint", "true");
        status = context->PutDataset(binding.output, std::move(*restored));
      } else if (status.ok()) {
        StepOutput produced;
        // One retry loop per step: transient failures (injected faults,
        // I/O hiccups, blown deadlines) are re-attempted with exponential
        // backoff; permanent failures stop immediately.
        RetryPolicy policy;
        policy.max_attempts = std::max(0, options.max_step_retries) + 1;
        policy.backoff_ms = options.retry_backoff_ms;
        policy.jitter_seed = static_cast<uint64_t>(index) + 1;
        int attempts_used = 0;
        status = RetryCall(
            policy,
            [&]() -> Status {
              ++attempts_used;
              Span attempt_span("attempt:" + binding.step->name(),
                                "workflow");
              attempt_span.AddAttribute(
                  "attempt", static_cast<uint64_t>(attempts_used));
              if (options.step_faults != nullptr) {
                DASPOS_RETURN_IF_ERROR(options.step_faults->Next(
                    "step:" + binding.step->name()));
              }
              // The handed-over events go to the first attempt that runs;
              // a retry reads the bytes.
              std::vector<DatasetInput> inputs(input_bytes.size());
              for (size_t j = 0; j < inputs.size(); ++j) {
                inputs[j] = {input_bytes[j], std::move(handed[j])};
              }
              auto output = binding.step->Run(std::move(inputs), context);
              if (!output.ok()) return output.status();
              if (options.step_timeout_ms > 0.0 &&
                  attempt_span.ElapsedMillis() > options.step_timeout_ms) {
                // A step cannot be killed mid-Run; enforce the budget as
                // a post-hoc deadline and discard the late output.
                return Status::DeadlineExceeded(
                    "step '" + binding.step->name() + "' exceeded " +
                    FormatDouble(options.step_timeout_ms, 4) +
                    " ms budget");
              }
              produced = std::move(*output);
              return Status::OK();
            },
            "step " + binding.step->name());
        slot.attempts = attempts_used;
        if (attempts_used > 1) {
          step_retries.Increment(static_cast<uint64_t>(attempts_used - 1));
        }
        if (status.ok()) {
          slot.bytes = produced.blob.size();
          slot.events = produced.events;
          if (options.journal != nullptr) {
            // Checkpoint before publishing: a crash after Append re-runs
            // nothing on resume, a crash before it re-runs this step.
            RunJournal::Record record;
            record.step = binding.step->name();
            record.output = binding.output;
            record.config_hash =
                Sha256::HashHex(binding.step->Config().Dump());
            record.bytes = slot.bytes;
            record.events = slot.events;
            record.inputs = std::move(input_digests);
            status =
                options.journal->Append(std::move(record), produced.blob);
          }
          if (status.ok()) {
            status = context->PutDataset(binding.output,
                                         std::move(produced.blob));
            payload = std::move(produced.payload);
          }
        }
      }
      if (status.ok() && provenance != nullptr) {
        ProvenanceRecord record;
        record.dataset = binding.output;
        record.producer = binding.step->name();
        record.producer_version = binding.step->version();
        record.config = binding.step->Config();
        record.config_hash = Sha256::HashHex(record.config.Dump());
        record.parents = binding.inputs;
        record.output_bytes = slot.bytes;
        record.output_events = slot.events;
        slot.record = std::move(record);
      }
      slot.wall_ms = step_span.ElapsedMillis();
      slot.ran = status.ok();
      if (status.ok()) {
        steps_total.Increment();
        step_span.AddAttribute("bytes", slot.bytes);
        step_span.AddAttribute("attempts",
                               static_cast<uint64_t>(slot.attempts));
      } else {
        step_failures.Increment();
        step_span.AddAttribute("error", status.message());
      }
      slot.status = std::move(status);

      std::optional<size_t> next;
      MutexLock lock(sched.mutex);
      ++sched.settled;
      if (!slot.status.ok()) {
        if (options.keep_going) {
          // Graceful degradation: the failed step is quarantined (its
          // dependents never reach indegree zero, so they are never
          // dispatched) while independent branches keep running.
        } else {
          if (!sched.failed || rank[index] < sched.first_failed_rank) {
            sched.first_failed_rank = rank[index];
            sched.failure = slot.status;
          }
          sched.failed = true;
        }
      } else if (!sched.failed) {
        if (!dependents[index].empty()) {
          sched.handoff[index] = std::move(payload);
        }
        for (size_t dependent : dependents[index]) {
          if (rank[dependent] == kNoRank) continue;  // permanently blocked
          if (--sched.remaining[dependent] == 0) {
            ++sched.scheduled;
            sched.submitted[dependent] = 1;
            if (next.has_value()) {
              pool.Submit([&run_chain, dependent] { run_chain(dependent); });
            } else {
              next = dependent;
            }
          }
        }
      }
      if (sched.settled == sched.scheduled) sched.settled_cv.NotifyAll();
      return next;
    };
    // A worker carries on with a step it made ready rather than queueing
    // it, so a linear chain runs start to end on one thread. A queued step
    // goes to whichever worker wins the wake-up, and a chain that hops
    // threads mid-run grows a second glibc arena to the size of its live
    // events: a peak-RSS spike, in some runs and not others.
    run_chain = [&run_step](size_t first) {
      for (std::optional<size_t> index = first; index.has_value();
           index = run_step(*index)) {
      }
    };

    {
      MutexLock lock(sched.mutex);
      for (size_t i : topo) {
        if (sched.remaining[i] == 0) {
          ++sched.scheduled;
          sched.submitted[i] = 1;
          pool.Submit([&run_chain, i] { run_chain(i); });
        }
      }
    }
    {
      MutexLock lock(sched.mutex);
      // Explicit predicate loop: the analysis cannot see through a
      // cv.wait(lock, pred) lambda.
      while (sched.settled != sched.scheduled) {
        sched.settled_cv.Wait(sched.mutex);
      }
    }
    // All steps are settled, but the worker that ran the last one may not
    // have counted its task yet; Wait() returns after it has.
    pool.Wait();
    report.pool.tasks_executed = pool.tasks_executed();
    report.pool.busy_ms = static_cast<double>(pool.busy_us()) / 1000.0;
    context->set_worker_pool(nullptr);
  }  // pool drains before slots are read below

#ifdef __GLIBC__
  // The pool's threads each allocated from their own glibc arena, and the
  // fragments a run frees there stay mapped until something trims them.
  // Return them now so back-to-back runs in one process (a long-lived
  // dasposd serving CHAIN, the validate farm) do not ratchet their RSS up.
  malloc_trim(0);
#endif

  // The workers are gone, but the annotated fields still want their lock
  // held for reads; copy the final verdict out under it.
  bool failed;
  Status failure = Status::OK();
  std::vector<char> submitted;
  {
    MutexLock lock(sched.mutex);
    failed = sched.failed;
    failure = sched.failure;
    submitted = std::move(sched.submitted);
  }

  // Deterministic assembly: rank order, never completion order. Steps that
  // completed before a failure keep their provenance, as in serial runs.
  for (size_t i : topo) {
    StepSlot& slot = slots[i];
    if (!slot.ran) continue;
    if (provenance != nullptr) {
      DASPOS_RETURN_IF_ERROR(provenance->Add(std::move(slot.record)));
    }
    report.steps.push_back({bindings_[i].step->name(), bindings_[i].output,
                            slot.bytes, slot.events, slot.wall_ms,
                            slot.attempts, slot.from_checkpoint});
  }

  if (failed) return failure;

  // keep_going accounting (rank order): a settled-but-failed step is
  // `failed`; a step never dispatched lost a (transitive) dependency and is
  // `skipped`.
  for (size_t i : topo) {
    if (slots[i].ran) continue;
    if (submitted[i]) {
      report.failed_steps.push_back(bindings_[i].step->name());
    } else {
      report.skipped_steps.push_back(bindings_[i].step->name());
    }
  }

  report.wall_ms = execute_span.ElapsedMillis();
  return report;
}

}  // namespace daspos
