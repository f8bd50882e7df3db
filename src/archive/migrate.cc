#include "archive/migrate.h"

#include <algorithm>
#include <filesystem>

#include "archive/object_store.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/trace.h"

namespace daspos {

namespace fs = std::filesystem;

namespace {

constexpr char kMarkerFile[] = "MIGRATING";
constexpr char kGenerationFile[] = "GENERATION";

/// Per-object outcome inside a batch (folded serially in input order).
struct CopySlot {
  Status status;
  bool copied = false;
  uint64_t bytes = 0;
};

}  // namespace

uint64_t ReadGeneration(const std::string& state_dir) {
  auto text = ReadFileToString(state_dir + "/" + kGenerationFile);
  if (!text.ok()) return 0;
  auto parsed = Json::Parse(*text);
  return parsed.ok() ? parsed->Get("generation").as_uint().value_or(0) : 0;
}

std::string MigrateReport::RenderText() const {
  std::string out = "migration to generation " + std::to_string(generation) +
                    (resumed ? " (resumed)" : "") + ": " +
                    std::to_string(copied) + " copied, " +
                    std::to_string(skipped) + " already present, " +
                    std::to_string(verified) + "/" +
                    std::to_string(objects_total) + " verified on target, " +
                    FormatBytes(bytes_copied) + " moved\n";
  out += "swap: generation marker now " + std::to_string(generation) + "\n";
  return out;
}

Json MigrateReport::ToJson() const {
  Json json = Json::Object();
  json["generation"] = generation;
  json["objects_total"] = objects_total;
  json["copied"] = copied;
  json["skipped"] = skipped;
  json["bytes_copied"] = bytes_copied;
  json["verified"] = verified;
  json["resumed"] = resumed;
  json["wall_ms"] = wall_ms;
  return json;
}

Result<MigrateReport> MigrateGeneration(const ObjectStore& source,
                                        ObjectStore& target,
                                        const MigrateOptions& options) {
  if (options.state_dir.empty()) {
    return Status::InvalidArgument(
        "migration needs a state_dir for its cursor and generation marker");
  }
  if (options.batch_size == 0) {
    return Status::InvalidArgument("migrate batch_size must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(options.state_dir, ec);
  if (ec) {
    return Status::IOError("cannot create migration state_dir " +
                           options.state_dir + ": " + ec.message());
  }
  using namespace metric_names;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& objects_counter = registry.GetCounter(kMigrateObjectsTotal);
  Counter& bytes_counter = registry.GetCounter(kMigrateBytesTotal);
  Counter& resumed_counter = registry.GetCounter(kMigrateResumedTotal);
  Counter& verify_failures = registry.GetCounter(kMigrateVerifyFailuresTotal);

  Span span("migrate:run", "archive");
  MigrateReport report;
  report.generation = ReadGeneration(options.state_dir) + 1;

  // The in-progress marker is written before the first copy and removed at
  // the swap, so a surviving one means a previous invocation died mid-run;
  // the target-presence checks below skip whatever it completed.
  const std::string marker_path = options.state_dir + "/" + kMarkerFile;
  if (FileExists(marker_path)) {
    report.resumed = true;
    resumed_counter.Increment();
    DASPOS_LOG(kWarning) << "resuming interrupted migration to generation "
                         << report.generation;
  } else {
    Json in_progress = Json::Object();
    in_progress["generation"] = report.generation;
    DASPOS_RETURN_IF_ERROR(
        AtomicWriteFile(marker_path, in_progress.Dump() + "\n"));
  }

  span.AddAttribute("generation", report.generation);

  // Phase 1 — copy: every object lands on the target and the *target's*
  // bytes are re-hashed before the object counts as migrated. Ids stream
  // from the source in ascending order (ForEachId), so only one batch of
  // ids is ever resident — constant memory however large the store — while
  // fault-plan ordinals stay deterministic (same order as the old sorted
  // vector). A partially unreadable source fails the run: migrating "what
  // we could see" and then swapping generations would silently shrink the
  // archive.
  std::vector<std::string> batch;
  batch.reserve(options.batch_size);
  auto process_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    Span batch_span("migrate:batch", "archive");
    batch_span.AddAttribute("objects", static_cast<uint64_t>(batch.size()));
    std::vector<CopySlot> slots = ParallelMap<CopySlot>(
        options.pool, batch.size(),
        [&](size_t i) {
          const std::string& id = batch[i];
          CopySlot slot;
          // Already verifying on the target: completed by a previous run
          // (or deduplicated content). Nothing to move.
          if (target.Verify(id).ok()) return slot;
          if (options.faults != nullptr) {
            slot.status = options.faults->Next("migrate:copy");
            if (!slot.status.ok()) return slot;
          }
          auto bytes = source.Get(id);
          if (!bytes.ok()) {
            slot.status = bytes.status();
            return slot;
          }
          auto put = target.Put(*bytes);
          if (!put.ok()) {
            slot.status = put.status();
            return slot;
          }
          // Copy-verify: re-hash the target's copy; a torn or bit-flipped
          // landing must never count as migrated.
          slot.status = target.Verify(id);
          if (!slot.status.ok()) return slot;
          slot.copied = true;
          slot.bytes = bytes->size();
          return slot;
        },
        /*grain=*/1);
    for (const CopySlot& slot : slots) {
      if (!slot.status.ok()) {
        if (slot.status.IsCorruption()) verify_failures.Increment();
        // The resume path re-checks target presence, so no completed copy
        // is lost.
        return slot.status;
      }
      if (slot.copied) {
        ++report.copied;
        report.bytes_copied += slot.bytes;
      } else {
        ++report.skipped;
      }
    }
    objects_counter.Increment(batch.size());
    report.objects_total += batch.size();
    batch.clear();
    return Status::OK();
  };
  DASPOS_RETURN_IF_ERROR(source.ForEachId([&](const std::string& id) {
    batch.push_back(id);
    if (batch.size() >= options.batch_size) return process_batch();
    return Status::OK();
  }));
  DASPOS_RETURN_IF_ERROR(process_batch());
  span.AddAttribute("objects", report.objects_total);
  bytes_counter.Increment(report.bytes_copied);

  // Phase 2 — verify: a full serial sweep re-hashes every object on the
  // target, including ones skipped as already-present. The swap certifies
  // the *current* holdings, not this run's memory of them. The sweep
  // streams the source's ids again rather than caching phase 1's list —
  // same constant-memory bound, same ascending order.
  {
    Span verify_span("migrate:verify", "archive");
    DASPOS_RETURN_IF_ERROR(source.ForEachId([&](const std::string& id) {
      if (options.faults != nullptr) {
        Status fault = options.faults->Next("migrate:verify");
        if (!fault.ok()) return fault;
      }
      Status landed = target.Verify(id);
      if (!landed.ok()) {
        verify_failures.Increment();
        return Status::Corruption("final sweep: object " + id +
                                  " does not verify on target (" +
                                  landed.ToString() +
                                  "); generation swap refused");
      }
      ++report.verified;
      return Status::OK();
    }));
  }

  // Phase 3 — swap: atomically install the new generation marker. The
  // source store is untouched; rollback is "keep reading generation N".
  DASPOS_ASSIGN_OR_RETURN(uint64_t target_bytes, target.TotalBytes());
  Json marker = Json::Object();
  marker["generation"] = report.generation;
  marker["objects"] = report.objects_total;
  marker["bytes"] = target_bytes;
  DASPOS_RETURN_IF_ERROR(AtomicWriteFile(
      options.state_dir + "/" + kGenerationFile, marker.Dump(2) + "\n"));
  // The migration is complete: drop the marker so the next generation's
  // migration starts fresh instead of reporting a spurious resume.
  DASPOS_RETURN_IF_ERROR(RemoveFile(marker_path));

  report.wall_ms = span.ElapsedMillis();
  return report;
}

}  // namespace daspos
