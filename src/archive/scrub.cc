#include "archive/scrub.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "archive/object_store.h"
#include "archive/replicated_store.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/metrics_registry.h"
#include "support/parallel.h"
#include "support/sha256.h"
#include "support/strings.h"
#include "support/trace.h"

namespace daspos {

namespace fs = std::filesystem;

namespace {

constexpr char kCursorFile[] = "scrub_cursor.jsonl";

/// One checkpoint line of the persistent cursor. `last_id` is the highest
/// id whose batch fully settled; `complete` marks the end of a pass.
struct CursorRecord {
  uint64_t pass = 1;
  std::string last_id;
  uint64_t checked = 0;
  uint64_t repaired = 0;
  bool complete = false;
};

Json CursorToJson(const CursorRecord& record) {
  Json json = Json::Object();
  json["pass"] = record.pass;
  json["last_id"] = record.last_id;
  json["checked"] = record.checked;
  json["repaired"] = record.repaired;
  json["complete"] = record.complete;
  return json;
}

/// `pass` must be at least 1; `checked` and `repaired` may be absent (zero),
/// but a present count must be a valid uint (Json::as_uint).
bool CursorFromJson(const Json& json, CursorRecord* out) {
  std::optional<uint64_t> pass = json.Get("pass").as_uint();
  if (!pass || *pass < 1) return false;
  if (!json.Get("last_id").is_string() || !json.Get("complete").is_bool()) {
    return false;
  }
  out->pass = *pass;
  out->last_id = json.Get("last_id").as_string();
  out->complete = json.Get("complete").as_bool();
  auto read_count = [&json](const char* key, uint64_t* count) {
    if (!json.Has(key)) return true;
    std::optional<uint64_t> value = json.Get(key).as_uint();
    if (value) *count = *value;
    return value.has_value();
  };
  return read_count("checked", &out->checked) &&
         read_count("repaired", &out->repaired);
}

/// Where the next invocation starts: the latest valid cursor record of an
/// interrupted pass, the top of the next pass after a completed one, or a
/// fresh pass 1. Loading stops at the first line that is not a valid record
/// (ParseJsonLines): everything before a crash-truncated tail is usable.
CursorRecord LoadCursor(const std::string& dir) {
  CursorRecord state;
  auto text = ReadFileToString(dir + "/" + kCursorFile);
  if (!text.ok()) return state;
  for (const Json& line : ParseJsonLines(*text)) {
    CursorRecord record;
    if (!CursorFromJson(line, &record)) break;
    state = record;
  }
  if (state.complete) state = {state.pass + 1, "", 0, 0, false};
  return state;
}

/// Appends one durable cursor line (AppendJsonLine).
Status AppendCursor(const std::string& dir, const CursorRecord& record) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create scrub cursor directory " + dir +
                           ": " + ec.message());
  }
  return AppendJsonLine(dir + "/" + kCursorFile, CursorToJson(record));
}

/// Outcome of scrubbing one object across all replicas.
struct ObjectOutcome {
  uint64_t replicas_checked = 0;
  uint64_t repaired = 0;
  bool unrepairable = false;
  std::string detail;
};

/// Verifies `id` on every replica and heals unhealthy copies from a
/// healthy one. Thread-safe across distinct ids (FileObjectStore ops are
/// concurrent-safe; the batch shards over distinct ids only).
ObjectOutcome ScrubObject(const std::vector<ObjectStore*>& replicas,
                          const std::string& id) {
  ObjectOutcome outcome;
  std::vector<size_t> healthy;
  std::vector<size_t> unhealthy;
  for (size_t i = 0; i < replicas.size(); ++i) {
    ++outcome.replicas_checked;
    // Verify always hashes the real bytes. A rotted copy is set aside as
    // evidence whether or not a healthy replica can replace it.
    Status verified = replicas[i]->Verify(id);
    if (verified.ok()) {
      healthy.push_back(i);
      continue;
    }
    unhealthy.push_back(i);
    if (!verified.IsCorruption()) continue;
    Status set_aside = replicas[i]->Quarantine(id, verified.message());
    if (!set_aside.ok()) {
      DASPOS_LOG(kWarning) << "scrub of object " << id << " on replica " << i
                           << " kept no evidence: " << set_aside.ToString();
    }
  }
  if (unhealthy.empty()) return outcome;
  // Repair from a replica: fetch healthy bytes and re-Put them into every
  // replica whose copy rotted or is missing. Only when no replica holds
  // verifying bytes is the object left quarantined (unrepairable).
  std::string bytes;
  bool have_bytes = false;
  for (size_t i : healthy) {
    auto got = replicas[i]->Get(id);
    if (got.ok() && Sha256::HashHex(*got) == id) {
      bytes = std::move(*got);
      have_bytes = true;
      break;
    }
  }
  if (!have_bytes) {
    outcome.unrepairable = true;
    outcome.detail = "no healthy copy on any replica";
    return outcome;
  }
  for (size_t i : unhealthy) {
    auto healed = replicas[i]->Put(bytes);
    if (healed.ok() && replicas[i]->Verify(id).ok()) {
      ++outcome.repaired;
    } else {
      // A copy that cannot be healed leaves the object under-replicated;
      // the pass must not certify it.
      outcome.unrepairable = true;
      outcome.detail = "repair of replica " + std::to_string(i) + " failed";
    }
  }
  return outcome;
}

}  // namespace

std::string_view ScrubVerdictName(ScrubVerdict verdict) {
  switch (verdict) {
    case ScrubVerdict::kPass: return "PASS";
    case ScrubVerdict::kWarn: return "WARN";
    case ScrubVerdict::kFail: return "FAIL";
  }
  return "FAIL";
}

ScrubVerdict ScrubReport::Verdict() const {
  if (!unrepairable.empty()) return ScrubVerdict::kFail;
  if (!complete) return ScrubVerdict::kWarn;
  return ScrubVerdict::kPass;
}

std::string ScrubReport::RenderText() const {
  std::string out = "scrub pass " + std::to_string(pass_number) + ": " +
                    std::to_string(objects_checked) + "/" +
                    std::to_string(objects_total) + " object(s), " +
                    std::to_string(replicas_checked) +
                    " replica copies checked, " + std::to_string(repaired) +
                    " repaired\n";
  for (const UnrepairableObject& object : unrepairable) {
    out += "UNREPAIRABLE: " + object.id + " (" + object.detail + ")\n";
  }
  if (!complete) {
    out += "incomplete: pass truncated by --max-objects; rerun to continue\n";
  }
  out += "verdict: " + std::string(ScrubVerdictName(Verdict())) + "\n";
  return out;
}

Json ScrubReport::ToJson() const {
  Json json = Json::Object();
  json["pass"] = pass_number;
  json["objects_checked"] = objects_checked;
  json["objects_total"] = objects_total;
  json["replicas_checked"] = replicas_checked;
  json["repaired"] = repaired;
  Json bad = Json::Array();
  for (const UnrepairableObject& object : unrepairable) {
    Json entry = Json::Object();
    entry["id"] = object.id;
    entry["detail"] = object.detail;
    bad.push_back(std::move(entry));
  }
  json["unrepairable"] = std::move(bad);
  json["complete"] = complete;
  json["wall_ms"] = wall_ms;
  json["verdict"] = ToLower(ScrubVerdictName(Verdict()));
  return json;
}

Result<ScrubReport> ScrubReplicas(const std::vector<ObjectStore*>& replicas,
                                  const ScrubOptions& options) {
  if (replicas.empty()) {
    return Status::InvalidArgument("scrub needs at least one replica");
  }
  if (options.batch_size == 0) {
    return Status::InvalidArgument("scrub batch_size must be >= 1");
  }
  using namespace metric_names;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& passes = registry.GetCounter(kScrubPassesTotal);
  Counter& objects = registry.GetCounter(kScrubObjectsTotal);
  Counter& repairs = registry.GetCounter(kScrubRepairsTotal);
  Counter& unrepairable_total = registry.GetCounter(kScrubUnrepairableTotal);
  Histogram& batch_wall = registry.GetHistogram(kScrubBatchWallMs);

  Span span("scrub:pass", "scrub");
  std::function<void(double)> sleeper = options.sleeper;
  if (!sleeper) {
    sleeper = [](double ms) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    };
  }

  ScrubReport report;
  // Union of holdings across replicas, sorted and deduplicated: a hole on
  // one replica is a scrub finding (backfill), not an enumeration gap. A
  // replica whose walk partially failed still contributes everything
  // reachable; its missing objects surface through the other replicas'
  // listings.
  std::vector<std::string> ids;
  Status walk = ReplicatedObjectStore(replicas).ForEachId(
      [&ids](const std::string& id) {
        ids.push_back(id);
        return Status::OK();
      });
  if (!walk.ok()) {
    DASPOS_LOG(kWarning) << "scrub: replica enumeration incomplete: "
                         << walk.ToString();
  }
  report.objects_total = ids.size();

  // Resume position from the persistent cursor: an interrupted pass picks
  // up after the last checkpointed id; a new pass (empty last_id) starts
  // at the top.
  CursorRecord cursor;
  if (!options.cursor_dir.empty()) cursor = LoadCursor(options.cursor_dir);
  const size_t begin = static_cast<size_t>(
      std::upper_bound(ids.begin(), ids.end(), cursor.last_id) - ids.begin());
  report.pass_number = cursor.pass;
  span.AddAttribute("pass", cursor.pass);
  span.AddAttribute("objects", static_cast<uint64_t>(ids.size()));

  const size_t budget =
      options.max_objects == 0
          ? ids.size() - begin
          : std::min(ids.size() - begin, options.max_objects);
  const size_t end = begin + budget;

  for (size_t batch_begin = begin; batch_begin < end;) {
    const size_t batch_end =
        std::min(end, batch_begin + options.batch_size);
    const size_t batch_count = batch_end - batch_begin;
    Span batch_span("scrub:batch", "scrub");
    batch_span.AddAttribute("objects", static_cast<uint64_t>(batch_count));
    // Shard the batch over the pool: each worker owns distinct ids, so the
    // per-replica stores only see concurrent ops on different objects.
    std::vector<ObjectOutcome> outcomes = ParallelMap<ObjectOutcome>(
        options.pool, batch_count,
        [&replicas, &ids, batch_begin](size_t i) {
          return ScrubObject(replicas, ids[batch_begin + i]);
        },
        /*grain=*/1);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const ObjectOutcome& outcome = outcomes[i];
      ++report.objects_checked;
      report.replicas_checked += outcome.replicas_checked;
      report.repaired += outcome.repaired;
      if (outcome.unrepairable) {
        report.unrepairable.push_back(
            {ids[batch_begin + i], outcome.detail});
      }
    }
    objects.Increment(batch_count);
    // Observed here rather than at span close: the histogram and the rate
    // limiter time the scrub work, not the checkpoint or the sleep below.
    const double batch_ms = batch_span.ElapsedMillis();
    batch_wall.Observe(batch_ms);

    // Checkpoint after the batch settles: the cursor only ever names ids
    // whose scrub (including repairs) is fully done.
    cursor.last_id = ids[batch_end - 1];
    cursor.checked += batch_count;
    cursor.complete = batch_end == ids.size();
    if (!options.cursor_dir.empty()) {
      DASPOS_RETURN_IF_ERROR(AppendCursor(options.cursor_dir, cursor));
    }
    batch_begin = batch_end;

    // Rate limit: hold the pass to rate_limit_per_s objects/second by
    // sleeping off whatever the batch finished early.
    if (options.rate_limit_per_s > 0.0 && batch_begin < end) {
      const double target_ms =
          1000.0 * static_cast<double>(batch_count) / options.rate_limit_per_s;
      if (target_ms > batch_ms) sleeper(target_ms - batch_ms);
    }
  }

  // A pass whose remainder is empty (the objects after last_id were
  // removed) still closes: without this line no batch would ever record
  // the end, and every later run would report the same pass.
  if (begin == ids.size() && !cursor.last_id.empty() &&
      !options.cursor_dir.empty()) {
    cursor.complete = true;
    DASPOS_RETURN_IF_ERROR(AppendCursor(options.cursor_dir, cursor));
  }

  report.complete = end == ids.size();
  report.wall_ms = span.ElapsedMillis();
  repairs.Increment(report.repaired);
  unrepairable_total.Increment(report.unrepairable.size());
  if (report.complete) passes.Increment();
  if (report.repaired > 0) {
    DASPOS_LOG(kWarning) << "scrub pass " << report.pass_number
                         << " repaired " << report.repaired
                         << " replica cop(ies); media may be rotting";
  }
  return report;
}

}  // namespace daspos
