#include "workflow/journal.h"

#include <filesystem>

#include "serialize/json.h"
#include "support/io.h"

namespace daspos {

namespace fs = std::filesystem;

namespace {

Json RecordToJson(const RunJournal::Record& record) {
  Json json = Json::Object();
  json["step"] = record.step;
  json["output"] = record.output;
  json["digest"] = record.digest;
  json["config_hash"] = record.config_hash;
  json["bytes"] = record.bytes;
  json["events"] = record.events;
  if (record.inputs.has_value()) {
    Json inputs = Json::Object();
    for (const auto& [name, digest] : *record.inputs) inputs[name] = digest;
    json["inputs"] = std::move(inputs);
  }
  return json;
}

/// A missing, non-numeric, negative or fractional count is corruption, not
/// zero: a crash-truncated or bit-rotted line must read as "not a record",
/// never as a record with bytes=0.
bool RecordFromJson(const Json& json, RunJournal::Record* out) {
  if (!json.Get("step").is_string() || !json.Get("output").is_string() ||
      !json.Get("digest").is_string() ||
      !json.Get("config_hash").is_string()) {
    return false;
  }
  std::optional<uint64_t> bytes = json.Get("bytes").as_uint();
  std::optional<uint64_t> events = json.Get("events").as_uint();
  if (!bytes || !events) return false;
  out->bytes = *bytes;
  out->events = *events;
  out->step = json.Get("step").as_string();
  out->output = json.Get("output").as_string();
  out->digest = json.Get("digest").as_string();
  out->config_hash = json.Get("config_hash").as_string();
  if (json.Has("inputs")) {
    const Json& inputs = json.Get("inputs");
    if (!inputs.is_object()) return false;
    out->inputs.emplace();
    for (const auto& [name, digest] : inputs.members()) {
      if (!digest.is_string()) return false;
      (*out->inputs)[name] = digest.as_string();
    }
  }
  return true;
}

}  // namespace

RunJournal::RunJournal(std::string dir)
    : dir_(std::move(dir)), objects_(dir_ + "/objects") {}

std::string RunJournal::LinesPath(const std::string& dir) {
  return dir + "/journal.jsonl";
}

Result<std::unique_ptr<RunJournal>> RunJournal::Open(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "objects", ec);
  if (ec) {
    return Status::IOError("cannot create journal directory " + dir + ": " +
                           ec.message());
  }
  std::unique_ptr<RunJournal> journal(new RunJournal(dir));
  const std::string lines_path = LinesPath(dir);
  if (FileExists(lines_path)) {
    DASPOS_ASSIGN_OR_RETURN(std::string text, ReadFileToString(lines_path));
    // No other thread can hold the journal yet, but records_ is guarded and
    // the analysis has no "not yet shared" notion — taking the lock here is
    // free and keeps the invariant unconditional.
    MutexLock lock(journal->mu_);
    for (const Json& line : ParseJsonLines(text)) {
      RunJournal::Record record;
      // A malformed line is a crash-truncated tail: keep everything before
      // it, ignore the rest. Resume re-executes from that point.
      if (!RecordFromJson(line, &record)) break;
      journal->records_.push_back(std::move(record));
    }
  }
  return journal;
}

Status RunJournal::Append(Record record, std::string_view blob) {
  // Blob first: the journal line must never reference bytes that are not
  // yet durable. FileObjectStore writes atomically (temp + fsync + rename).
  DASPOS_ASSIGN_OR_RETURN(record.digest, objects_.Put(blob));

  // Held across the file I/O on purpose: the lock also serializes appends,
  // so journal lines never interleave and records_ mirrors file order.
  MutexLock lock(mu_);
  // The record is not checkpointed until its line is durable and the file
  // reachable after a crash; surface any failure rather than remembering a
  // record the disk may not have.
  DASPOS_RETURN_IF_ERROR(AppendJsonLine(LinesPath(dir_), RecordToJson(record)));
  records_.push_back(std::move(record));
  return Status::OK();
}

std::optional<RunJournal::Record> RunJournal::Find(
    const std::string& step) const {
  MutexLock lock(mu_);
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->step == step) return *it;
  }
  return std::nullopt;
}

Result<std::string> RunJournal::LoadBlob(const std::string& digest) const {
  return objects_.Get(digest);
}

std::vector<RunJournal::Record> RunJournal::records() const {
  MutexLock lock(mu_);
  return records_;
}

}  // namespace daspos
