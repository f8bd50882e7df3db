#include "conditions/store.h"

#include <algorithm>

namespace daspos {

Status ConditionsDb::Put(const std::string& tag, const RunRange& range,
                         std::string payload) {
  if (!range.Valid()) {
    return Status::InvalidArgument("invalid run range " + range.ToString());
  }
  auto& entries = tags_[tag];
  for (const Entry& entry : entries) {
    if (entry.range.Overlaps(range)) {
      return Status::AlreadyExists("IOV overlap for tag '" + tag + "': " +
                                   entry.range.ToString() + " vs " +
                                   range.ToString());
    }
  }
  entries.push_back({range, std::move(payload)});
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.range.first_run < b.range.first_run;
            });
  return Status::OK();
}

Status ConditionsDb::Append(const std::string& tag, uint32_t first_run,
                            std::string payload) {
  auto it = tags_.find(tag);
  if (it != tags_.end() && !it->second.empty()) {
    Entry& last = it->second.back();
    if (first_run <= last.range.first_run) {
      return Status::InvalidArgument(
          "Append must advance: tag '" + tag + "' already has IOV " +
          last.range.ToString());
    }
    if (last.range.last_run >= first_run) {
      last.range.last_run = first_run - 1;
    }
  }
  return Put(tag, RunRange::From(first_run), std::move(payload));
}

Result<std::string> ConditionsDb::GetPayload(const std::string& tag,
                                             uint32_t run) const {
  ++lookup_count_;
  auto it = tags_.find(tag);
  if (it == tags_.end()) {
    return Status::NotFound("unknown conditions tag '" + tag + "'");
  }
  for (const Entry& entry : it->second) {
    if (entry.range.Contains(run)) return entry.payload;
  }
  return Status::NotFound("no IOV for tag '" + tag + "' at run " +
                          std::to_string(run));
}

std::vector<std::string> ConditionsDb::Tags() const {
  std::vector<std::string> out;
  out.reserve(tags_.size());
  for (const auto& [tag, entries] : tags_) {
    (void)entries;
    out.push_back(tag);
  }
  return out;
}

}  // namespace daspos
