// Run journal: the crash-recovery checkpoint for workflow execution.
//
// A journal is a directory holding `journal.jsonl` (one JSON record per
// completed step, appended and fsynced as the run progresses) and `objects/`
// (a content-addressed FileObjectStore with each step's output blob, keyed
// by digest). An interrupted run can be resumed by re-executing only the
// steps whose journal records are missing or no longer verify — the digest
// check is literal: blobs are re-hashed on load.
#ifndef DASPOS_WORKFLOW_JOURNAL_H_
#define DASPOS_WORKFLOW_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archive/object_store.h"
#include "support/result.h"
#include "support/sync.h"

namespace daspos {

/// Append-only record of completed workflow steps with checkpointed output
/// blobs. Append is thread-safe (workers checkpoint concurrently); loading
/// tolerates a truncated final line, which is exactly what a crash mid-append
/// leaves behind.
class RunJournal {
 public:
  /// One completed step. `digest` is the SHA-256 content id of the output
  /// blob in the journal's object store; `config_hash` identifies the step
  /// configuration and `inputs` maps each input dataset to a hex SHA-256
  /// of its bytes (a container's footer digest, which covers them, or else
  /// a hash of the whole dataset), so a resumed run never reuses output
  /// produced under a different config or from different inputs. A line
  /// written before inputs were recorded reads back with `inputs` unset.
  struct Record {
    std::string step;
    std::string output;
    std::string digest;
    std::string config_hash;
    uint64_t bytes = 0;
    uint64_t events = 0;
    std::optional<std::map<std::string, std::string>> inputs;
  };

  /// Opens (creating if needed) the journal directory and loads any existing
  /// records. Parsing stops silently at the first malformed line: everything
  /// before a crash-truncated tail is still usable.
  static Result<std::unique_ptr<RunJournal>> Open(const std::string& dir);

  /// Checkpoints one completed step: stores `blob` in the object store
  /// (filling record.digest), then appends the record as one fsynced JSONL
  /// line. The blob is durable before the journal line that references it.
  Status Append(Record record, std::string_view blob) DASPOS_EXCLUDES(mu_);

  /// Latest record for `step` (copied; safe to hold across Appends), or
  /// nullopt if none. Later records win, so a re-run that re-checkpoints a
  /// step supersedes the stale entry.
  std::optional<Record> Find(const std::string& step) const
      DASPOS_EXCLUDES(mu_);

  /// Loads a checkpointed blob; the store re-hashes on read, so a rotted
  /// checkpoint comes back as Corruption, never as wrong bytes.
  Result<std::string> LoadBlob(const std::string& digest) const;

  /// Snapshot of all records (copied under the lock).
  std::vector<Record> records() const DASPOS_EXCLUDES(mu_);
  const std::string& dir() const { return dir_; }

  /// Path of the JSONL file inside a journal directory.
  static std::string LinesPath(const std::string& dir);

 private:
  explicit RunJournal(std::string dir);

  std::string dir_;
  FileObjectStore objects_;
  /// Serializes appends (one fsynced JSONL line at a time) and guards the
  /// in-memory mirror of the file.
  mutable Mutex mu_;
  std::vector<Record> records_ DASPOS_GUARDED_BY(mu_);
};

}  // namespace daspos

#endif  // DASPOS_WORKFLOW_JOURNAL_H_
