// Whole-file IO helpers with Status-based error reporting.
#ifndef DASPOS_SUPPORT_IO_H_
#define DASPOS_SUPPORT_IO_H_

#include <string>
#include <string_view>

#include "support/result.h"
#include "support/status.h"

namespace daspos {

class Sha256;

/// Reads the entire file at `path` into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Reads the file at `path` in fixed-size chunks, feeding each chunk to
/// `hasher` as it lands, so the bytes are read and hashed in one pass. When
/// `contents` is non-null the bytes are appended to it too (reserved to the
/// file's size up front); when null the read keeps nothing, so memory stays
/// constant whatever the file's size.
Status StreamFile(const std::string& path, Sha256& hasher,
                  std::string* contents);

/// Writes `data` to `path`, creating parent directories as needed and
/// truncating any existing file.
Status WriteStringToFile(const std::string& path, std::string_view data);

/// Crash-safe variant of WriteStringToFile: writes to a temporary file in
/// the same directory, fsyncs it, then atomically renames it over `path`.
/// A crash mid-write leaves either the old content or the new content at
/// `path`, never a partial file.
Status AtomicWriteFile(const std::string& path, std::string_view data);

/// Writes all of `data` to `fd`, resuming after short writes and EINTR.
/// Errors name `path`, the file behind `fd`.
Status WriteAll(int fd, std::string_view data, const std::string& path);

/// Fsyncs `fd`, the open file at `path` (named in the error).
Status FsyncFile(int fd, const std::string& path);

/// Durable append of `data` to the file at `path`: opens it with O_APPEND
/// (creating it if absent), writes every byte, fsyncs, and, when this call
/// created the file, fsyncs the parent directory so the new name survives a
/// crash too. The append-only JSONL state files (run journal, scrub
/// cursor, pack quarantine log) reach it only through AppendJsonLine
/// (serialize/json.h), their one writer.
Status AppendDurable(const std::string& path, std::string_view data);

/// Fsyncs the directory at `dir` so directory-entry mutations (a freshly
/// created file, a rename) survive a crash. Creating a file and fsyncing its
/// fd makes the *bytes* durable, but the *name* lives in the directory, which
/// has its own durability point — without this, a crash can lose a file whose
/// write already returned OK.
Status FsyncDir(const std::string& dir);

/// True if a regular file exists at `path`.
bool FileExists(const std::string& path);

/// Removes the file at `path` if present; missing files are not an error.
Status RemoveFile(const std::string& path);

}  // namespace daspos

#endif  // DASPOS_SUPPORT_IO_H_
