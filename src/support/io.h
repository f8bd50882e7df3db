// Whole-file IO helpers with Status-based error reporting.
#ifndef DASPOS_SUPPORT_IO_H_
#define DASPOS_SUPPORT_IO_H_

#include <string>
#include <string_view>

#include "support/result.h"
#include "support/status.h"

namespace daspos {

/// Reads the entire file at `path` into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Reads the file in fixed-size chunks, feeding each chunk to an incremental
/// SHA-256 as it lands, so the bytes are read and hashed in one pass (no
/// second full-buffer scan). On success `*sha256_hex` holds the 64-char hex
/// digest and the return value holds the contents.
Result<std::string> ReadFileHashed(const std::string& path,
                                   std::string* sha256_hex);

/// Streaming SHA-256 of the file at `path` without retaining the contents:
/// constant memory regardless of file size.
Result<std::string> HashFileHex(const std::string& path);

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
/// crash too. The append-only JSONL state files (run journal, scrub and
/// migrate cursors, pack quarantine log) reach it only through
/// AppendJsonLine (serialize/json.h), their one writer.
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
