#include "support/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "support/sha256.h"

namespace daspos {

namespace fs = std::filesystem;

namespace {

// Streaming read granularity: large enough to amortize syscalls, small
// enough that the hash pipeline stays in cache.
constexpr size_t kHashChunkBytes = 256 * 1024;

/// Shared streaming core: reads `path` chunk by chunk, updating `hasher`
/// with every chunk; appends the bytes to `*contents` when non-null.
Status StreamFile(const std::string& path, Sha256& hasher,
                  std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string chunk(kHashChunkBytes, '\0');
  for (;;) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    std::streamsize got = in.gcount();
    if (got > 0) {
      std::string_view view(chunk.data(), static_cast<size_t>(got));
      hasher.Update(view);
      if (contents != nullptr) contents->append(view);
    }
    if (in.eof()) return Status::OK();
    if (!in) return Status::IOError("short read: " + path);
  }
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string data;
  in.seekg(0, std::ios::end);
  std::streampos size = in.tellg();
  if (size < 0) return Status::IOError("cannot stat: " + path);
  data.resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(data.data(), size);
  if (!in) return Status::IOError("short read: " + path);
  return data;
}

Result<std::string> ReadFileHashed(const std::string& path,
                                   std::string* sha256_hex) {
  Sha256 hasher;
  std::string contents;
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  if (!ec) contents.reserve(static_cast<size_t>(size));
  DASPOS_RETURN_IF_ERROR(StreamFile(path, hasher, &contents));
  if (sha256_hex != nullptr) *sha256_hex = hasher.HexDigest();
  return contents;
}

Result<std::string> HashFileHex(const std::string& path) {
  Sha256 hasher;
  DASPOS_RETURN_IF_ERROR(StreamFile(path, hasher, nullptr));
  return hasher.HexDigest();
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  std::error_code ec;
  fs::path p(path);
  if (p.has_parent_path()) {
    fs::create_directories(p.parent_path(), ec);
    if (ec) {
      return Status::IOError("cannot create directories for: " + path + ": " +
                             ec.message());
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  std::error_code ec;
  fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::IOError("cannot create directories for: " + path + ": " +
                             ec.message());
    }
  }
  // The temporary lives in the target's directory so the final rename never
  // crosses a filesystem boundary (rename is only atomic within one).
  static std::atomic<uint64_t> counter{0};
  std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(counter.fetch_add(1));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open for write: " + tmp + ": " +
                           std::strerror(errno));
  }
  Status written = WriteAll(fd, data, tmp);
  // Durability point: the bytes must be on stable storage before the rename
  // publishes them, or a crash could leave a renamed-but-empty file.
  if (written.ok()) written = FsyncFile(fd, tmp);
  if (!written.ok()) {
    ::close(fd);
    (void)::unlink(tmp.c_str());
    return written;
  }
  if (::close(fd) != 0) {
    (void)::unlink(tmp.c_str());
    return Status::IOError("close failed: " + tmp);
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    (void)::unlink(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  // The rename is a directory-entry mutation, so it has its own durability
  // point: until the directory is synced, a crash can roll the entry back
  // even though the data fsync succeeded. Propagate failure — an atomic
  // write that may vanish must not report OK.
  if (target.has_parent_path()) {
    DASPOS_RETURN_IF_ERROR(FsyncDir(target.parent_path().string()));
  }
  return Status::OK();
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  while (!data.empty()) {
    ssize_t written = ::write(fd, data.data(), data.size());
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write failed: " + path + ": " +
                             std::strerror(errno));
    }
    data.remove_prefix(static_cast<size_t>(written));
  }
  return Status::OK();
}

Status FsyncFile(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::IOError("fsync failed: " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status AppendDurable(const std::string& path, std::string_view data) {
  const bool created = !FileExists(path);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot open for append: " + path + ": " +
                           std::strerror(errno));
  }
  Status status = WriteAll(fd, data, path);
  if (status.ok()) status = FsyncFile(fd, path);
  ::close(fd);
  // Fsyncing the file makes its bytes durable, but a fresh file's name
  // lives in the directory, which has its own durability point. Without
  // this a crash can lose the whole file although the append returned OK.
  if (status.ok() && created) {
    const fs::path parent = fs::path(path).parent_path();
    status = FsyncDir(parent.empty() ? "." : parent.string());
  }
  return status;
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory for fsync: " + dir + ": " +
                           std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::IOError("directory fsync failed: " + dir + ": " +
                           std::strerror(saved));
  }
  ::close(fd);
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec);
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IOError("cannot remove: " + path + ": " + ec.message());
  return Status::OK();
}

}  // namespace daspos
