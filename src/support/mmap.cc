#include "support/mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace daspos {

Result<MemoryMappedFile> MemoryMappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("mmap open failed for " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::IOError("mmap fstat failed for " + path + ": " +
                           std::strerror(saved));
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap(len=0) is EINVAL; an empty file is a valid (empty) mapping.
    ::close(fd);
    return MemoryMappedFile(nullptr, 0);
  }
  // MAP_SHARED, not MAP_PRIVATE: for a read-only mapping of a file that may
  // still be appended to, MAP_PRIVATE leaves visibility of post-map writes
  // unspecified; MAP_SHARED reads the page cache coherently. (The mapping's
  // length is still fixed at map time — growth needs a remap either way.)
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  int saved = errno;
  // The mapping keeps its own reference to the file; the fd is not needed
  // after mmap returns.
  ::close(fd);
  if (data == MAP_FAILED) {
    return Status::IOError("mmap failed for " + path + ": " +
                           std::strerror(saved));
  }
  MemoryMappedFile file(data, size);
  file.mapped_ = true;
  return file;
}

MemoryMappedFile::~MemoryMappedFile() {
  if (mapped_ && data_ != nullptr) ::munmap(data_, size_);
}

MemoryMappedFile::MemoryMappedFile(MemoryMappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_), mapped_(other.mapped_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MemoryMappedFile& MemoryMappedFile::operator=(
    MemoryMappedFile&& other) noexcept {
  if (this != &other) {
    if (mapped_ && data_ != nullptr) ::munmap(data_, size_);
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

}  // namespace daspos
