// Read-only memory-mapped file (the rct MemoryMappedFile idiom): open once,
// then serve reads as string_views straight into the kernel page cache with
// no per-read allocation or read() syscall. Intended for immutable files —
// the packfile backend maps sealed segments and never maps the one still
// being appended to.
#ifndef DASPOS_SUPPORT_MMAP_H_
#define DASPOS_SUPPORT_MMAP_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "support/result.h"

namespace daspos {

/// Move-only owner of one read-only mapping. The mapping (and every
/// string_view derived from view()) stays valid until the object is
/// destroyed or moved-from. An empty file maps to an empty view.
class MemoryMappedFile {
 public:
  static Result<MemoryMappedFile> Open(const std::string& path);

  MemoryMappedFile() = default;
  ~MemoryMappedFile();

  MemoryMappedFile(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile& operator=(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile(const MemoryMappedFile&) = delete;
  MemoryMappedFile& operator=(const MemoryMappedFile&) = delete;

  /// The whole file. Substring without copying: view().substr(off, len).
  std::string_view view() const {
    return std::string_view(static_cast<const char*>(data_), size_);
  }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr || size_ == 0; }

 private:
  MemoryMappedFile(void* data, size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
};

}  // namespace daspos

#endif  // DASPOS_SUPPORT_MMAP_H_
