// Client-side pieces of the service workloads that tests exercise directly:
// the response stream framer and the Get response check.
#ifndef DASPOS_PERFBENCH_SERVICE_H_
#define DASPOS_PERFBENCH_SERVICE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/protocol.h"
#include "support/result.h"

namespace perfbench {

/// One response frame, viewing bytes owned by the FrameBuffer it came from
/// (valid until the next Reserve/Commit).
struct Frame {
  daspos::net::FrameHeader header;
  std::string_view payload;
};

/// Accumulates bytes read from a socket and splits them into frames.
class FrameBuffer {
 public:
  explicit FrameBuffer(size_t capacity = 1u << 20);

  /// Room for at least `min_free` more bytes (compacting consumed bytes
  /// first); read into it, then Commit what arrived.
  char* Reserve(size_t min_free);
  size_t free_bytes() const { return bytes_.size() - end_; }
  void Commit(size_t n) { end_ += n; }

  /// The next complete frame, std::nullopt while more bytes are needed, or
  /// Corruption for a malformed header (the stream cannot be resynced) or a
  /// declared payload above `max_payload`.
  daspos::Result<std::optional<Frame>> Next(size_t max_payload = 64u << 20);

 private:
  std::vector<char> bytes_;
  size_t begin_ = 0;  ///< first unconsumed byte
  size_t end_ = 0;    ///< one past the last received byte
};

/// True when `frame` is the GET_OK answer to request `request_id` and its
/// body is exactly `expected_body`.
bool CheckGetResponse(const Frame& frame, uint64_t request_id,
                      std::string_view expected_body);

}  // namespace perfbench

#endif  // DASPOS_PERFBENCH_SERVICE_H_
