// SHA-256 (FIPS 180-4). Used for archive fixity and content addressing.
// Self-contained implementation: the preservation archive must not depend on
// the presence of a system crypto library to verify its own holdings.
#ifndef DASPOS_SUPPORT_SHA256_H_
#define DASPOS_SUPPORT_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace daspos {

class Sha256;

namespace sha256_internal {
/// Block-compression kernel: folds `nblocks` consecutive 64-byte blocks at
/// `data` into the eight-word `state`.
using Kernel = void (*)(uint32_t* state, const uint8_t* data, size_t nblocks);
/// A hasher bound to `kernel` instead of the runtime-selected one (tests
/// pin each kernel through this; see support/sha256_internal.h).
Sha256 HasherWith(Kernel kernel);
}  // namespace sha256_internal

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.Update(chunk1);
///   h.Update(chunk2);
///   std::string hex = h.HexDigest();
///
/// The block kernel is chosen once per process from the CPU: the x86-64
/// SHA extensions when present, portable scalar code otherwise. Both compute
/// the same function, so digests never depend on the host.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256();

  /// Resets to the initial state (empty message).
  void Reset();

  /// Absorbs `len` bytes at `data`.
  void Update(const void* data, size_t len);
  void Update(std::string_view data) { Update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest. The hasher is left finalized;
  /// call Reset() to reuse.
  std::array<uint8_t, kDigestSize> Digest();

  /// Finalizes and returns the digest as 64 lowercase hex characters.
  std::string HexDigest();

  /// One-shot convenience: hex digest of `data`.
  static std::string HashHex(std::string_view data);

  /// The block kernel this process selected: "sha-ni" or "portable".
  static const char* KernelName();

 private:
  friend Sha256 sha256_internal::HasherWith(sha256_internal::Kernel);
  explicit Sha256(sha256_internal::Kernel kernel);

  sha256_internal::Kernel kernel_;
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

}  // namespace daspos

#endif  // DASPOS_SUPPORT_SHA256_H_
