// Internal to support/sha256: the block kernels behind Sha256, exposed so
// tests can pin and cross-check each one. Everything else hashes through
// Sha256, which selects its kernel from the CPU.
#ifndef DASPOS_SUPPORT_SHA256_INTERNAL_H_
#define DASPOS_SUPPORT_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "support/sha256.h"

namespace daspos::sha256_internal {

/// Portable scalar kernel; runs everywhere and is the reference.
void CompressPortable(uint32_t* state, const uint8_t* data, size_t nblocks);

/// The x86-64 SHA-extensions kernel, or nullptr when this build has none
/// or the CPU lacks the extensions.
Kernel ShaNiKernel();

}  // namespace daspos::sha256_internal

#endif  // DASPOS_SUPPORT_SHA256_INTERNAL_H_
