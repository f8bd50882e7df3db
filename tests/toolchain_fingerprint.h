// The toolchain a pinned digest was recorded on. Generation, simulation and
// reconstruction call libm, so a digest of their output holds only for the
// compiler, libm and architecture it was taken with. Tests that pin such
// digests compare this fingerprint with the one in the golden chain manifest
// (tests/golden/chain_z_ll_50_seed7.json) and skip elsewhere.
#ifndef DASPOS_TESTS_TOOLCHAIN_FINGERPRINT_H_
#define DASPOS_TESTS_TOOLCHAIN_FINGERPRINT_H_

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include <string>

#include "serialize/json.h"

namespace daspos {

/// The parts of the toolchain the chain's bytes can depend on.
inline Json ToolchainFingerprint() {
  Json fingerprint = Json::Object();
#if defined(__clang__)
  fingerprint["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fingerprint["compiler"] = "gcc " + std::to_string(__GNUC__) + "." +
                            std::to_string(__GNUC_MINOR__) + "." +
                            std::to_string(__GNUC_PATCHLEVEL__);
#else
  fingerprint["compiler"] = "unknown";
#endif
#if defined(__GLIBC__)
  fingerprint["libm"] = std::string("glibc ") + gnu_get_libc_version();
#else
  fingerprint["libm"] = "unknown";
#endif
#if defined(__x86_64__)
  fingerprint["arch"] = "x86_64";
#elif defined(__aarch64__)
  fingerprint["arch"] = "aarch64";
#else
  fingerprint["arch"] = "unknown";
#endif
  return fingerprint;
}

}  // namespace daspos

#endif  // DASPOS_TESTS_TOOLCHAIN_FINGERPRINT_H_
