// Host facts printed beside every result, and the process/thread clocks the
// benchmark reads (peak RSS, per-thread CPU time).
#ifndef DASPOS_PERFBENCH_HOST_H_
#define DASPOS_PERFBENCH_HOST_H_

#include <pthread.h>

#include <string>

namespace perfbench {

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// Starts a peak-RSS window: returns freed heap to the OS (malloc_trim),
/// then resets VmHWM to the current RSS (Linux clear_refs "5"), so the next
/// PeakRssMib reads the peak since this call, measured from the same heap
/// state in every window. False when the kernel refuses the reset; VmHWM
/// then keeps the whole-process peak.
bool ResetPeakRss();

/// CPU time consumed so far by `thread`, in seconds.
double ThreadCpuSeconds(pthread_t thread);

/// Filesystem type of `path` ("tmpfs", "ext4", ... or the magic in hex).
std::string FilesystemType(const std::string& path);

/// One-line JSON fingerprint: nproc, CPU model, sha_ni/avx2 flags, compiler,
/// build type, source revision and the filesystem of `store_root`.
std::string HostFingerprint(const std::string& revision,
                            const std::string& store_root);

}  // namespace perfbench

#endif  // DASPOS_PERFBENCH_HOST_H_
