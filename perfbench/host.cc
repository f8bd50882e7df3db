#include "host.h"

#include <malloc.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "serialize/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double ThreadCpuSeconds(pthread_t thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0.0;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
      return hex.str();
    }
  }
}

std::string HostFingerprint(const std::string& revision,
                            const std::string& store_root) {
  std::string model = "unknown";
  bool sha_ni = false;
  bool avx2 = false;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    auto value = [&line] {
      size_t colon = line.find(':');
      return colon == std::string::npos ? std::string()
                                        : line.substr(colon + 2);
    };
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = value();
    } else if (line.rfind("flags", 0) == 0) {
      std::istringstream flags(value());
      std::string flag;
      while (flags >> flag) {
        sha_ni = sha_ni || flag == "sha_ni";
        avx2 = avx2 || flag == "avx2";
      }
      break;
    }
  }
  daspos::Json out = daspos::Json::Object();
  out["nproc"] = static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  out["cpu_model"] = model;
  out["sha_ni"] = sha_ni;
  out["avx2"] = avx2;
#if defined(__clang__)
  out["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  out["compiler"] = std::string("g++ ") + __VERSION__;
#else
  out["compiler"] = "unknown";
#endif
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["revision"] = revision;
  out["store_fs"] = store_root.empty() ? "none" : FilesystemType(store_root);
  return out.Dump();
}

}  // namespace perfbench
