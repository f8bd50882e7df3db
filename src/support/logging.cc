#include "support/logging.h"

#include <cstdio>

namespace daspos {

void LogMessage(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[daspos %s] %s\n",
               level == LogLevel::kError ? "ERROR" : "WARN", message.c_str());
}

}  // namespace daspos
