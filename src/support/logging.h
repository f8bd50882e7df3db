// Minimal logging of warnings and errors to stderr. Subsystems log
// sparingly, so tests and benches stay quiet.
#ifndef DASPOS_SUPPORT_LOGGING_H_
#define DASPOS_SUPPORT_LOGGING_H_

#include <sstream>
#include <string>

namespace daspos {

enum class LogLevel { kWarning, kError };

/// Emits `message` at `level`.
void LogMessage(LogLevel level, const std::string& message);

namespace internal {

/// Stream collector whose destructor emits the accumulated line.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define DASPOS_LOG(level) \
  ::daspos::internal::LogLine(::daspos::LogLevel::level)

}  // namespace daspos

#endif  // DASPOS_SUPPORT_LOGGING_H_
