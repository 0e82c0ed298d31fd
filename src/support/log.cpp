#include "support/log.hpp"

#include <cstdarg>
#include <cstdio>

namespace rex {

namespace {
constexpr LogLevel kLogThreshold = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void log_message(LogLevel level, const char* fmt, ...) {
  if (level < kLogThreshold) return;
  char body[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(body, sizeof body, fmt, args);
  va_end(args);
  char line[1100];
  std::snprintf(line, sizeof line, "[rex %-5s] %s\n", level_name(level), body);
  std::fputs(line, stderr);
}

}  // namespace rex
