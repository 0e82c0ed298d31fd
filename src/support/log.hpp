// Minimal leveled logger.
//
// REX libraries log sparingly (experiment harnesses print their own tables);
// the logger exists so substrates can emit diagnostics without dragging a
// dependency in. Thread-safe: each message is formatted to a local buffer and
// written with a single stderr call.
#pragma once

#include <string_view>

namespace rex {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// printf-style logging. `fmt` must be a printf format string. Messages
/// below kWarn are dropped, so library internals stay quiet under tests.
void log_message(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace rex

#define REX_LOG_DEBUG(...) ::rex::log_message(::rex::LogLevel::kDebug, __VA_ARGS__)
#define REX_LOG_INFO(...) ::rex::log_message(::rex::LogLevel::kInfo, __VA_ARGS__)
#define REX_LOG_WARN(...) ::rex::log_message(::rex::LogLevel::kWarn, __VA_ARGS__)
#define REX_LOG_ERROR(...) ::rex::log_message(::rex::LogLevel::kError, __VA_ARGS__)
