#pragma once
// Leveled stderr logger for the warnings and errors the simulator raises.
// Warnings and errors print by default; FAIRBFL_LOG=error keeps errors
// only and FAIRBFL_LOG=off silences both (any other value prints both).

#include <cstdio>
#include <string_view>

namespace fairbfl::support {

enum class LogLevel { kWarn = 0, kError = 1, kOff = 2 };

namespace detail {
void vlog(LogLevel level, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;
}  // namespace detail

#define FAIRBFL_LOG_WARN(...) \
    ::fairbfl::support::detail::vlog(::fairbfl::support::LogLevel::kWarn, __VA_ARGS__)
#define FAIRBFL_LOG_ERROR(...) \
    ::fairbfl::support::detail::vlog(::fairbfl::support::LogLevel::kError, __VA_ARGS__)

}  // namespace fairbfl::support
