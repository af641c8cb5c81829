#include "support/logging.hpp"

#include <cstdarg>
#include <cstdlib>
#include <cstring>

#include "support/sync.hpp"

namespace fairbfl::support {

namespace {

/// Serializes the tag/message/newline triple of one log line.  Without it
/// concurrent vlog calls (e.g. two pool workers warning at once) could
/// interleave their fprintf fragments mid-line; stderr is the guarded
/// resource, so the capability lives here rather than on a field.
Mutex g_stderr_mutex;

/// The process's level, read from FAIRBFL_LOG on first use.
LogLevel log_level() noexcept {
    static const LogLevel level = [] {
        const char* env = std::getenv("FAIRBFL_LOG");
        if (env == nullptr) return LogLevel::kWarn;
        if (std::strcmp(env, "error") == 0) return LogLevel::kError;
        if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
        return LogLevel::kWarn;
    }();
    return level;
}

}  // namespace

namespace detail {

void vlog(LogLevel level, const char* fmt, ...) {
    if (level < log_level()) return;
    MutexLock lock(g_stderr_mutex);
    std::fprintf(stderr, "[fairbfl %s] ",
                 level == LogLevel::kError ? "ERROR" : "WARN");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
}

}  // namespace detail

}  // namespace fairbfl::support
