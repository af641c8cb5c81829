#include "support/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace fairbfl::support {

CliArgs::CliArgs(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            help_ = true;
            continue;
        }
        if (arg.size() < 3 || arg.substr(0, 2) != "--") {
            std::fprintf(stderr, "unrecognized argument: %.*s\n",
                         static_cast<int>(arg.size()), arg.data());
            parse_error_ = true;
            continue;
        }
        arg.remove_prefix(2);
        const auto eq = arg.find('=');
        if (eq == std::string_view::npos) {
            values_[std::string(arg)] = "true";
        } else {
            values_[std::string(arg.substr(0, eq))] =
                std::string(arg.substr(eq + 1));
        }
    }
}

std::string CliArgs::get_string(std::string_view key,
                                std::string_view fallback) {
    consumed_[std::string(key)] = true;
    const auto it = values_.find(key);
    return it == values_.end() ? std::string(fallback) : it->second;
}

std::int64_t CliArgs::get_int(std::string_view key, std::int64_t fallback) {
    consumed_[std::string(key)] = true;
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    // A malformed number silently becoming 0 (or a bare `--rounds`
    // becoming "true" -> 0) corrupts sweeps, and strtoll clamps an
    // out-of-range one to INT64_MIN/MAX; flag both instead.
    char* end = nullptr;
    errno = 0;
    const std::int64_t value = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "--%s: '%s' is not an integer\n",
                     it->first.c_str(), it->second.c_str());
        parse_error_ = true;
        return fallback;
    }
    return value;
}

double CliArgs::get_double(std::string_view key, double fallback) {
    consumed_[std::string(key)] = true;
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    // strtod also accepts "nan" and "inf": a NaN learning rate trains to
    // NaN weights and a NaN ratio reaches size_t casts, so non-finite
    // values are flagged like malformed ones.
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(value)) {
        std::fprintf(stderr, "--%s: '%s' is not a finite number\n",
                     it->first.c_str(), it->second.c_str());
        parse_error_ = true;
        return fallback;
    }
    return value;
}

bool CliArgs::get_flag(std::string_view key, bool fallback) {
    consumed_[std::string(key)] = true;
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
}

bool CliArgs::finish(std::string_view program_name) const {
    bool ok = !parse_error_;
    for (const auto& [key, value] : values_) {
        (void)value;
        if (!consumed_.contains(key)) {
            std::fprintf(stderr, "%.*s: unknown flag --%s\n",
                         static_cast<int>(program_name.size()),
                         program_name.data(), key.c_str());
            ok = false;
        }
    }
    return ok;
}

}  // namespace fairbfl::support
