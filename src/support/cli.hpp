#pragma once
// Tiny --key=value flag parser shared by benches and examples.
//
// Usage:
//   CliArgs args(argc, argv);
//   const int rounds = args.get_int("rounds", 100);
//   if (args.get_flag("paper")) { ... }
//   args.finish("bench_fig4_general");   // rejects unknown flags

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace fairbfl::support {

/// Comma-joins a range of names for "(known: ...)" diagnostics -- shared
/// by the registry error messages and CLI validation across layers.
template <typename Range>
[[nodiscard]] std::string join_names(const Range& names) {
    std::string out;
    for (const auto& name : names) {
        if (!out.empty()) out += ", ";
        out += name;
    }
    return out;
}

class CliArgs {
public:
    CliArgs(int argc, const char* const* argv);

    /// Value lookups; each records the key as "known" for finish().
    /// The numeric getters return the fallback and mark a parse error
    /// (failing finish()) when the value is not fully numeric -- a
    /// malformed `--rounds=abc` or bare `--rounds` never silently reads
    /// as 0 -- get_int does the same for a value outside int64_t, and
    /// get_double for nan and +-inf.
    [[nodiscard]] std::string get_string(std::string_view key,
                                         std::string_view fallback);
    [[nodiscard]] std::int64_t get_int(std::string_view key,
                                       std::int64_t fallback);
    [[nodiscard]] double get_double(std::string_view key, double fallback);
    /// Boolean flag: present without value, or with =true/=false/=1/=0.
    [[nodiscard]] bool get_flag(std::string_view key, bool fallback = false);

    /// True when --help/-h was passed.
    [[nodiscard]] bool help_requested() const noexcept { return help_; }

    /// Prints unknown-flag diagnostics to stderr and returns false when any
    /// argument was not consumed by a get_* call; also false on parse errors.
    bool finish(std::string_view program_name) const;

private:
    std::map<std::string, std::string, std::less<>> values_;
    mutable std::map<std::string, bool, std::less<>> consumed_;
    bool help_ = false;
    bool parse_error_ = false;
};

}  // namespace fairbfl::support
