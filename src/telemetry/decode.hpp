#pragma once
// The consumer side of the event log: per-round statistics over a captured
// telemetry::Dump, and its renderers -- the human-readable text listing and
// the JSON export whose per-round `seconds.*` keys are the stage times CI
// gates on (docs/BENCHMARKS.md has the schema).
//
// Consumed by `fairbfl_sim --trace-format=text|json`, perfbench's traced
// passes and the tests; kept out of telemetry.hpp so hot-path includes
// stay lean.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace fairbfl::telemetry {

/// Per-label aggregates of one (session, round) slice of the log.
struct LabelStats {
    double span_seconds = 0.0;      ///< total of matched begin/end pairs
    std::uint64_t spans = 0;        ///< completed spans
    std::uint64_t counter_sum = 0;  ///< sum of kCounterAdd values
    std::uint64_t counter_max = 0;  ///< max of kCounterMax values
    std::uint64_t events = 0;       ///< records of any kind

    bool operator==(const LabelStats&) const = default;
};

/// Statistics of one (session, round) slice, keyed by label *name* (so
/// they survive label-id differences between processes).
struct RoundStats {
    std::uint32_t session = 0;
    std::uint32_t round = 0;
    std::uint64_t records = 0;     ///< records matching (session, round)
    std::uint64_t open_spans = 0;  ///< begins without a matching end
    std::map<std::string, LabelStats, std::less<>> labels;

    [[nodiscard]] double seconds_of(std::string_view label) const;
    [[nodiscard]] std::uint64_t sum_of(std::string_view label) const;
    [[nodiscard]] std::uint64_t max_of(std::string_view label) const;

    bool operator==(const RoundStats&) const = default;
};

/// RoundStats of one (session, round) slice, resolving label names from
/// the dump's own table (a decoded file needs no live registry).  Span
/// seconds are summed in record order with plain double addition, so the
/// same records always give bit-identical sums.
[[nodiscard]] RoundStats dump_round_stats(const Dump& dump,
                                          std::uint32_t session,
                                          std::uint32_t round);

/// dump_round_stats of every (session, round) slice present in the dump,
/// in first-appearance order -- the slices to_json() summarizes -- built
/// in one pass over the records.
[[nodiscard]] std::vector<RoundStats> dump_all_round_stats(const Dump& dump);

/// Human-readable listing: label table, then one line per record with the
/// span tree indented by nesting depth.
[[nodiscard]] std::string to_text(const Dump& dump);

/// JSON export: `schema_version`, record/label counts, and one entry per
/// (session, round) with the stage keys (`seconds.local`,
/// `seconds.cluster`, `seconds.index_build`, `seconds.shard_cluster`,
/// `seconds.root_cluster`, `seconds.aggregate`, `seconds.mine`,
/// `seconds.wait_quorum`, `seconds.total`, `index_peak_bytes`,
/// `late_updates`) derived from the log, plus the raw per-label
/// statistics.
[[nodiscard]] std::string to_json(const Dump& dump);

}  // namespace fairbfl::telemetry
