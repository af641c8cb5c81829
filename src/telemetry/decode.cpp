#include "telemetry/decode.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string_view>
#include <unordered_map>

namespace fairbfl::telemetry {

namespace {

const char* kind_name(RecordKind kind) {
    switch (kind) {
        case RecordKind::kSpanBegin: return "begin";
        case RecordKind::kSpanEnd: return "end";
        case RecordKind::kCounterAdd: return "add";
        case RecordKind::kCounterMax: return "max";
    }
    return "?";
}

void append_format(std::string& out, const char* fmt, ...) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    out += buf;
}

/// JSON string escaping for label names (labels are identifiers in
/// practice, but a dump is external input once loaded from disk).
std::string json_escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

/// Open spans of one slice: begin time by span id, consumed by the
/// matching end.
using OpenSpans = std::unordered_map<std::uint64_t, std::uint64_t>;

/// The slice's statistics for `name`; the key is allocated only the first
/// time the name appears in the slice.
LabelStats& label_slot(RoundStats& stats, std::string_view name) {
    const auto it = stats.labels.find(name);
    if (it != stats.labels.end()) return it->second;
    return stats.labels.emplace(std::string(name), LabelStats{})
        .first->second;
}

/// Folds one record of a slice into that slice's stats.
void accumulate(const Record& record, RoundStats& stats, LabelStats& label,
                OpenSpans& begins) {
    ++stats.records;
    ++label.events;
    switch (record.kind) {
        case RecordKind::kSpanBegin:
            begins.emplace(record.value, record.time_ns);
            break;
        case RecordKind::kSpanEnd: {
            const auto it = begins.find(record.value);
            if (it == begins.end()) break;  // begin predates this slice
            // Named duration so the accumulation is not an FMA-eligible
            // expression (fp-determinism).
            const double span_s =
                static_cast<double>(record.time_ns - it->second) * 1e-9;
            label.span_seconds += span_s;
            ++label.spans;
            begins.erase(it);
            break;
        }
        case RecordKind::kCounterAdd:
            label.counter_sum += record.value;
            break;
        case RecordKind::kCounterMax:
            label.counter_max = std::max(label.counter_max, record.value);
            break;
    }
}

}  // namespace

double RoundStats::seconds_of(std::string_view label) const {
    const auto it = labels.find(label);
    return it == labels.end() ? 0.0 : it->second.span_seconds;
}

std::uint64_t RoundStats::sum_of(std::string_view label) const {
    const auto it = labels.find(label);
    return it == labels.end() ? 0 : it->second.counter_sum;
}

std::uint64_t RoundStats::max_of(std::string_view label) const {
    const auto it = labels.find(label);
    return it == labels.end() ? 0 : it->second.counter_max;
}

RoundStats dump_round_stats(const Dump& dump, std::uint32_t session,
                            std::uint32_t round) {
    RoundStats stats;
    stats.session = session;
    stats.round = round;
    OpenSpans begins;
    for (const Record& record : dump.records) {
        if (record.session != session || record.round != round) continue;
        accumulate(record, stats,
                   label_slot(stats, dump.name_of(record.label)), begins);
    }
    stats.open_spans = begins.size();
    return stats;
}

std::vector<RoundStats> dump_all_round_stats(const Dump& dump) {
    // Each label id's name, resolved once; the first entry wins, as in
    // Dump::name_of.
    std::unordered_map<Label, std::string_view> names;
    for (const Dump::LabelEntry& entry : dump.labels)
        names.emplace(entry.id, entry.name);
    std::vector<RoundStats> slices;
    std::vector<OpenSpans> begins;  // parallel to `slices`
    std::unordered_map<std::uint64_t, std::size_t> slice_of;
    for (const Record& record : dump.records) {
        const std::uint64_t key =
            (std::uint64_t{record.session} << 32) | record.round;
        const auto [it, added] = slice_of.try_emplace(key, slices.size());
        if (added) {
            RoundStats& slice = slices.emplace_back();
            slice.session = record.session;
            slice.round = record.round;
            begins.emplace_back();
        }
        const auto name = names.find(record.label);
        RoundStats& stats = slices[it->second];
        accumulate(record, stats,
                   label_slot(stats, name == names.end()
                                         ? std::string_view("?")
                                         : name->second),
                   begins[it->second]);
    }
    for (std::size_t i = 0; i < slices.size(); ++i)
        slices[i].open_spans = begins[i].size();
    return slices;
}

std::string to_text(const Dump& dump) {
    std::string out;
    append_format(out, "telemetry dump: %zu records, %zu labels\n",
                  dump.records.size(), dump.labels.size());
    for (const Dump::LabelEntry& entry : dump.labels)
        append_format(out, "  label %u = %s\n", unsigned(entry.id),
                      entry.name.c_str());
    for (const Record& record : dump.records) {
        append_format(out, "%12.6fs s%u r%u t%u ",
                      static_cast<double>(record.time_ns) * 1e-9,
                      record.session, record.round, unsigned(record.thread));
        for (std::uint8_t d = 0; d < record.depth; ++d) out += "  ";
        const std::string_view name = dump.name_of(record.label);
        switch (record.kind) {
            case RecordKind::kSpanBegin:
                append_format(out, "[%.*s id=%" PRIu64 " parent=%" PRIu64,
                              int(name.size()), name.data(), record.value,
                              record.parent);
                break;
            case RecordKind::kSpanEnd:
                append_format(out, "]%.*s id=%" PRIu64, int(name.size()),
                              name.data(), record.value);
                break;
            case RecordKind::kCounterAdd:
            case RecordKind::kCounterMax:
                append_format(out, "%s %.*s %" PRIu64, kind_name(record.kind),
                              int(name.size()), name.data(), record.value);
                break;
        }
        if (record.item != kNoItem)
            append_format(out, " item=%u", record.item);
        out += "\n";
    }
    return out;
}

std::string to_json(const Dump& dump) {
    std::string out;
    out += "{\n  \"trace\": \"fairbfl_telemetry\",\n";
    append_format(out, "  \"schema_version\": %d,\n", 2);
    append_format(out, "  \"records\": %zu,\n  \"labels\": %zu,\n",
                  dump.records.size(), dump.labels.size());
    out += "  \"rounds\": [\n";
    const std::vector<RoundStats> rounds = dump_all_round_stats(dump);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const RoundStats& stats = rounds[i];
        const double local = stats.seconds_of("round.local");
        const double cluster = stats.seconds_of("round.cluster");
        const double aggregate = stats.seconds_of("round.aggregate");
        const double mine = stats.seconds_of("round.mine");
        append_format(out,
                      "    {\"session\": %u, \"round\": %u,\n"
                      "     \"seconds\": {\"local\": %.6f, "
                      "\"cluster\": %.6f, \"index_build\": %.6f, "
                      "\"shard_cluster\": %.6f, \"root_cluster\": %.6f, "
                      "\"aggregate\": %.6f, \"mine\": %.6f, "
                      "\"wait_quorum\": %.6f, "
                      "\"total\": %.6f},\n"
                      "     \"index_peak_bytes\": %" PRIu64 ",\n"
                      "     \"late_updates\": %" PRIu64 ",\n"
                      "     \"events\": %" PRIu64 ", \"stats\": {",
                      stats.session, stats.round, local, cluster,
                      stats.seconds_of("cluster.index_build"),
                      stats.seconds_of("cluster.shard_pass"),
                      stats.seconds_of("cluster.root_pass"), aggregate, mine,
                      static_cast<double>(
                          stats.sum_of("round.wait_quorum_ns")) *
                          1e-9,
                      local + cluster + aggregate + mine,
                      stats.max_of("cluster.index_bytes"),
                      stats.sum_of("round.late_updates"), stats.records);
        bool first = true;
        for (const auto& [name, label] : stats.labels) {
            append_format(out,
                          "%s\n      \"%s\": {\"seconds\": %.6f, "
                          "\"spans\": %" PRIu64 ", \"sum\": %" PRIu64
                          ", \"max\": %" PRIu64 ", \"events\": %" PRIu64 "}",
                          first ? "" : ",", json_escape(name).c_str(),
                          label.span_seconds, label.spans, label.counter_sum,
                          label.counter_max, label.events);
            first = false;
        }
        out += first ? "}}" : "\n     }}";
        out += i + 1 < rounds.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

}  // namespace fairbfl::telemetry
