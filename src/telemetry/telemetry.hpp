#pragma once
// Structured low-overhead telemetry: the event-log subsystem behind every
// per-stage wall time the project reports (the addb2-style design the
// ROADMAP references).
//
// Producers write fixed-size binary records -- span begin/end pairs and
// monotonic counters -- into *per-thread* ring buffers:
//
//   * the hot path (Span construction/destruction, counter_add/counter_max)
//     is lock-free and allocation-free: one 48-byte slot store plus a
//     release store of the ring head, nothing else;
//   * each ring is a single-producer/single-consumer queue.  The owning
//     thread is the producer; every drain (a buffer-full self-flush, a
//     capture boundary, a thread-exit retire) runs under the central
//     collector's mutex, so exactly one consumer mutates the tail at a
//     time;
//   * the one consumer is the trace capture: while capture_begin() ..
//     capture_end() is open, drained records are appended to the capture
//     log; otherwise they are counted and dropped, so instrumentation
//     nobody captures cannot grow memory without bound.
//
// capture_end() returns the log as a telemetry::Dump -- the binary trace
// `fairbfl_sim --trace` writes.  telemetry/decode.hpp computes per-round
// statistics over a Dump and renders it as text or JSON; every stage time
// the project reports (the trace JSON's `seconds.*`, perfbench's
// per-layer metrics, the tests' stage checks) is derived there.
//
// Context (which session/round/shard a record belongs to) travels through
// a thread-local Context that fan-out sites propagate into pool workers
// with a ContextScope; spans additionally record their parent span id, so
// the decoded log reconstructs the cross-thread span tree.
//
// The subsystem is on by default; FAIRBFL_TELEMETRY=off (or 0/false)
// disables every emit at a single branch, and set_enabled() overrides the
// environment programmatically (bench_telemetry measures both paths).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fairbfl::telemetry {

/// Interned label id.  Labels name spans and counters; the registry maps
/// them to stable u16 ids so hot-path records carry two bytes, not a
/// string.
using Label = std::uint16_t;

/// Interns `name`, returning its stable id (idempotent; thread-safe).
/// Intern at startup or behind a static local -- never per event.
[[nodiscard]] Label intern(std::string_view name);

/// Name of an interned label ("?" for an id this process never interned).
[[nodiscard]] std::string_view label_name(Label id);

/// Discriminates the fixed-size records.
enum class RecordKind : std::uint8_t {
    kSpanBegin = 1,  ///< value = span id, parent = enclosing span id
    kSpanEnd = 2,    ///< value = span id of the matching begin
    kCounterAdd = 3, ///< value = amount; statistics sum per label
    kCounterMax = 4, ///< value = sample; statistics keep the max per label
};

/// `item` value meaning "no shard/client ordinal attached".
inline constexpr std::uint32_t kNoItem = 0xFFFFFFFFU;

/// One fixed-size binary event record -- the unit the per-thread rings
/// store and the Dump serializes.  48 bytes, trivially copyable; reserved
/// bytes are always zero.
struct Record {
    std::uint64_t time_ns = 0;  ///< steady-clock ns since collector epoch
    std::uint64_t value = 0;    ///< span id / counter amount
    std::uint64_t parent = 0;   ///< SpanBegin: enclosing span id (0 = root)
    std::uint32_t session = 0;  ///< owning Session (0 = ambient)
    std::uint32_t round = 0;    ///< communication round from the context
    std::uint32_t item = kNoItem;  ///< shard / client ordinal, kNoItem = none
    Label label = 0;            ///< interned label id
    std::uint16_t thread = 0;   ///< writer's collector slot
    RecordKind kind = RecordKind::kSpanBegin;
    std::uint8_t depth = 0;     ///< span nesting depth on the writer thread
    std::uint8_t reserved[6] = {0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(Record) == 48, "records are fixed 48-byte slots");

// --- Global switch ---------------------------------------------------------

/// True when emitting is on.  First query reads FAIRBFL_TELEMETRY
/// ("off"/"0"/"false" disable) and caches the answer.
[[nodiscard]] bool enabled() noexcept;

/// Programmatic override of the environment switch (tests, benches).
void set_enabled(bool on) noexcept;

/// Records dropped because no capture was active when they were drained
/// (diagnostics; monotonic).
[[nodiscard]] std::uint64_t dropped_records() noexcept;

/// Drains every thread buffer into the collector (the flush capture_begin
/// and capture_end perform, exposed for tests and bench_telemetry).
void flush_all();

// --- Context ---------------------------------------------------------------

/// The thread-local tagging state every record inherits: which session and
/// round it belongs to, an optional shard/client ordinal, and the span to
/// parent under when the thread has no open span of its own (the cross-
/// thread link a fan-out site passes to its pool workers).
struct Context {
    std::uint32_t session = 0;
    std::uint32_t round = 0;
    std::uint32_t item = kNoItem;
    std::uint64_t parent = 0;

    /// Copy with the shard/client ordinal replaced (fan-out bodies).
    [[nodiscard]] Context with_item(std::uint32_t ordinal) const noexcept {
        Context ctx = *this;
        ctx.item = ordinal;
        return ctx;
    }
};

/// The calling thread's current context, with `parent` filled from its
/// innermost open span -- capture it *outside* a parallel_for and install
/// it inside the body with a ContextScope so worker-thread records carry
/// the right session/round/parent.
[[nodiscard]] Context current_context() noexcept;

/// RAII: installs `ctx` as the thread's context, restoring the previous
/// one on destruction.  Cheap enough for per-task use in pool workers.
class ContextScope {
public:
    explicit ContextScope(const Context& ctx) noexcept;
    ~ContextScope();
    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

private:
    Context saved_;
};

// --- Spans and counters (the hot path) -------------------------------------

/// RAII span: emits kSpanBegin on construction and kSpanEnd on close()/
/// destruction.  Spans must close in LIFO order per thread (scopes).
/// When telemetry is disabled construction and destruction are a single
/// predictable branch each.
class Span {
public:
    explicit Span(Label label) noexcept;
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Emits the end record (idempotent) ahead of destruction.  The span's
    /// seconds are read back from a captured log, never kept here.
    void close() noexcept;

private:
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t prev_open_ = 0;  ///< thread's open span to restore
    Label label_ = 0;
    bool active_ = false;
};

/// Emits a kCounterAdd record (statistics sum these per label).
void counter_add(Label label, std::uint64_t value) noexcept;

/// Emits a kCounterMax record (statistics keep the per-label max).
void counter_max(Label label, std::uint64_t value) noexcept;

// --- Canonical labels ------------------------------------------------------
// The well-known names the FAIR-BFL pipeline emits.  telemetry/decode.cpp
// maps them onto the trace JSON's `seconds.*` keys.

namespace labels {
inline Label round_local() {
    static const Label id = intern("round.local");
    return id;
}
inline Label round_cluster() {
    static const Label id = intern("round.cluster");
    return id;
}
inline Label round_aggregate() {
    static const Label id = intern("round.aggregate");
    return id;
}
inline Label round_mine() {
    static const Label id = intern("round.mine");
    return id;
}
/// Procedure II: signing, verification, hybrid round trip and upload
/// pricing of every update.  No `seconds.*` key is derived from it; it
/// shows in the trace JSON's per-label stats.
inline Label round_upload() {
    static const Label id = intern("round.upload");
    return id;
}
inline Label index_build() {
    static const Label id = intern("cluster.index_build");
    return id;
}
inline Label index_bytes() {
    static const Label id = intern("cluster.index_bytes");
    return id;
}
inline Label shard_pass() {
    static const Label id = intern("cluster.shard_pass");
    return id;
}
inline Label root_pass() {
    static const Label id = intern("cluster.root_pass");
    return id;
}
inline Label identify() {
    static const Label id = intern("cluster.identify");
    return id;
}
inline Label local_client() {
    static const Label id = intern("local.client");
    return id;
}
inline Label delay_local_ns() {
    static const Label id = intern("delay.local_ns");
    return id;
}
inline Label delay_up_ns() {
    static const Label id = intern("delay.up_ns");
    return id;
}
inline Label delay_ex_ns() {
    static const Label id = intern("delay.ex_ns");
    return id;
}
inline Label delay_gl_ns() {
    static const Label id = intern("delay.gl_ns");
    return id;
}
inline Label delay_bl_ns() {
    static const Label id = intern("delay.bl_ns");
    return id;
}
/// One processed virtual-clock event (core/event_loop.hpp).
inline Label engine_event() {
    static const Label id = intern("engine.event");
    return id;
}
/// Virtual timestamp samples (counter_max = the round's virtual makespan).
inline Label engine_virtual_ns() {
    static const Label id = intern("engine.virtual_ns");
    return id;
}
/// Virtual ns the aggregation trigger waited for quorum after the first
/// arrival (trace JSON `seconds.wait_quorum`).
inline Label wait_quorum_ns() {
    static const Label id = intern("round.wait_quorum_ns");
    return id;
}
/// Updates that arrived after the aggregation trigger (trace JSON
/// `late_updates`).
inline Label late_updates() {
    static const Label id = intern("round.late_updates");
    return id;
}
}  // namespace labels

// --- Sessions --------------------------------------------------------------

/// A process-unique session id that tags records via Context.session, so a
/// capture holding several systems' events can be sliced per system.
/// core::FairBfl owns one per instance, which is what keeps concurrent
/// run_suite systems' events separated.
class Session {
public:
    Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

    /// The context a round-scoped ContextScope should install.
    [[nodiscard]] Context context(std::uint32_t round) const noexcept {
        return Context{.session = id_, .round = round};
    }

private:
    std::uint32_t id_;
};

// --- Trace capture / dump --------------------------------------------------

/// A decoded-or-decodable event log: the label table plus every captured
/// record, with a compact binary serialization (`fairbfl_sim --trace`).
///
/// Layout (native-endian, documented in docs/ARCHITECTURE.md):
///   "FBTL" magic u32 | version u16 (=1) | record size u16 (=48)
///   label count u32 | { id u16, length u16, bytes } per label
///   record count u64 | raw 48-byte records
struct Dump {
    struct LabelEntry {
        Label id = 0;
        std::string name;
    };
    std::vector<LabelEntry> labels;
    std::vector<Record> records;

    [[nodiscard]] std::string_view name_of(Label id) const;
    [[nodiscard]] std::vector<std::byte> encode() const;
    /// Throws std::invalid_argument on a malformed byte stream, including
    /// a label or record count the remaining bytes cannot hold (checked
    /// before anything is allocated).
    [[nodiscard]] static Dump decode(std::span<const std::byte> bytes);
    [[nodiscard]] bool save(const std::string& path) const;
    [[nodiscard]] static std::optional<Dump> load(const std::string& path);
};

/// Starts retaining every drained record (all sessions and the ambient
/// stream) until capture_end().  One capture at a time.
void capture_begin();

/// Flushes all buffers, stops capturing, and returns the captured log
/// with the current label table.  Returns an empty Dump when no capture
/// was active.
[[nodiscard]] Dump capture_end();

}  // namespace fairbfl::telemetry
