#include "telemetry/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "support/sync.hpp"

namespace fairbfl::telemetry {

namespace {

using support::CondVar;
using support::Mutex;
using support::MutexLock;

using Clock = std::chrono::steady_clock;

// --- Label registry --------------------------------------------------------
// Interning takes a mutex (startup/first-use only); id -> name lookups copy
// a string_view out of storage that is never freed, so they are safe from
// any thread without the lock once the entry exists.

struct LabelRegistry {
    Mutex mutex;
    std::unordered_map<std::string, Label> ids GUARDED_BY(mutex);
    /// index = id - 1, leaked strings
    std::vector<const std::string*> names GUARDED_BY(mutex);

    Label intern(std::string_view name) EXCLUDES(mutex) {
        MutexLock lock(mutex);
        const auto it = ids.find(std::string(name));
        if (it != ids.end()) return it->second;
        if (names.size() >= 0xFFFEU)
            throw std::length_error("telemetry: label table full");
        auto* stored = new std::string(name);  // leaked: ids must stay valid
        const Label id = static_cast<Label>(names.size() + 1);
        names.push_back(stored);
        ids.emplace(*stored, id);
        return id;
    }

    std::string_view name(Label id) EXCLUDES(mutex) {
        MutexLock lock(mutex);
        if (id == 0 || id > names.size()) return "?";
        return *names[id - 1];
    }
};

LabelRegistry& label_registry() {
    static LabelRegistry* registry = new LabelRegistry;  // leaked: no
    return *registry;  // shutdown-order hazard for late thread exits
}

// --- Per-thread ring buffer ------------------------------------------------

/// The one lock of the collector protocol, at namespace scope so both the
/// Collector's fields and ThreadBuffer::drain_locked's REQUIRES contract
/// can name the same capability.  Never taken on the record hot path --
/// put() touches it only through the buffer-full self-flush.
Mutex g_collector_mutex;

class Collector;

/// SPSC ring: the owning thread produces (put), consumers drain under the
/// collector mutex.  Capacity is a power of two; head/tail are monotonic
/// u64 positions, masked on access.
class ThreadBuffer {
public:
    static constexpr std::size_t kCapacity = 4096;  // 192 KiB per thread
    static_assert((kCapacity & (kCapacity - 1)) == 0);

    explicit ThreadBuffer(std::uint16_t slot) noexcept : slot_(slot) {}

    [[nodiscard]] std::uint16_t slot() const noexcept { return slot_; }

    /// Next span id: unique per process without a shared atomic --
    /// (slot << 40) | per-thread sequence.  Never returns 0.
    [[nodiscard]] std::uint64_t next_span_id() noexcept {
        return (static_cast<std::uint64_t>(slot_) << 40) | ++span_seq_;
    }

    /// Hot path: one slot store + one release store.  Self-flushes through
    /// the collector only when the ring is full (the buffer-full flush of
    /// the protocol).
    void put(const Record& record) noexcept;

    /// Consumer side: routes the drained range straight into the
    /// collector (no intermediate copies).  The REQUIRES contract is the
    /// ring's consumer invariant -- `tail_` is advanced only under the
    /// collector mutex, so concurrent drains (a capture boundary vs. a
    /// buffer-full self-flush vs. TLS-exit retire) serialize.
    void drain_locked(Collector& collector) REQUIRES(g_collector_mutex);

private:
    Record ring_[kCapacity];
    std::atomic<std::uint64_t> head_{0};  ///< owner writes (release)
    std::atomic<std::uint64_t> tail_{0};  ///< consumers write under the lock
    std::uint64_t span_seq_ = 0;
    std::uint16_t slot_;
};

// --- Collector -------------------------------------------------------------

class Collector {
public:
    Collector() : epoch_(Clock::now()) {}

    static Collector& instance() {
        static Collector* collector = new Collector;  // leaked: thread-exit
        return *collector;  // retires must outlive static destruction
    }

    [[nodiscard]] std::uint64_t now_ns() const noexcept {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_)
                .count());
    }

    ThreadBuffer* adopt() EXCLUDES(g_collector_mutex) {
        MutexLock lock(g_collector_mutex);
        buffers_.push_back(
            std::make_unique<ThreadBuffer>(next_slot_++));
        return buffers_.back().get();
    }

    void retire(ThreadBuffer* buffer) EXCLUDES(g_collector_mutex) {
        MutexLock lock(g_collector_mutex);
        buffer->drain_locked(*this);
        for (std::size_t i = 0; i < buffers_.size(); ++i) {
            if (buffers_[i].get() == buffer) {
                buffers_.erase(buffers_.begin() +
                               static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
    }

    void drain_one(ThreadBuffer* buffer) EXCLUDES(g_collector_mutex) {
        MutexLock lock(g_collector_mutex);
        buffer->drain_locked(*this);
    }

    void drain_all() EXCLUDES(g_collector_mutex) {
        MutexLock lock(g_collector_mutex);
        drain_all_locked();
    }

    void capture_begin() EXCLUDES(g_collector_mutex) {
        MutexLock lock(g_collector_mutex);
        // Flush stale records first: the capture holds only records
        // emitted after this call.
        drain_all_locked();
        capturing_ = true;
        capture_.clear();
    }

    std::vector<Record> capture_end() EXCLUDES(g_collector_mutex) {
        MutexLock lock(g_collector_mutex);
        drain_all_locked();
        capturing_ = false;
        return std::move(capture_);
    }

    [[nodiscard]] std::uint64_t dropped() EXCLUDES(g_collector_mutex) {
        MutexLock lock(g_collector_mutex);
        return dropped_;
    }

    /// Routing, under the mutex: into the capture in drain order when one
    /// is active; otherwise count and drop.  Public only for
    /// ThreadBuffer::drain_locked (same TU); the REQUIRES contract keeps
    /// outside callers honest.
    void route(const Record& record) REQUIRES(g_collector_mutex) {
        if (capturing_)
            capture_.push_back(record);
        else
            ++dropped_;
    }

private:
    void drain_all_locked() REQUIRES(g_collector_mutex) {
        for (auto& buffer : buffers_) buffer->drain_locked(*this);
    }

    std::vector<std::unique_ptr<ThreadBuffer>> buffers_
        GUARDED_BY(g_collector_mutex);
    std::vector<Record> capture_ GUARDED_BY(g_collector_mutex);
    bool capturing_ GUARDED_BY(g_collector_mutex) = false;
    std::uint64_t dropped_ GUARDED_BY(g_collector_mutex) = 0;
    std::uint16_t next_slot_ GUARDED_BY(g_collector_mutex) = 1;
    Clock::time_point epoch_;  ///< immutable after construction
};

void ThreadBuffer::drain_locked(Collector& collector) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (; tail != head; ++tail)
        collector.route(ring_[tail & (kCapacity - 1)]);
    tail_.store(head, std::memory_order_release);
}

void ThreadBuffer::put(const Record& record) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) == kCapacity) {
        // Ring full: the documented buffer-full flush.  The owner drains
        // its own ring through the collector (the one place the writer
        // thread ever takes a lock), then continues.
        Collector::instance().drain_one(this);
    }
    ring_[head & (kCapacity - 1)] = record;
    head_.store(head + 1, std::memory_order_release);
}

// --- Thread-local state ----------------------------------------------------

struct TlsState {
    ThreadBuffer* buffer = nullptr;
    Context context;
    std::uint64_t open_span = 0;  ///< innermost open span on this thread
    std::uint8_t depth = 0;

    ~TlsState() {
        if (buffer != nullptr) Collector::instance().retire(buffer);
    }
};

thread_local TlsState tls;

ThreadBuffer& local_buffer() {
    if (tls.buffer == nullptr) tls.buffer = Collector::instance().adopt();
    return *tls.buffer;
}

// --- Enabled switch --------------------------------------------------------

std::atomic<int> g_enabled{-1};  // -1: consult the environment on first use

bool read_env_enabled() noexcept {
    const char* env = std::getenv("FAIRBFL_TELEMETRY");
    if (env == nullptr) return true;
    const std::string_view value(env);
    return !(value == "off" || value == "0" || value == "false");
}

}  // namespace

bool enabled() noexcept {
    int state = g_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        // Resolve the -1 sentinel with a CAS instead of a blind store:
        // under the old double-checked read, a thread still inside this
        // slow path could overwrite a concurrent set_enabled() with the
        // stale environment value.  Losing the race now means someone
        // else (env read or set_enabled) already published a decision,
        // and that decision wins.
        const int desired = read_env_enabled() ? 1 : 0;
        if (!g_enabled.compare_exchange_strong(state, desired,
                                               std::memory_order_relaxed))
            return state != 0;
        state = desired;
    }
    return state != 0;
}

void set_enabled(bool on) noexcept {
    g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t dropped_records() noexcept {
    return Collector::instance().dropped();
}

void flush_all() { Collector::instance().drain_all(); }

Label intern(std::string_view name) {
    return label_registry().intern(name);
}

std::string_view label_name(Label id) { return label_registry().name(id); }

// --- Context ---------------------------------------------------------------

Context current_context() noexcept {
    Context ctx = tls.context;
    if (tls.open_span != 0) ctx.parent = tls.open_span;
    return ctx;
}

ContextScope::ContextScope(const Context& ctx) noexcept
    : saved_(tls.context) {
    tls.context = ctx;
}

ContextScope::~ContextScope() { tls.context = saved_; }

// --- Spans and counters ----------------------------------------------------

namespace {

Record make_record(RecordKind kind, Label label, std::uint64_t time_ns,
                   std::uint64_t value, std::uint64_t parent,
                   std::uint8_t depth, std::uint16_t thread) noexcept {
    Record record;
    record.time_ns = time_ns;
    record.value = value;
    record.parent = parent;
    record.session = tls.context.session;
    record.round = tls.context.round;
    record.item = tls.context.item;
    record.label = label;
    record.thread = thread;
    record.kind = kind;
    record.depth = depth;
    return record;
}

}  // namespace

Span::Span(Label label) noexcept {
    if (!enabled()) return;
    ThreadBuffer& buffer = local_buffer();
    label_ = label;
    id_ = buffer.next_span_id();
    parent_ = tls.open_span != 0 ? tls.open_span : tls.context.parent;
    prev_open_ = tls.open_span;
    buffer.put(make_record(RecordKind::kSpanBegin, label,
                           Collector::instance().now_ns(), id_, parent_,
                           tls.depth, buffer.slot()));
    tls.open_span = id_;
    if (tls.depth < 0xFF) ++tls.depth;
    active_ = true;
}

void Span::close() noexcept {
    if (!active_) return;
    active_ = false;
    ThreadBuffer& buffer = local_buffer();
    const std::uint64_t end_ns = Collector::instance().now_ns();
    if (tls.depth > 0) --tls.depth;
    buffer.put(make_record(RecordKind::kSpanEnd, label_, end_ns, id_,
                           parent_, tls.depth, buffer.slot()));
    tls.open_span = prev_open_;
}

void counter_add(Label label, std::uint64_t value) noexcept {
    if (!enabled()) return;
    ThreadBuffer& buffer = local_buffer();
    buffer.put(make_record(RecordKind::kCounterAdd, label,
                           Collector::instance().now_ns(), value,
                           tls.open_span, tls.depth, buffer.slot()));
}

void counter_max(Label label, std::uint64_t value) noexcept {
    if (!enabled()) return;
    ThreadBuffer& buffer = local_buffer();
    buffer.put(make_record(RecordKind::kCounterMax, label,
                           Collector::instance().now_ns(), value,
                           tls.open_span, tls.depth, buffer.slot()));
}

// --- Sessions --------------------------------------------------------------

Session::Session() {
    // Id 0 is the ambient context; ids are never reused within a process.
    static std::atomic<std::uint32_t> next_id{1};
    id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

// --- Dump ------------------------------------------------------------------

namespace {

constexpr std::uint32_t kDumpMagic = 0x4C544246U;  // "FBTL" little-endian
constexpr std::uint16_t kDumpVersion = 1;

// resize+memcpy rather than insert(end, first, last): same bytes, and it
// sidesteps a gcc-12 -Wstringop-overflow false positive on the iterator
// form that would trip FAIRBFL_WERROR builds.
template <typename T>
void append_pod(std::vector<std::byte>& out, const T& value) {
    const std::size_t offset = out.size();
    out.resize(offset + sizeof(T));
    std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
T read_pod(std::span<const std::byte> bytes, std::size_t& offset) {
    if (offset + sizeof(T) > bytes.size())
        throw std::invalid_argument("telemetry dump: truncated stream");
    T value;
    std::memcpy(&value, bytes.data() + offset, sizeof(T));
    offset += sizeof(T);
    return value;
}

}  // namespace

std::string_view Dump::name_of(Label id) const {
    for (const LabelEntry& entry : labels)
        if (entry.id == id) return entry.name;
    return "?";
}

std::vector<std::byte> Dump::encode() const {
    std::vector<std::byte> out;
    out.reserve(24 + labels.size() * 24 + records.size() * sizeof(Record));
    append_pod(out, kDumpMagic);
    append_pod(out, kDumpVersion);
    append_pod(out, static_cast<std::uint16_t>(sizeof(Record)));
    append_pod(out, static_cast<std::uint32_t>(labels.size()));
    for (const LabelEntry& entry : labels) {
        append_pod(out, entry.id);
        append_pod(out, static_cast<std::uint16_t>(entry.name.size()));
        const auto* bytes =
            reinterpret_cast<const std::byte*>(entry.name.data());
        out.insert(out.end(), bytes, bytes + entry.name.size());
    }
    append_pod(out, static_cast<std::uint64_t>(records.size()));
    const auto* bytes = reinterpret_cast<const std::byte*>(records.data());
    out.insert(out.end(), bytes, bytes + records.size() * sizeof(Record));
    return out;
}

Dump Dump::decode(std::span<const std::byte> bytes) {
    std::size_t offset = 0;
    if (read_pod<std::uint32_t>(bytes, offset) != kDumpMagic)
        throw std::invalid_argument("telemetry dump: bad magic");
    if (read_pod<std::uint16_t>(bytes, offset) != kDumpVersion)
        throw std::invalid_argument("telemetry dump: unknown version");
    if (read_pod<std::uint16_t>(bytes, offset) != sizeof(Record))
        throw std::invalid_argument("telemetry dump: record size mismatch");
    Dump dump;
    // Both counts come from the input: check each against the bytes left
    // before reserving anything (a label entry is an id and a length at
    // least, a record is a fixed slot).
    const std::uint32_t label_count = read_pod<std::uint32_t>(bytes, offset);
    if (label_count > (bytes.size() - offset) /
                          (sizeof(Label) + sizeof(std::uint16_t)))
        throw std::invalid_argument("telemetry dump: truncated labels");
    dump.labels.reserve(label_count);
    for (std::uint32_t i = 0; i < label_count; ++i) {
        LabelEntry entry;
        entry.id = read_pod<Label>(bytes, offset);
        const std::uint16_t length = read_pod<std::uint16_t>(bytes, offset);
        if (offset + length > bytes.size())
            throw std::invalid_argument("telemetry dump: truncated label");
        entry.name.assign(
            reinterpret_cast<const char*>(bytes.data() + offset), length);
        offset += length;
        dump.labels.push_back(std::move(entry));
    }
    const std::uint64_t record_count = read_pod<std::uint64_t>(bytes, offset);
    if (record_count > (bytes.size() - offset) / sizeof(Record))
        throw std::invalid_argument("telemetry dump: truncated records");
    dump.records.resize(record_count);
    std::memcpy(dump.records.data(), bytes.data() + offset,
                record_count * sizeof(Record));
    return dump;
}

bool Dump::save(const std::string& path) const {
    std::ofstream file(path, std::ios::binary);
    if (!file) return false;
    const std::vector<std::byte> bytes = encode();
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    return file.good();
}

std::optional<Dump> Dump::load(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) return std::nullopt;
    std::vector<char> raw((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
    try {
        return Dump::decode(std::as_bytes(std::span<const char>(raw)));
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
}

void capture_begin() { Collector::instance().capture_begin(); }

Dump capture_end() {
    Dump dump;
    dump.records = Collector::instance().capture_end();
    // Snapshot the live label table so the dump decodes standalone.
    LabelRegistry& registry = label_registry();
    MutexLock lock(registry.mutex);
    dump.labels.reserve(registry.names.size());
    for (std::size_t i = 0; i < registry.names.size(); ++i) {
        dump.labels.push_back(
            {static_cast<Label>(i + 1), *registry.names[i]});
    }
    return dump;
}

}  // namespace fairbfl::telemetry
