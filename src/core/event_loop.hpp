#pragma once
// Deterministic discrete-event loop on a virtual clock.
//
// The round engine (core/round_engine.hpp) turns client uploads, the
// aggregation deadline, and async mining solves into events scheduled on
// this loop.  The clock is *virtual* -- nanoseconds of simulated time from
// the paper's delay decomposition T(n, m), not host time -- and the queue
// is a priority queue keyed on (time, sequence): two events at the same
// virtual instant fire in the order they were scheduled.  Because both
// keys are assigned by deterministic code on the driving thread (real
// compute runs *before* the loop, fanned out through the thread pool),
// the processed-event sequence is a pure function of the schedule, so any
// async round -- including injected faults -- replays identically under
// any worker-thread count.
//
// Determinism contract (pinned by tests/test_round_engine.cpp and the
// engine properties in tests/test_properties.cpp):
//   * events fire in strict (time, sequence) order;
//   * now() is monotone: scheduling at a past instant clamps to now();
//   * callbacks run on the thread that called run_*(), never on a pool
//     worker, and may schedule or cancel further events.
//
// Telemetry: every processed event emits an "engine.event" span and a
// counter_max "engine.virtual_ns" sample of its virtual timestamp, so a
// captured round exposes both the event count and the round's virtual
// makespan next to the host-time stage spans.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

namespace fairbfl::core {

/// Simulated nanoseconds since the start of the current round.
using VirtualTime = std::uint64_t;

class EventLoop {
public:
    using Callback = std::function<void(EventLoop&)>;

    /// Handle for cancel(); sequence numbers are unique per loop instance.
    struct EventId {
        std::uint64_t seq = 0;
    };

    EventLoop() = default;
    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;
    EventLoop(EventLoop&&) = default;
    EventLoop& operator=(EventLoop&&) = default;

    /// Current virtual time: the timestamp of the last processed event (or
    /// the deadline run_until() advanced to).  Starts at 0 each round.
    [[nodiscard]] VirtualTime now() const noexcept { return now_; }

    /// Schedules `fn` at absolute virtual time `when`; a past instant is
    /// clamped to now() so the clock stays monotone.
    EventId schedule_at(VirtualTime when, Callback fn);

    /// Schedules `fn` at now() + `delay`.
    EventId schedule_after(VirtualTime delay, Callback fn);

    /// Cancels a pending event.  Returns false when the event already
    /// fired, was cancelled, or never existed.  O(1); the entry is
    /// dropped lazily when it reaches the head of the queue.
    bool cancel(EventId id);

    /// Processes events until the queue is empty; returns how many fired.
    std::size_t run_until_idle();

    /// Processes every event with time <= `deadline`, then advances now()
    /// to `deadline` (even if no event fired).  Returns how many fired.
    std::size_t run_until(VirtualTime deadline);

    /// Processes the single earliest pending event; false when idle.
    bool step();

    /// Virtual timestamp of the earliest pending event, if any.
    [[nodiscard]] std::optional<VirtualTime> next_time() const;

    [[nodiscard]] std::size_t pending() const noexcept { return live_; }
    [[nodiscard]] std::uint64_t processed() const noexcept {
        return processed_;
    }

private:
    struct Entry {
        VirtualTime when = 0;
        std::uint64_t seq = 0;
        Callback fn;
    };

    /// Min-heap order on (when, seq): std::push_heap keeps the *greatest*
    /// element at the front, so the comparator inverts.
    static bool later(const Entry& a, const Entry& b) noexcept {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    /// Pops the earliest non-cancelled entry; nullopt when none remain.
    std::optional<Entry> pop_live();

    std::vector<Entry> heap_;
    std::unordered_set<std::uint64_t> cancelled_;
    VirtualTime now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t processed_ = 0;
    std::size_t live_ = 0;  ///< pending() excluding lazily-cancelled entries
};

}  // namespace fairbfl::core
