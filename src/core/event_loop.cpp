#include "core/event_loop.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace fairbfl::core {

void EventLoop::schedule_at(VirtualTime when, Callback fn) {
    // Monotone clock: an event scheduled "in the past" (e.g. a retry
    // computed from a stale timestamp) fires immediately-next instead of
    // rewinding time.
    when = std::max(when, now_);
    heap_.push_back(Entry{when, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void EventLoop::schedule_after(VirtualTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
}

bool EventLoop::step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    now_ = std::max(now_, entry.when);
    ++processed_;
    {
        const telemetry::Span span(telemetry::labels::engine_event());
        telemetry::counter_max(telemetry::labels::engine_virtual_ns(), now_);
        entry.fn(*this);
    }
    return true;
}

std::size_t EventLoop::run_until_idle() {
    std::size_t fired = 0;
    while (step()) ++fired;
    return fired;
}

}  // namespace fairbfl::core
