#include "core/round_engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "telemetry/telemetry.hpp"

namespace fairbfl::core {

namespace {

/// Same seconds -> virtual-ns quantization the delay model's telemetry
/// counters use.
VirtualTime sim_ns(double seconds) noexcept {
    return static_cast<VirtualTime>(seconds * 1e9);
}

/// Backstop for the empty-block chain: far beyond any configured race
/// (a round is a handful of block intervals), it only exists so a
/// degenerate spec (tiny mean, huge deadline) cannot spin the loop.
constexpr std::size_t kMaxEmptyBlocks = 100'000;

}  // namespace

std::optional<LatePolicy> parse_late_policy(std::string_view name) noexcept {
    if (name == "next_round") return LatePolicy::kNextRound;
    if (name == "retroactive") return LatePolicy::kRetroactive;
    return std::nullopt;
}

std::string_view late_policy_name(LatePolicy policy) noexcept {
    return policy == LatePolicy::kRetroactive ? "retroactive" : "next_round";
}

std::size_t RoundConfig::quorum_count(std::size_t expected) const noexcept {
    if (expected == 0) return 0;
    if (quorum_fraction >= 1.0) return expected;
    const double want =
        std::ceil(quorum_fraction * static_cast<double>(expected));
    auto count = want > 0.0 ? static_cast<std::size_t>(want) : 0;
    return std::clamp<std::size_t>(count, 1, expected);
}

CollectOutcome RoundEngine::collect(
    std::span<const PendingDelivery> deliveries, const MiningRaceSpec* race) {
    loop_ = EventLoop{};
    CollectOutcome out;

    std::size_t deliverable = 0;
    std::size_t max_index = 0;
    for (const auto& d : deliveries) {
        if (!d.duplicate) ++deliverable;
        max_index = std::max(max_index, d.update_index);
    }
    out.quorum_needed = config_.quorum_count(deliverable);

    // Collection state lives on this frame; callbacks only run inside
    // run_until_idle() below.
    std::vector<bool> seen(deliveries.empty() ? 0 : max_index + 1, false);
    std::size_t remaining = deliveries.size();
    bool triggered = false;

    const auto fire_trigger = [&](bool via_deadline) {
        if (triggered) return;
        triggered = true;
        out.trigger_ns = loop_.now();
        out.deadline_fired = via_deadline;
        out.quorum_met = out.quorum_needed > 0 &&
                         out.on_time.size() >= out.quorum_needed;
    };

    for (const auto& d : deliveries) {
        loop_.schedule_at(d.arrival, [&, d](EventLoop& loop) {
            --remaining;
            if (seen[d.update_index]) {
                ++out.duplicates_dropped;
                return;
            }
            seen[d.update_index] = true;
            if (!triggered) {
                if (out.on_time.empty()) out.first_arrival_ns = loop.now();
                out.on_time.push_back(d.update_index);
                if (out.quorum_needed > 0 &&
                    out.on_time.size() >= out.quorum_needed)
                    fire_trigger(false);
            } else {
                out.late.push_back(d.update_index);
            }
        });
    }

    // Deliveries are scheduled before the deadline, so an update landing
    // at exactly deadline_ns still counts as on time (lower sequence
    // wins the tie).
    if (config_.deadline_ns > 0) {
        loop_.schedule_at(config_.deadline_ns,
                          [&](EventLoop&) { fire_trigger(true); });
    }

    // The async-mining race: one solve event per empty block, re-armed
    // until the round triggers (the next solve then seals real content)
    // or nothing is left in flight.
    std::function<void(EventLoop&)> solve;
    if (race != nullptr && race->rng != nullptr &&
        race->mean_solve_seconds > 0.0 && config_.engaged()) {
        const auto next_interval = [race]() {
            return sim_ns(race->rng->exponential(
                1.0 / race->mean_solve_seconds));
        };
        solve = [&, next_interval](EventLoop& loop) {
            if (triggered || remaining == 0) return;
            ++out.empty_blocks;
            if (out.empty_blocks >= kMaxEmptyBlocks) return;
            loop.schedule_after(next_interval(), solve);
        };
        loop_.schedule_after(next_interval(), solve);
    }

    loop_.run_until_idle();
    // Drained without quorum or deadline: everything deliverable arrived
    // (dropouts made quorum unreachable, or nothing was deliverable);
    // aggregate what exists rather than blocking forever.
    if (!triggered) fire_trigger(false);

    telemetry::counter_add(telemetry::labels::wait_quorum_ns(),
                           out.trigger_ns - out.first_arrival_ns);
    telemetry::counter_add(telemetry::labels::late_updates(),
                           out.late.size());
    return out;
}

}  // namespace fairbfl::core
