#pragma once
// Async, straggler-tolerant round state machine on the virtual clock.
//
// The lockstep round loop waited for every selected client; this engine
// makes the round a discrete-event simulation instead.  FairBfl hands it
// the round's delivery schedule -- one PendingDelivery per deliverable
// client update, whose virtual arrival time is the client's own slice of
// the paper's T(n, m) decomposition (t_local(i) + t_up(i), times any
// injected straggler factor) -- and aggregation fires on
// **quorum-or-deadline**:
//
//   quorum   -- ceil(quorum_fraction x deliverable) distinct updates have
//               arrived;
//   deadline -- RoundConfig::deadline_ns of virtual time elapsed;
//   drained  -- everything deliverable arrived but quorum is unreachable
//               (dropouts) and no deadline is set: aggregate what exists.
//
// Arrivals after the trigger are *late*; FairBfl either carries them into
// the next round (LatePolicy::kNextRound, in its own carryover store) or
// re-settles the round retroactively (kRetroactive).  Replayed
// deliveries of an already-collected update are deduplicated and counted.
//
// The degenerate configuration -- quorum_fraction >= 1 and no deadline --
// triggers exactly when the last delivery arrives, which is the lockstep
// semantics; FairBfl keeps its RNG-stream draw order identical in that
// case, so the engine reproduces the pre-engine fixed-seed series
// bit-for-bit (pinned in tests/test_round_engine.cpp).
//
// The engine only orders the schedule it is handed.  Real compute
// (Procedure I's local training) and the schedule itself (Procedure II's
// forging, signing and upload pricing) are done by FairBfl before
// collect() runs; every timing / membership decision then happens in
// (time, sequence) event order on the driving thread.  That split is what
// makes any schedule -- including injected faults -- replay identically
// under any thread count.
//
// Async mining races collection as a first-class event source: when
// FairBfl's config is engaged and its consensus is "async_pow", it passes
// a MiningRaceSpec, and a solve event chain fires on the same clock,
// minting one empty block per solve that lands before the round's
// content is ready.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/event_loop.hpp"
#include "support/rng.hpp"

namespace fairbfl::core {

/// What happens to a gradient that arrives after the aggregation trigger.
enum class LatePolicy : std::uint8_t {
    kNextRound = 0,    ///< joins the next round's gradient set
    kRetroactive = 1,  ///< this round's settlement is re-run over it
};

/// "next_round" / "retroactive"; nullopt for an unknown name.
[[nodiscard]] std::optional<LatePolicy> parse_late_policy(
    std::string_view name) noexcept;
[[nodiscard]] std::string_view late_policy_name(LatePolicy policy) noexcept;

/// The quorum-or-deadline contract of one round.
struct RoundConfig {
    /// Fraction of deliverable updates that triggers aggregation;
    /// >= 1.0 waits for everyone (the lockstep semantics).
    double quorum_fraction = 1.0;
    /// Virtual-time budget per round; 0 = no deadline.
    std::uint64_t deadline_ns = 0;
    LatePolicy late_policy = LatePolicy::kNextRound;

    /// False for the degenerate full-participation/no-deadline setting
    /// that must reproduce the lockstep series bit-for-bit.
    [[nodiscard]] bool engaged() const noexcept {
        return quorum_fraction < 1.0 || deadline_ns > 0;
    }

    /// ceil(quorum_fraction x expected), clamped to [1, expected]
    /// (0 when nothing is deliverable).
    [[nodiscard]] std::size_t quorum_count(
        std::size_t expected) const noexcept;
};

/// One scheduled delivery of a client update.
struct PendingDelivery {
    std::size_t update_index = 0;  ///< into the round's update vector
    VirtualTime arrival = 0;       ///< virtual ns after round start
    /// Replayed copy (fault injection): never counts toward quorum or
    /// the deliverable total, deduplicated on arrival.
    bool duplicate = false;
};

/// Parameters of the async-mining event source (see race description in
/// the header comment).  Only consulted when RoundConfig::engaged().
struct MiningRaceSpec {
    /// Mean empty-block solve interval in seconds
    /// (difficulty / fleet hash rate).
    double mean_solve_seconds = 0.0;
    /// Interval stream; separate from the mining-outcome stream so the
    /// race never perturbs the pinned t_bl draws.
    support::Rng* rng = nullptr;
};

/// How one round's collection resolved.
struct CollectOutcome {
    std::vector<std::size_t> on_time;  ///< update indices, arrival order
    std::vector<std::size_t> late;     ///< update indices, arrival order
    VirtualTime trigger_ns = 0;        ///< when aggregation fired
    VirtualTime first_arrival_ns = 0;  ///< 0 when nothing arrived on time
    bool quorum_met = false;
    bool deadline_fired = false;
    std::size_t quorum_needed = 0;
    std::size_t duplicates_dropped = 0;
    std::size_t empty_blocks = 0;  ///< async-race solves before trigger

    /// Virtual seconds aggregation spent waiting for quorum after the
    /// first on-time arrival (the perf JSON `seconds.wait_quorum` key).
    [[nodiscard]] double wait_quorum_seconds() const noexcept {
        return static_cast<double>(trigger_ns - first_arrival_ns) * 1e-9;
    }
};

class RoundEngine {
public:
    explicit RoundEngine(RoundConfig config = {}) noexcept
        : config_(config) {}

    [[nodiscard]] const RoundConfig& config() const noexcept {
        return config_;
    }
    /// The current round's loop (reset by collect); exposed for tests.
    [[nodiscard]] const EventLoop& loop() const noexcept { return loop_; }

    /// Runs one round's collection state machine over `deliveries`: the
    /// event loop fires arrivals, the deadline, and the optional mining
    /// race in (time, sequence) order.  Emits the round's
    /// "round.wait_quorum_ns" / "round.late_updates" counters.
    CollectOutcome collect(std::span<const PendingDelivery> deliveries,
                           const MiningRaceSpec* race = nullptr);

private:
    RoundConfig config_;
    EventLoop loop_;
};

}  // namespace fairbfl::core
