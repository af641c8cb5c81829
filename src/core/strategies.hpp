#pragma once
// Pluggable strategy interfaces for the orchestration layer.
//
// The paper's flexibility claim (Figure 3, §4.6) is that FAIR-BFL is a
// pipeline of swappable stages.  Two of them are objects here: how
// gradients are combined (Algorithm 1 line 24 / Eq. 1) and how blocks are
// mined (Assumption 1 on or off), so a new aggregation rule or consensus
// discipline drops into FairBfl -- and into the SystemRegistry of
// core/system.hpp -- without editing the round loop.  Contribution scoring
// and its settlement (Algorithm 2 + the two low-contribution strategies)
// are FairBflConfig::incentive fields that FairBfl calls directly.
//
// Every built-in implementation wraps the corresponding free function and
// consumes randomness in exactly the same order, so swapping a bool-driven
// configuration for its strategy object reproduces the legacy series
// bit-for-bit.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/delay_model.hpp"
#include "fl/aggregation.hpp"

namespace fairbfl::core {

// ---------------------------------------------------------------------------
// Aggregation (Algorithm 1 line 24 / Eq. 1).

/// Combines one round's gradient updates into the next global weight
/// vector.  Implementations must be stateless and thread-safe: one
/// instance may serve many concurrent systems in a run_suite sweep.
class Aggregator {
public:
    virtual ~Aggregator() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Unweighted combine (the paper's line-24 provisional update).
    [[nodiscard]] virtual std::vector<float> aggregate(
        std::span<const fl::GradientUpdate> updates) const = 0;

    /// Score-weighted combine (Eq. 1; `theta` holds one contribution score
    /// per update).  Rules without a weighted form ignore the scores.
    [[nodiscard]] virtual std::vector<float> aggregate_weighted(
        std::span<const fl::GradientUpdate> updates,
        std::span<const double> theta) const {
        (void)theta;
        return aggregate(updates);
    }
};

/// Registered rules: "simple" (line 24), "sample_weighted" (classic
/// FedAvg), "fair" (Eq. 1 when given scores), "trimmed_mean" (per
/// coordinate, drop the ceil(trim * K) smallest and largest values, average
/// the rest -- robust to forged magnitudes), and "median" (coordinate-wise
/// median, trimmed mean's limit).  Throws std::invalid_argument for an
/// unknown name.  `trim_fraction` only affects "trimmed_mean".
[[nodiscard]] std::shared_ptr<const Aggregator> make_aggregator(
    std::string_view name, double trim_fraction = 0.1);

/// Names accepted by make_aggregator, for error messages and CLIs.
[[nodiscard]] std::vector<std::string_view> aggregator_names();

// ---------------------------------------------------------------------------
// Consensus (Procedure V).

/// What one round of mining produced, in simulated seconds.
struct MiningOutcome {
    double seconds = 0.0;
    std::size_t forks = 0;
    double fork_merge_seconds = 0.0;
};

/// Prices one round's block production.  `blocks` sequential blocks of
/// `block_bytes` each are mined by `miners`.  Implementations must draw
/// from `rng` exactly as their legacy code path did (common-random-numbers
/// discipline across configurations).
class ConsensusEngine {
public:
    virtual ~ConsensusEngine() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    [[nodiscard]] virtual MiningOutcome mine(const DelayModel& delays,
                                             std::size_t miners,
                                             std::size_t blocks,
                                             std::size_t block_bytes,
                                             support::Rng& rng) const = 0;
};

/// Registered engines: "sync_pow" (Assumption 1: one tightly-coupled race
/// per block, no forks) and "async_pow" (the ablation/vanilla discipline:
/// concurrent mining with forking and idle-block waste).  Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::shared_ptr<const ConsensusEngine> make_consensus(
    std::string_view name);

}  // namespace fairbfl::core
