#pragma once
// The pluggable combine rule of the orchestration layer.
//
// The paper's flexibility claim (Figure 3, §4.6) is that FAIR-BFL is a
// pipeline of swappable stages.  The one stage that is an object here is
// how gradients are combined (Algorithm 1 line 24 / Eq. 1), so a new
// aggregation rule is one row of make_aggregator's table and reaches
// FairBfl without editing the round loop.  The other stages are
// direct calls: contribution scoring and its settlement (Algorithm 2 + the
// two low-contribution strategies) are FairBflConfig::incentive fields
// that FairBfl hands to incentive/, and Procedure V (Assumption 1 on or
// off) prices its blocks through DelayModel::t_bl_fair / t_bl_vanilla.
//
// Every built-in rule wraps the corresponding fl/ combine, so choosing
// "simple" or "fair" reproduces the paper's series bit-for-bit.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

}  // namespace fairbfl::core
