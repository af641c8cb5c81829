#pragma once
// Aggregation rules (Algorithm 1 line 24 and Eq. 1).
//
//  * Simple average:    w <- (1/K) sum_i w_i             (the paper's line 24)
//  * Sample-weighted:   w <- sum_i (|D_i|/|D|) w_i       (classic FedAvg)
//  * Fair (Eq. 1):      w <- sum_i p_i w_i,  p_i = theta_i / sum_k theta_k
//    where theta_i is the client's contribution score (cosine distance to
//    the global update, computed by the incentive layer).

#include <span>
#include <vector>

#include "fl/gradient.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::fl {

/// Throws std::invalid_argument unless `updates` is non-empty and every
/// update has the first one's width.  Every combine rule below calls it;
/// so does Algorithm 2 before it builds an index over the updates.
void check_updates(std::span<const GradientUpdate> updates);

/// (1/K) sum of the updates.  Requires a non-empty set with equal widths.
[[nodiscard]] std::vector<float> simple_average(
    std::span<const GradientUpdate> updates);

/// Weighted sum with the given per-update weights; weights are normalized
/// internally (sum to 1).  Requires weights.size() == updates.size() and a
/// positive weight sum.  With the contribution scores theta_i as weights
/// this is Eq. 1, the paper's p_i = theta_i / sum theta_k.
[[nodiscard]] std::vector<float> weighted_aggregate(
    std::span<const GradientUpdate> updates, std::span<const double> weights);

/// Classic FedAvg: weights proportional to self-reported sample counts.
[[nodiscard]] std::vector<float> sample_weighted_average(
    std::span<const GradientUpdate> updates);

// --- Row-view entries --------------------------------------------------------
// The same rules over borrowed weight rows, so a caller combining a subset
// of an update set (Algorithm 2's survivors) copies no payload.  The
// GradientUpdate overloads above call these; each throws
// std::invalid_argument on an empty set or ragged widths, like
// check_updates.

[[nodiscard]] std::vector<float> simple_average(
    std::span<const support::RowView> rows);
[[nodiscard]] std::vector<float> weighted_aggregate(
    std::span<const support::RowView> rows, std::span<const double> weights);

}  // namespace fairbfl::fl
