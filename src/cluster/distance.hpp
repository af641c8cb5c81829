#pragma once
// Distance metrics of Algorithm 2's clustering.  The pairwise geometry
// itself lives in the GradientIndex backends (cluster/index.hpp): the dense
// matrix is ExactIndex, and the theta scores use the exact fused cosine
// kernel (support::cosine_distances_to) directly.

#include <cstdint>
#include <span>

namespace fairbfl::cluster {

enum class Metric : std::uint8_t {
    kCosine = 0,     ///< 1 - cos(x, y); the paper's default (theta_i)
    kEuclidean = 1,  ///< L2 distance
};

/// Distance between two vectors under the metric (exact, left-to-right
/// accumulation -- bit-identical to the theta arithmetic).
[[nodiscard]] double distance(Metric metric, std::span<const float> a,
                              std::span<const float> b) noexcept;

}  // namespace fairbfl::cluster
