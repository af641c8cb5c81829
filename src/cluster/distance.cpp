#include "cluster/distance.hpp"

#include <cmath>

#include "support/vecmath.hpp"

namespace fairbfl::cluster {

double distance(Metric metric, std::span<const float> a,
                std::span<const float> b) noexcept {
    switch (metric) {
        case Metric::kCosine:
            return support::cosine_distance(a, b);
        case Metric::kEuclidean:
            return std::sqrt(support::squared_distance(a, b));
    }
    return 0.0;
}

}  // namespace fairbfl::cluster
