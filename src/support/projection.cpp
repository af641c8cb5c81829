#include "support/projection.hpp"

#include <cmath>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::support {

ProjectionMatrix gaussian_projection(std::size_t in_dim, std::size_t out_dim,
                                     std::uint64_t seed) {
    ProjectionMatrix projection;
    projection.in_dim = in_dim;
    projection.out_dim = out_dim;
    projection.rows.resize(in_dim * out_dim);
    // One serial stream keeps the matrix independent of how the later
    // projection is scheduled.  The k*d normal draws are not cheap: at
    // d = 7850, k = 48 they take milliseconds, more than projecting ~130
    // points on the pool, and a caller that builds an index every round
    // pays them every round.
    auto rng = Rng::fork(seed, /*stream=*/0x9807EC);
    const float scale =
        out_dim > 0 ? 1.0F / std::sqrt(static_cast<float>(out_dim)) : 0.0F;
    for (auto& entry : projection.rows)
        entry = scale * static_cast<float>(rng.normal());
    return projection;
}

std::vector<std::vector<float>> project_rows(
    const ProjectionMatrix& projection,
    std::span<const std::vector<float>> points, ThreadPool& pool) {
    for (const auto& point : points) {
        if (point.size() < projection.in_dim)
            throw std::invalid_argument(
                "project_rows: point narrower than the projection");
    }
    std::vector<std::vector<float>> projected(points.size());
    parallel_for(
        0, points.size(),
        [&](std::size_t i) {
            projected[i].resize(projection.out_dim);
            gemv(projection.rows, projection.out_dim, projection.in_dim,
                 std::span<const float>(points[i])
                     .first(projection.in_dim),
                 /*bias=*/{}, projected[i]);
        },
        pool);
    return projected;
}

}  // namespace fairbfl::support
