#include "support/projection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "support/rng.hpp"
#include "support/sync.hpp"
#include "support/vecmath.hpp"

namespace fairbfl::support {

namespace {

/// The last matrix gaussian_projection generated, with its key.  One
/// entry bounds what the process keeps alive to one matrix (1.5 MB at
/// d = 7850, k = 48): a run asks for one key, since the key is the
/// gradient width, IndexParams::projection_dims and IndexParams::seed.
struct ProjectionMemo {
    std::size_t in_dim = 0;
    std::size_t out_dim = 0;
    std::uint64_t seed = 0;
    std::shared_ptr<const ProjectionMatrix> matrix;
};

Mutex g_memo_mutex;
ProjectionMemo g_memo GUARDED_BY(g_memo_mutex);

ProjectionMatrix draw_gaussian(std::size_t in_dim, std::size_t out_dim,
                               std::uint64_t seed) {
    ProjectionMatrix projection;
    projection.in_dim = in_dim;
    projection.out_dim = out_dim;
    projection.rows.resize(in_dim * out_dim);
    // One serial stream keeps the matrix independent of how the later
    // projection is scheduled.
    auto rng = Rng::fork(seed, /*stream=*/0x9807EC);
    const float scale =
        out_dim > 0 ? 1.0F / std::sqrt(static_cast<float>(out_dim)) : 0.0F;
    for (auto& entry : projection.rows)
        entry = scale * static_cast<float>(rng.normal());
    return projection;
}

}  // namespace

std::shared_ptr<const ProjectionMatrix> gaussian_projection(
    std::size_t in_dim, std::size_t out_dim, std::uint64_t seed) {
    // The draw runs under the lock: concurrent requests for one key (the
    // shard tree's passes) then wait for a single draw instead of each
    // making their own.  Nothing else is acquired inside.
    MutexLock lock(g_memo_mutex);
    if (g_memo.matrix == nullptr || g_memo.in_dim != in_dim ||
        g_memo.out_dim != out_dim || g_memo.seed != seed) {
        g_memo = {in_dim, out_dim, seed,
                  std::make_shared<const ProjectionMatrix>(
                      draw_gaussian(in_dim, out_dim, seed))};
    }
    return g_memo.matrix;
}

void project_rows(const ProjectionMatrix& projection,
                  std::span<const float* const> rows, std::span<float> out,
                  ThreadPool& pool) {
    const std::size_t k = projection.out_dim;
    assert(out.size() >= rows.size() * k);
    const std::size_t chunks =
        (rows.size() + kProjectChunk - 1) / kProjectChunk;
    parallel_for(
        0, chunks,
        [&](std::size_t c) {
            const std::size_t lo = c * kProjectChunk;
            const std::size_t count =
                std::min(kProjectChunk, rows.size() - lo);
            gemv_rows(projection.rows, k, projection.in_dim,
                      rows.subspan(lo, count), /*bias=*/{},
                      out.subspan(lo * k, count * k));
        },
        pool);
}

}  // namespace fairbfl::support
