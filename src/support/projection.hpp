#pragma once
// Random-projection kernels: the dimensionality-reduction step behind the
// approximate gradient-neighborhood indexes (cluster::RandomProjectionIndex).
//
// A seeded Gaussian matrix P (out_dim x in_dim, entries N(0, 1/out_dim))
// maps d-dim gradients to k-dim sketches in O(n d k); by the
// Johnson-Lindenstrauss lemma, Euclidean distances (and, for mean-free
// gradient deltas, cosine geometry) are preserved up to
// O(sqrt(log n / k)) relative distortion -- enough for the comparison-only
// consumers (eps thresholds, nearest-neighbour argmins) that clustering
// runs on.  Never feed projected values into reward or training
// arithmetic.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/parallel.hpp"

namespace fairbfl::support {

/// A dense row-major out_dim x in_dim projection matrix.
struct ProjectionMatrix {
    std::size_t in_dim = 0;
    std::size_t out_dim = 0;
    std::vector<float> rows;  ///< out_dim x in_dim, row-major

    [[nodiscard]] bool empty() const noexcept { return rows.empty(); }
};

/// Seeded Gaussian projection: entries ~ N(0, 1) scaled by 1/sqrt(out_dim),
/// so projected squared Euclidean norms are unbiased estimates of the
/// originals.  Deterministic in (in_dim, out_dim, seed) -- the entries are
/// drawn from one serial stream, independent of any thread count.
///
/// The draw costs milliseconds at gradient width (d = 7850, k = 48), more
/// than projecting a round's points, so the last matrix generated is kept
/// in a one-entry process-wide memo: a caller that asks for the same key
/// again (an index rebuilt every round, the shard tree's concurrent
/// passes) shares it instead of drawing it again.  A different key
/// replaces the entry; matrices already handed out stay valid.  Safe to
/// call from any thread.
[[nodiscard]] std::shared_ptr<const ProjectionMatrix> gaussian_projection(
    std::size_t in_dim, std::size_t out_dim, std::uint64_t seed);

/// Points per gemv_rows call in project_rows: a constant, so the chunking
/// never depends on the pool's thread count.
inline constexpr std::size_t kProjectChunk = 8;

/// out[s * P.out_dim + r] = (P * rows[s])[r] for every s, where rows[s]
/// points at P.in_dim floats.  Chunks of kProjectChunk rows fan out over
/// `pool`, one support::gemv_rows call each, so every sketch is bitwise
/// the per-point support::gemv through P -- identical under any thread
/// count.  `out` must hold rows.size() * P.out_dim floats.
void project_rows(const ProjectionMatrix& projection,
                  std::span<const float* const> rows, std::span<float> out,
                  ThreadPool& pool = ThreadPool::global());

}  // namespace fairbfl::support
