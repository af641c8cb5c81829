#pragma once
// GradientIndex: the pluggable neighborhood/distance API of Algorithm 2.
//
// The paper parameterizes contribution identification on "any suitable
// clustering algorithm"; this header parameterizes it on the *geometry
// backend* as well.  An index owns the round's geometry, its metric
// included: every consumer of pairwise gradient distances -- suggest_eps,
// the DBSCAN neighbourhood scan, k-means++ seeding, the nearest-cluster
// fallback -- queries this interface, so exact and approximate backends
// are interchangeable per round:
//
//   * "exact"              -- the dense pairwise matrix; O(n^2 d) build,
//                             O(n^2) doubles.
//   * "lazy"               -- no build at all; every query computes the
//                             exact metric distance from the borrowed
//                             points, O(d) each.  Right when the algorithm
//                             touches O(n) distances (k-means++ seeding),
//                             wasteful for dense O(n^2) scans.
//   * "random_projection"  -- projects the d-dim gradients to k dims once
//                             (O(n d k), support/projection.hpp), then runs
//                             exact O(n^2 k) queries in sketch space.  The
//                             LSH/random-projection direction of ROADMAP's
//                             cluster-stage item.
//
// Index distances are comparison-only by contract (eps thresholds,
// argmins).  Anything that feeds rewards or training -- e.g. the theta
// scores -- uses the exact kernels directly and never reads an index.
//
// Backends are rows of the name-keyed IndexRegistry table (the
// SystemRegistry pattern) and are selected by key (`fairbfl_sim
// --index=...`); a new neighborhood structure is its class plus one row.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/distance.hpp"
#include "support/factory_registry.hpp"
#include "support/parallel.hpp"
#include "support/projection.hpp"

namespace fairbfl::cluster {

/// Tuning knobs shared by the built-in backends.  `metric` is the geometry
/// the index answers queries in; Algorithm 2 derives it from the clustering
/// algorithm's configuration at build time.
struct IndexParams {
    Metric metric = Metric::kCosine;
    /// "random_projection": sketch dimensionality k.  Build is O(n d k);
    /// distortion shrinks as O(sqrt(log n / k)).
    std::size_t projection_dims = 48;
    /// Seed for the projection matrix.  Affects index internals only,
    /// never the round's Rng streams.
    std::uint64_t seed = 42;
};

/// Read-only neighborhood structure over one round's point set (the n
/// client updates plus the provisional global).  Implementations are
/// immutable after construction and safe to query from multiple threads.
/// A backend may borrow the point storage it was built over ("lazy" does);
/// callers keep the points alive for the index's lifetime.
class GradientIndex {
public:
    virtual ~GradientIndex() = default;

    /// Registry key / diagnostic label of the backend.
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
    [[nodiscard]] virtual std::size_t size() const noexcept = 0;
    [[nodiscard]] virtual Metric metric() const noexcept = 0;

    /// Index distance between points i and j.  Symmetric, zero diagonal.
    /// Approximate backends answer in their own geometry (sketch space);
    /// values are mutually comparable within one index but not across
    /// backends.
    /// \param i first point ordinal, in [0, size()).
    /// \param j second point ordinal, in [0, size()).
    [[nodiscard]] virtual double distance(std::size_t i,
                                          std::size_t j) const = 0;

    /// Points j (ascending, self included) with distance(i, j) <= eps --
    /// the DBSCAN neighbourhood query.
    /// \param i   query point ordinal.
    /// \param eps neighbourhood radius, in this index's own geometry.
    [[nodiscard]] virtual std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const;

    /// The candidate nearest to i under the index distance; the first
    /// candidate wins ties (callers pass candidates in ascending order to
    /// keep argmin tie-breaks deterministic).  Requires a non-empty
    /// candidate set.
    /// \param i          query point ordinal.
    /// \param candidates point ordinals to rank, ascending for stable
    ///                   tie-breaks; must be non-empty.
    [[nodiscard]] std::size_t nearest_of(
        std::size_t i, std::span<const std::size_t> candidates) const;

    /// The k-th order statistic (0-based, self-distance included) of point
    /// i's full distance row -- suggest_eps's k-distance query.  The
    /// default fills the row through distance() and selects; backends with
    /// a stored row or a cheaper pruned search override it, and because an
    /// order statistic is a *value* (independent of scan order), any
    /// override must return the bit-identical double.
    /// \param i query point ordinal.
    /// \param k order statistic, in [0, size()).
    [[nodiscard]] virtual double kth_distance(std::size_t i,
                                              std::size_t k) const;

    /// Bytes of storage this index owns beyond the borrowed points: the
    /// dense matrix, or the sketches and their projection matrix.  Zero for
    /// backends that precompute nothing ("lazy").  This is the number the
    /// shard tree (fl/sharding.hpp) caps per pass -- the per-round memory
    /// ceiling reported as `index_peak_bytes` in perf artifacts.
    [[nodiscard]] virtual std::size_t storage_bytes() const noexcept {
        return 0;
    }
};

/// The dense exact backend: the symmetric n x n pairwise distance matrix
/// (row-major, zero diagonal) behind the index API.  Every query is a scan
/// of a stored row in ascending-j order.
///
/// Construction fans row triples out over the pool; every entry is
/// computed independently and written exactly once, so the values are
/// identical under any thread count.  Under the cosine metric the
/// per-point L2 norms are computed once and cached (one dot per pair
/// instead of three), bit-identical to pairwise cosine_distance.  Under
/// the Euclidean metric the blocked kernel is used: entries may differ
/// from the exact kernel in the last ulps, which is safe because every
/// consumer compares distances (eps thresholds, nearest-neighbour argmins)
/// rather than feeding them into reward or training arithmetic.  Each
/// Euclidean task owns three rows and walks the columns past them four at
/// a time through support::squared_distance_blocked_3x4 (a register tile
/// of twelve independent accumulator chains, each point widened once per
/// block); the pairs inside the triple, the column tail and a last short
/// triple go pair by pair.  Every entry is still bitwise
/// sqrt(squared_distance_blocked(p_i, p_j)) for i < j.
class ExactIndex final : public GradientIndex {
public:
    /// Builds the pairwise matrix over `points` (the O(n^2 d) job, row
    /// fan-out on `pool`).  Throws std::invalid_argument, before any row
    /// task, when a point's width differs from the first's.
    /// \param metric geometry of every stored distance.
    /// \param points the round's point set; not borrowed (values copied
    ///               into the matrix during the build).
    /// \param pool   carries the row fan-out; values are identical for
    ///               any pool size.
    ExactIndex(Metric metric, std::span<const std::vector<float>> points,
               support::ThreadPool& pool = support::ThreadPool::global());

    [[nodiscard]] std::string_view name() const noexcept override {
        return "exact";
    }
    [[nodiscard]] std::size_t size() const noexcept override { return n_; }
    [[nodiscard]] Metric metric() const noexcept override { return metric_; }
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override {
        return values_[i * n_ + j];
    }
    [[nodiscard]] std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const override;
    /// Selects on a copy of the stored row.
    [[nodiscard]] double kth_distance(std::size_t i,
                                      std::size_t k) const override;
    /// The dense n x n value table plus the cached per-point norms.
    [[nodiscard]] std::size_t storage_bytes() const noexcept override {
        return (values_.size() + norms_.size()) * sizeof(double);
    }

private:
    /// Row i as a contiguous span of n distances.
    [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
        return {values_.data() + i * n_, n_};
    }

    Metric metric_ = Metric::kCosine;
    std::size_t n_ = 0;
    std::vector<double> values_;  ///< n x n, row-major
    std::vector<double> norms_;   ///< per-point L2 norms; cosine only
};

/// Zero-build exact backend: borrows the point storage and computes the
/// metric distance on every query (O(d) each, nothing precomputed).  The
/// right trade when the clustering algorithm touches O(n) distances --
/// k-means++ seeding reads one column per seed -- where any precomputed
/// structure costs more to build than it ever returns.  A dense DBSCAN
/// scan over this backend degenerates to the full O(n^2 d) recompute;
/// prefer "exact" there.
class LazyIndex final : public GradientIndex {
public:
    /// Borrows `points`; the caller keeps them alive for the index's
    /// lifetime.  Throws std::invalid_argument when a point's width
    /// differs from the first's.
    /// \param metric geometry every query computes in.
    /// \param points the round's point set, borrowed.
    LazyIndex(Metric metric, std::span<const std::vector<float>> points);

    [[nodiscard]] std::string_view name() const noexcept override {
        return "lazy";
    }
    [[nodiscard]] std::size_t size() const noexcept override {
        return points_.size();
    }
    [[nodiscard]] Metric metric() const noexcept override { return metric_; }
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override {
        if (i == j) return 0.0;
        return cluster::distance(metric_, points_[i], points_[j]);
    }

private:
    Metric metric_ = Metric::kCosine;
    std::span<const std::vector<float>> points_;  ///< borrowed
};

/// Johnson-Lindenstrauss backend: one seeded Gaussian projection to
/// params.projection_dims, then a dense exact matrix over the sketches.
/// Build O(n d k) + O(n^2 k) beats the exact O(n^2 d) whenever k << d
/// (gradients are d ~ 10^4, k ~ 48).
///
/// Below the cost break-even the sketch is pure loss: when the points are
/// no wider than k the projection cannot reduce anything, and when
/// n <= 2k the dense pairwise build (n^2 d / 2 products) is already
/// cheaper than the projection (n d k products).  In both cases the index
/// is built over the original points -- exact geometry at lower cost than
/// any sketch; sketch_dims() then reports the point width instead of k.
///
/// Above the break-even the index stores the n x k sketch rows (plus their
/// cached L2 norms) and answers every query on demand in O(k) -- no
/// O(n^2) matrix is ever materialized.  Under the Euclidean metric the
/// norm cache also powers a *banded* neighbourhood query: points are kept
/// sorted by sketch norm, and |  ||a|| - ||b||  | <= ||a - b|| restricts a
/// radius-eps scan (and the pruned k-distance search) to the norm band
/// around the query, breaking the dense O(n^2 k) sweep on separated data.
/// Non-finite points cannot stall those searches: a NaN norm sorts after
/// every other norm, and the k-distance search only walks open sides.
///
/// The Gaussian matrix is shared, not owned: support::gaussian_projection
/// hands every index with the same (d, k, seed) one matrix, so an index
/// rebuilt every round draws it once per process.  The build projects the
/// points straight into the sketch rows (support::project_rows: fixed
/// chunks of points, one gemv_rows call each), which makes every sketch
/// bitwise the per-point gemv.
class RandomProjectionIndex final : public GradientIndex {
public:
    /// Projects the points to sketches (or, below break-even, builds the
    /// dense exact matrix).  Throws std::invalid_argument when a point's
    /// width differs from the first's.
    /// \param points the round's point set; not borrowed after the build.
    /// \param params projection_dims (k), seed, and the query metric.
    /// \param pool   carries the projection fan-out.
    RandomProjectionIndex(
        std::span<const std::vector<float>> points, const IndexParams& params,
        support::ThreadPool& pool = support::ThreadPool::global());

    [[nodiscard]] std::string_view name() const noexcept override {
        return "random_projection";
    }
    [[nodiscard]] std::size_t size() const noexcept override { return n_; }
    [[nodiscard]] Metric metric() const noexcept override { return metric_; }
    /// Sketch-space distance, computed on demand with exactly the kernels
    /// an ExactIndex would apply to the sketches (exact matrix lookup in
    /// the break-even fallback).
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override;
    [[nodiscard]] std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const override;
    /// Pruned k-distance: expands a norm-ordered band around the query
    /// until the norm-difference lower bound proves the remaining points
    /// cannot enter the k smallest.  Bit-identical to the default's order
    /// statistic (Euclidean sketch mode; the break-even fallback asks its
    /// dense index, a cosine sketch the default).
    [[nodiscard]] double kth_distance(std::size_t i,
                                      std::size_t k) const override;
    /// Sketches, norms and norm order, plus the projection matrix: shared
    /// across indexes, but still counted against each one.
    [[nodiscard]] std::size_t storage_bytes() const noexcept override;

    /// Sketch dimensionality actually used: k when the sketch is engaged,
    /// the point width in the break-even fallback (0 when n == 0).
    [[nodiscard]] std::size_t sketch_dims() const noexcept {
        return sketch_dims_;
    }

private:
    /// Sketch row of point i: sketch_dims_ floats of sketches_.
    [[nodiscard]] std::span<const float> sketch(std::size_t i) const noexcept {
        return std::span<const float>(sketches_).subspan(i * sketch_dims_,
                                                         sketch_dims_);
    }
    /// Sorts norm_order_ by the sketch norms.
    void sort_by_norm();
    /// Indices of norm_order_ whose norm lies within [lo, hi].
    [[nodiscard]] std::pair<std::size_t, std::size_t> norm_band(
        double lo, double hi) const;

    Metric metric_ = Metric::kCosine;
    std::size_t n_ = 0;
    std::size_t sketch_dims_ = 0;
    std::vector<float> sketches_;      ///< n x k sketch rows, row-major
    std::vector<double> norms_;        ///< sketch L2 norms (band + cosine)
    std::vector<std::size_t> norm_order_;  ///< point ids ascending by norm
    /// Shared per (d, k, seed); held so storage_bytes() counts it.
    std::shared_ptr<const support::ProjectionMatrix> projection_;
    /// Break-even fallback: every query delegates to it when engaged.
    std::optional<ExactIndex> dense_;
};

/// Name-keyed backend table, mirroring core::SystemRegistry: "exact",
/// "lazy" and "random_projection", fixed at compile time in index.cpp.
class IndexRegistry
    : public support::FactoryRegistry<std::unique_ptr<GradientIndex>(
          std::span<const std::vector<float>>, const IndexParams&,
          support::ThreadPool&)> {
public:
    /// Builds the backend `name` over `points`.  Throws std::out_of_range
    /// listing the known names when there is no such backend.  The backend
    /// may borrow `points` (see GradientIndex); keep them alive.  Every
    /// build is instrumented: a "cluster.index_build" telemetry span plus a
    /// "cluster.index_bytes" max-counter of the result's storage_bytes()
    /// (the source of perf JSON `seconds.index_build` / `index_peak_bytes`).
    /// \param name   registry key of the backend to build.
    /// \param points the round's point set (updates + provisional global).
    /// \param params backend tuning; `metric` selects the geometry.
    /// \param pool   carries whatever fan-out the backend's build does.
    [[nodiscard]] std::unique_ptr<GradientIndex> build(
        std::string_view name, std::span<const std::vector<float>> points,
        const IndexParams& params,
        support::ThreadPool& pool = support::ThreadPool::global()) const;

    /// The process-wide table of the built-in backends.
    static const IndexRegistry& global();

private:
    constexpr explicit IndexRegistry(std::span<const Entry> entries)
        : FactoryRegistry("index backend", entries) {}
};

}  // namespace fairbfl::cluster
