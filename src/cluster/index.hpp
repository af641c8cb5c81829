#pragma once
// GradientIndex: the pluggable neighborhood/distance API of Algorithm 2.
//
// The paper parameterizes contribution identification on "any suitable
// clustering algorithm"; this header parameterizes it on the *geometry
// backend* as well.  Every consumer of pairwise gradient distances --
// suggest_eps, the DBSCAN neighbourhood scan, k-means++ seeding, the
// nearest-cluster fallback -- queries this interface instead of reading a
// dense cluster::DistanceMatrix, so exact and approximate backends are
// interchangeable per round:
//
//   * "exact"              -- wraps DistanceMatrix; O(n^2 d) build,
//                             O(n^2) doubles.  Bit-for-bit identical to the
//                             dense-matrix pipeline it replaced.
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
//   * "sampled"            -- scores every point against m sampled pivot
//                             gradients and measures dissimilarity between
//                             pivot-distance profiles; O(n m d) build and
//                             O(n m) memory, never materializing an
//                             (n+1)^2 matrix (ROADMAP's theta/matrix-memory
//                             item).
//
// Index distances are comparison-only by contract (eps thresholds,
// argmins).  Anything that feeds rewards or training -- e.g. the theta
// scores -- must keep using the exact kernels; consumers may reuse index
// entries for such paths only when exact() is true.
//
// Backends register in the string-keyed IndexRegistry (the SystemRegistry
// pattern), so a bench or adopter plugs a new neighborhood structure in at
// startup and selects it by key (`fairbfl_sim --index=...`).

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/distance.hpp"
#include "cluster/factory_registry.hpp"
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
    /// "sampled": pivot count m (clamped to n).  Memory is O(n m).
    std::size_t pivots = 32;
    /// Seed for the projection matrix / pivot sampling.  Affects index
    /// internals only, never the round's Rng streams.
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
    /// Approximate backends answer in their own geometry (sketch space,
    /// pivot-profile space); values are mutually comparable within one
    /// index but not across backends.
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
    [[nodiscard]] virtual std::size_t nearest_of(
        std::size_t i, std::span<const std::size_t> candidates) const;

    /// Fills out[j] = distance(i, j) for every j (out.size() == size()) --
    /// the row query behind suggest_eps's k-distance sample.
    /// \param i   query point ordinal.
    /// \param out destination row; must hold exactly size() entries.
    virtual void distances_from(std::size_t i, std::span<double> out) const;

    /// The k-th order statistic (0-based, self-distance included) of point
    /// i's full distance row -- suggest_eps's k-distance query.  The
    /// default materializes the row and selects; backends with a cheaper
    /// pruned search override it, and because an order statistic is a
    /// *value* (independent of scan order), any override must return the
    /// bit-identical double.
    /// \param i query point ordinal.
    /// \param k order statistic, in [0, size()).
    [[nodiscard]] virtual double kth_distance(std::size_t i,
                                              std::size_t k) const;

    /// True when distance() is the exact pairwise metric (no projection or
    /// sampling error).  Exactness-sensitive consumers (the theta scores)
    /// may reuse index entries only under this flag.
    [[nodiscard]] virtual bool exact() const noexcept { return false; }

    /// True when the index holds precomputed rows, making distances_from a
    /// copy rather than a recompute.  Consumers with a cheaper batch
    /// kernel of their own (the fused theta path) should read the index
    /// back only when this is set.
    [[nodiscard]] virtual bool precomputed_rows() const noexcept {
        return false;
    }

    /// Bytes of storage this index owns beyond the borrowed points: the
    /// dense matrix, sketches' matrix, or pivot-signature table.  Zero for
    /// backends that precompute nothing ("lazy").  This is the number the
    /// shard tree (fl/sharding.hpp) caps per pass -- the per-round memory
    /// ceiling reported as `index_peak_bytes` in perf artifacts.
    [[nodiscard]] virtual std::size_t storage_bytes() const noexcept {
        return 0;
    }
};

/// Shared implementation for backends whose storage is a dense
/// DistanceMatrix (exact over the originals, or exact over sketches):
/// every query is a row scan in ascending-j order -- the exact access
/// pattern of the pre-index DBSCAN scan / argmin fallback, so labels and
/// tie-breaks are unchanged bit-for-bit given the same matrix.
class MatrixBackedIndex : public GradientIndex {
public:
    [[nodiscard]] std::size_t size() const noexcept override {
        return matrix_.size();
    }
    [[nodiscard]] Metric metric() const noexcept override {
        return matrix_.metric();
    }
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override {
        return matrix_.at(i, j);
    }
    [[nodiscard]] std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const override;
    [[nodiscard]] std::size_t nearest_of(
        std::size_t i,
        std::span<const std::size_t> candidates) const override;
    void distances_from(std::size_t i, std::span<double> out) const override;
    [[nodiscard]] bool precomputed_rows() const noexcept override {
        return true;
    }
    /// The dense n x n value table plus the cached per-point norms.
    [[nodiscard]] std::size_t storage_bytes() const noexcept override {
        return (matrix_.size() * matrix_.size() + matrix_.norms().size()) *
               sizeof(double);
    }

    [[nodiscard]] const DistanceMatrix& matrix() const noexcept {
        return matrix_;
    }

protected:
    MatrixBackedIndex() = default;
    explicit MatrixBackedIndex(DistanceMatrix matrix) noexcept
        : matrix_(std::move(matrix)) {}

    DistanceMatrix matrix_;
};

/// The dense exact backend: today's DistanceMatrix behind the index API.
class ExactIndex final : public MatrixBackedIndex {
public:
    /// Builds the pairwise matrix over `points` (the O(n^2 d) job, row
    /// fan-out on `pool`).
    /// \param metric geometry of every stored distance.
    /// \param points the round's point set; not borrowed (values copied
    ///               into the matrix during the build).
    /// \param pool   carries the row fan-out; values are identical for
    ///               any pool size.
    ExactIndex(Metric metric, std::span<const std::vector<float>> points,
               support::ThreadPool& pool = support::ThreadPool::global())
        : MatrixBackedIndex(DistanceMatrix(metric, points, pool)) {}
    /// Adopts a prebuilt matrix.
    /// \param matrix dense pairwise distances to serve queries from.
    explicit ExactIndex(DistanceMatrix matrix) noexcept
        : MatrixBackedIndex(std::move(matrix)) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "exact";
    }
    [[nodiscard]] bool exact() const noexcept override { return true; }
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
    /// lifetime.
    /// \param metric geometry every query computes in.
    /// \param points the round's point set, borrowed.
    LazyIndex(Metric metric,
              std::span<const std::vector<float>> points) noexcept
        : metric_(metric), points_(points) {}

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
    [[nodiscard]] bool exact() const noexcept override { return true; }

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
/// any sketch -- and the index *reports* exact() accordingly, so the
/// theta read-back reuses the dense rows instead of recomputing them.
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
    /// dense exact matrix).  Throws std::invalid_argument when a point is
    /// narrower than the first.
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
    /// DistanceMatrix would apply to the sketches (exact matrix lookup in
    /// the break-even fallback).
    [[nodiscard]] double distance(std::size_t i,
                                  std::size_t j) const override;
    [[nodiscard]] std::vector<std::size_t> neighbors_within(
        std::size_t i, double eps) const override;
    [[nodiscard]] std::size_t nearest_of(
        std::size_t i,
        std::span<const std::size_t> candidates) const override;
    void distances_from(std::size_t i, std::span<double> out) const override;
    /// Pruned k-distance: expands a norm-ordered band around the query
    /// until the norm-difference lower bound proves the remaining points
    /// cannot enter the k smallest.  Bit-identical to the default's order
    /// statistic (Euclidean sketch mode; delegates otherwise).
    [[nodiscard]] double kth_distance(std::size_t i,
                                      std::size_t k) const override;
    /// True only in the break-even fallback, where the stored matrix holds
    /// the exact pairwise metric over the original points.
    [[nodiscard]] bool exact() const noexcept override { return fallback_; }
    [[nodiscard]] bool precomputed_rows() const noexcept override {
        return fallback_;
    }
    /// Sketches, norms and norm order, plus the projection matrix: shared
    /// across indexes, but still counted against each one.
    [[nodiscard]] std::size_t storage_bytes() const noexcept override;

    /// Sketch dimensionality actually used (0 when n == 0).
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
    bool fallback_ = false;
    std::vector<float> sketches_;      ///< n x k sketch rows, row-major
    std::vector<double> norms_;        ///< sketch L2 norms (band + cosine)
    std::vector<std::size_t> norm_order_;  ///< point ids ascending by norm
    /// Shared per (d, k, seed); held so storage_bytes() counts it.
    std::shared_ptr<const support::ProjectionMatrix> projection_;
    DistanceMatrix dense_;             ///< break-even fallback storage
};

/// Pivot-profile backend: m gradients are sampled as pivots, every point
/// gets the m-vector of exact metric distances to them, and the index
/// distance is the trimmed-RMS difference between profiles.  Points close
/// under the true metric have close profiles (each coordinate is
/// 1-Lipschitz in the point by the triangle inequality), so cluster
/// structure survives while memory stays O(n m) -- the backend a
/// million-client shard can afford, where any (n+1)^2 matrix cannot
/// exist.  Queries are O(m) per pair with no precomputed pairwise table.
///
/// When n <= m the profile table (n m distances) costs at least as much
/// to build and store as the dense matrix it is supposed to avoid, so --
/// like RandomProjectionIndex below its break-even -- the index holds the
/// exact matrix instead (pivot_count() reports 0, exact() reports true so
/// the theta read-back reuses the rows): small rounds decide identically
/// to "exact", and the O(n m) cap engages exactly where the matrix would
/// outgrow it.
class SampledIndex final : public GradientIndex {
public:
    /// Samples the pivots and fills the signature table.
    /// \param points the round's point set; not borrowed after the build.
    /// \param params pivot count (m), sampling seed, and the metric the
    ///               profiles are measured in.
    /// \param pool   carries the per-point signature fan-out.
    SampledIndex(std::span<const std::vector<float>> points,
                 const IndexParams& params,
                 support::ThreadPool& pool = support::ThreadPool::global());

    [[nodiscard]] std::string_view name() const noexcept override {
        return "sampled";
    }
    [[nodiscard]] std::size_t size() const noexcept override { return n_; }
    [[nodiscard]] Metric metric() const noexcept override { return metric_; }
    /// Trimmed-RMS difference between the two pivot-distance profiles
    /// (exact matrix lookup in the small-n fallback).
    /// \param i first point ordinal.
    /// \param j second point ordinal.
    [[nodiscard]] double distance(std::size_t i, std::size_t j) const override;
    void distances_from(std::size_t i, std::span<double> out) const override;
    /// True only in the small-n fallback, where the stored matrix holds
    /// the exact pairwise metric over the original points.
    [[nodiscard]] bool exact() const noexcept override {
        return pivots_ == 0 && n_ > 0;
    }
    [[nodiscard]] bool precomputed_rows() const noexcept override {
        return pivots_ == 0 && n_ > 0;
    }

    /// Pivot count actually in use; 0 in the small-n dense fallback.
    [[nodiscard]] std::size_t pivot_count() const noexcept { return pivots_; }
    /// Bytes held by the index storage: the n x m signature table, or the
    /// dense matrix in the small-n fallback.
    [[nodiscard]] std::size_t storage_bytes() const noexcept override {
        return (signatures_.size() + dense_.size() * dense_.size()) *
               sizeof(double);
    }

private:
    Metric metric_ = Metric::kCosine;
    std::size_t n_ = 0;
    std::size_t pivots_ = 0;
    std::vector<double> signatures_;  ///< n x m row-major pivot distances
    std::vector<std::size_t> pivot_ids_;  ///< sampled point ordinals
    DistanceMatrix dense_;            ///< small-n fallback (n <= m)
};

/// String-keyed backend table, mirroring core::SystemRegistry.  `global()`
/// comes pre-loaded with "exact", "lazy", "random_projection" and
/// "sampled"; registrations are additive and thread-safe.
class IndexRegistry
    : public FactoryRegistry<std::function<std::unique_ptr<GradientIndex>(
          std::span<const std::vector<float>>, const IndexParams&,
          support::ThreadPool&)>> {
public:
    IndexRegistry() : FactoryRegistry("index backend") {}

    /// Builds the backend `name` over `points`.  Throws std::out_of_range
    /// listing the known names when it is not registered.  The backend may
    /// borrow `points` (see GradientIndex); keep them alive.  Every build
    /// is instrumented: a "cluster.index_build" telemetry span plus a
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

    /// The process-wide registry, built-ins pre-registered.
    static IndexRegistry& global();
};

}  // namespace fairbfl::cluster
