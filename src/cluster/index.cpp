#include "cluster/index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/vecmath.hpp"
#include "telemetry/telemetry.hpp"

namespace fairbfl::cluster {

// --- GradientIndex defaults ------------------------------------------------
// Generic fallbacks in terms of distance(); matrix-backed indexes override
// with row scans over their own storage.

std::vector<std::size_t> GradientIndex::neighbors_within(std::size_t i,
                                                         double eps) const {
    std::vector<std::size_t> neighbors;
    const std::size_t n = size();
    for (std::size_t j = 0; j < n; ++j) {
        if (distance(i, j) <= eps) neighbors.push_back(j);
    }
    return neighbors;
}

std::size_t GradientIndex::nearest_of(
    std::size_t i, std::span<const std::size_t> candidates) const {
    double best = std::numeric_limits<double>::infinity();
    std::size_t nearest = candidates.front();
    for (const std::size_t candidate : candidates) {
        const double d = distance(i, candidate);
        if (d < best) {
            best = d;
            nearest = candidate;
        }
    }
    return nearest;
}

void GradientIndex::distances_from(std::size_t i,
                                   std::span<double> out) const {
    const std::size_t n = size();
    for (std::size_t j = 0; j < n; ++j) out[j] = distance(i, j);
}

double GradientIndex::kth_distance(std::size_t i, std::size_t k) const {
    std::vector<double> row(size());
    distances_from(i, row);
    std::nth_element(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(k),
                     row.end());
    return row[k];
}

// --- MatrixBackedIndex -----------------------------------------------------

std::vector<std::size_t> MatrixBackedIndex::neighbors_within(
    std::size_t i, double eps) const {
    std::vector<std::size_t> neighbors;
    const auto row = matrix_.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
        if (row[j] <= eps) neighbors.push_back(j);
    }
    return neighbors;
}

std::size_t MatrixBackedIndex::nearest_of(
    std::size_t i, std::span<const std::size_t> candidates) const {
    const auto row = matrix_.row(i);
    double best = std::numeric_limits<double>::infinity();
    std::size_t nearest = candidates.front();
    for (const std::size_t candidate : candidates) {
        if (row[candidate] < best) {
            best = row[candidate];
            nearest = candidate;
        }
    }
    return nearest;
}

void MatrixBackedIndex::distances_from(std::size_t i,
                                       std::span<double> out) const {
    const auto row = matrix_.row(i);
    std::copy(row.begin(), row.end(), out.begin());
}

// --- RandomProjectionIndex -------------------------------------------------

namespace {

/// Conservative slack for the norm-difference lower bound: the triangle
/// inequality |  ||a|| - ||b||  | <= ||a - b|| holds in real arithmetic,
/// but norms and distances are each rounded once, so the banded pruning
/// widens every bound before excluding anything.
constexpr double kBandRelSlack = 1e-9;
constexpr double kBandAbsSlack = 1e-12;

double sketch_norm(std::span<const float> sketch) noexcept {
    return support::norm2(sketch);
}

}  // namespace

RandomProjectionIndex::RandomProjectionIndex(
    std::span<const std::vector<float>> points, const IndexParams& params,
    support::ThreadPool& pool)
    : metric_(params.metric), n_(points.size()) {
    if (points.empty()) return;
    const std::size_t dim = points[0].size();
    const std::size_t k = std::max<std::size_t>(params.projection_dims, 1);
    if (dim <= k || points.size() <= 2 * k) {
        // Below the break-even (see class comment) the sketches are the
        // originals: exact distances, cheaper than projecting.  The
        // fallback *reports* its exactness (exact() == true) so the theta
        // read-back reuses the matrix rows it already paid for instead of
        // recomputing the global's row.
        sketch_dims_ = dim;
        fallback_ = true;
        dense_ = DistanceMatrix(params.metric, points, pool);
        return;
    }
    for (const auto& point : points) {
        if (point.size() < dim)
            throw std::invalid_argument(
                "RandomProjectionIndex: point narrower than the first");
    }
    sketch_dims_ = k;
    projection_ = support::gaussian_projection(dim, k, params.seed);
    std::vector<const float*> rows(n_);
    for (std::size_t i = 0; i < n_; ++i) rows[i] = points[i].data();
    sketches_.resize(n_ * k);
    support::project_rows(*projection_, rows, sketches_, pool);
    norms_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) norms_[i] = sketch_norm(sketch(i));
    sort_by_norm();
}

void RandomProjectionIndex::sort_by_norm() {
    norm_order_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) norm_order_[i] = i;
    // A strict weak order even over non-finite sketches: NaN norms sort
    // after every other norm, and ties -- NaN with NaN included -- break
    // by id.
    std::sort(norm_order_.begin(), norm_order_.end(),
              [&](std::size_t a, std::size_t b) {
                  const bool a_nan = std::isnan(norms_[a]);
                  const bool b_nan = std::isnan(norms_[b]);
                  if (a_nan != b_nan) return b_nan;
                  if (!a_nan && norms_[a] != norms_[b])
                      return norms_[a] < norms_[b];
                  return a < b;
              });
}

std::pair<std::size_t, std::size_t> RandomProjectionIndex::norm_band(
    double lo, double hi) const {
    const auto begin = std::lower_bound(
        norm_order_.begin(), norm_order_.end(), lo,
        [&](std::size_t id, double value) { return norms_[id] < value; });
    const auto end = std::upper_bound(
        begin, norm_order_.end(), hi,
        [&](double value, std::size_t id) { return value < norms_[id]; });
    return {static_cast<std::size_t>(begin - norm_order_.begin()),
            static_cast<std::size_t>(end - norm_order_.begin())};
}

double RandomProjectionIndex::distance(std::size_t i, std::size_t j) const {
    if (fallback_) return dense_.at(i, j);
    if (i == j) return 0.0;
    // Exactly the kernels DistanceMatrix applies per pair, so on-demand
    // values are bit-identical to the dense sketch matrix this replaced.
    if (metric_ == Metric::kCosine) {
        return support::cosine_distance_cached(sketch(i), sketch(j),
                                               norms_[i], norms_[j]);
    }
    return std::sqrt(support::squared_distance_blocked(sketch(i), sketch(j)));
}

std::vector<std::size_t> RandomProjectionIndex::neighbors_within(
    std::size_t i, double eps) const {
    std::vector<std::size_t> neighbors;
    if (fallback_) {
        const auto row = dense_.row(i);
        for (std::size_t j = 0; j < row.size(); ++j)
            if (row[j] <= eps) neighbors.push_back(j);
        return neighbors;
    }
    if (metric_ != Metric::kEuclidean) {
        for (std::size_t j = 0; j < n_; ++j)
            if (distance(i, j) <= eps) neighbors.push_back(j);
        return neighbors;
    }
    // Banded scan: ||s_i - s_j|| >= | ||s_i|| - ||s_j|| |, so only the
    // norm band [||s_i|| - eps, ||s_i|| + eps] (widened by the FP slack)
    // can contain radius-eps neighbours.
    const double reach = eps * (1.0 + kBandRelSlack) + kBandAbsSlack;
    const auto [lo, hi] = norm_band(norms_[i] - reach, norms_[i] + reach);
    for (std::size_t r = lo; r < hi; ++r) {
        const std::size_t j = norm_order_[r];
        if (distance(i, j) <= eps) neighbors.push_back(j);
    }
    // Ascending ordinals, matching the dense row scan's output exactly.
    std::sort(neighbors.begin(), neighbors.end());
    return neighbors;
}

std::size_t RandomProjectionIndex::nearest_of(
    std::size_t i, std::span<const std::size_t> candidates) const {
    if (fallback_) {
        const auto row = dense_.row(i);
        double best = std::numeric_limits<double>::infinity();
        std::size_t nearest = candidates.front();
        for (const std::size_t candidate : candidates) {
            if (row[candidate] < best) {
                best = row[candidate];
                nearest = candidate;
            }
        }
        return nearest;
    }
    return GradientIndex::nearest_of(i, candidates);
}

void RandomProjectionIndex::distances_from(std::size_t i,
                                           std::span<double> out) const {
    if (fallback_) {
        const auto row = dense_.row(i);
        std::copy(row.begin(), row.end(), out.begin());
        return;
    }
    GradientIndex::distances_from(i, out);
}

double RandomProjectionIndex::kth_distance(std::size_t i,
                                           std::size_t k) const {
    if (fallback_ || metric_ != Metric::kEuclidean)
        return GradientIndex::kth_distance(i, k);
    // Expand outward from i in norm order, keeping the k+1 smallest
    // distances seen in a max-heap.  Once the heap is full, a candidate
    // whose norm-difference lower bound exceeds the heap top (with FP
    // slack) cannot enter the k+1 smallest -- and in norm order neither
    // can anything beyond it on that side.  The result is the exact k-th
    // order statistic of the full row: order statistics are values, so
    // this matches the materialize-and-select default bit for bit.
    const std::size_t rank = static_cast<std::size_t>(
        std::find(norm_order_.begin(), norm_order_.end(), i) -
        norm_order_.begin());
    std::vector<double> heap;  // max-heap of the k+1 smallest so far
    heap.reserve(k + 2);
    const auto offer = [&](double d) {
        if (heap.size() <= k) {
            heap.push_back(d);
            std::push_heap(heap.begin(), heap.end());
        } else if (d < heap.front()) {
            std::pop_heap(heap.begin(), heap.end());
            heap.back() = d;
            std::push_heap(heap.begin(), heap.end());
        }
    };
    const auto bound_allows = [&](double norm_gap) {
        if (heap.size() <= k) return true;
        return norm_gap <= heap.front() * (1.0 + kBandRelSlack) +
                               kBandAbsSlack;
    };
    offer(0.0);  // self-distance, always part of the row
    std::size_t left = rank;        // next unvisited on the low side + 1
    std::size_t right = rank + 1;   // next unvisited on the high side
    bool left_open = left > 0;
    bool right_open = right < n_;
    while (left_open || right_open) {
        const double left_gap =
            left_open ? norms_[i] - norms_[norm_order_[left - 1]]
                      : std::numeric_limits<double>::infinity();
        const double right_gap =
            right_open ? norms_[norm_order_[right]] - norms_[i]
                       : std::numeric_limits<double>::infinity();
        // Openness first: a closed side's +inf gap can tie an open side's
        // +inf (or lose to a NaN) gap, and must never be walked.  Finite
        // gaps take the same branch as the bare comparison.
        if (left_open && (!right_open || left_gap <= right_gap)) {
            if (!bound_allows(left_gap)) {
                left_open = false;
                continue;
            }
            offer(distance(i, norm_order_[left - 1]));
            --left;
            left_open = left > 0;
        } else {
            if (!bound_allows(right_gap)) {
                right_open = false;
                continue;
            }
            offer(distance(i, norm_order_[right]));
            ++right;
            right_open = right < n_;
        }
    }
    return heap.front();
}

std::size_t RandomProjectionIndex::storage_bytes() const noexcept {
    if (fallback_)
        return (dense_.size() * dense_.size() + dense_.norms().size()) *
               sizeof(double);
    if (projection_ == nullptr) return 0;
    return sketches_.size() * sizeof(float) + norms_.size() * sizeof(double) +
           norm_order_.size() * sizeof(std::size_t) +
           projection_->rows.size() * sizeof(float);
}

// --- SampledIndex ----------------------------------------------------------

SampledIndex::SampledIndex(std::span<const std::vector<float>> points,
                           const IndexParams& params,
                           support::ThreadPool& pool)
    : metric_(params.metric), n_(points.size()) {
    if (n_ == 0) return;
    if (n_ <= std::max<std::size_t>(params.pivots, 1)) {
        // Below the break-even (see class comment): the dense matrix is
        // cheaper than any n x m profile table, and exact.
        dense_ = DistanceMatrix(metric_, points, pool);
        return;
    }
    pivots_ = std::max<std::size_t>(params.pivots, 1);
    auto rng = support::Rng::fork(params.seed, /*stream=*/0x51A4);
    pivot_ids_ = rng.sample_indices(n_, pivots_);

    signatures_.resize(n_ * pivots_);
    support::parallel_for(
        0, n_,
        [&](std::size_t i) {
            double* row = signatures_.data() + i * pivots_;
            for (std::size_t p = 0; p < pivots_; ++p)
                row[p] = cluster::distance(metric_, points[i],
                                           points[pivot_ids_[p]]);
        },
        pool);
}

void SampledIndex::distances_from(std::size_t i,
                                  std::span<double> out) const {
    if (pivots_ == 0 && n_ > 0) {
        const auto row = dense_.row(i);
        std::copy(row.begin(), row.end(), out.begin());
        return;
    }
    GradientIndex::distances_from(i, out);
}

double SampledIndex::distance(std::size_t i, std::size_t j) const {
    if (pivots_ == 0) return dense_.at(i, j);
    if (i == j) return 0.0;
    const double* a = signatures_.data() + i * pivots_;
    const double* b = signatures_.data() + j * pivots_;
    double sum = 0.0;
    double top1 = 0.0;
    double top2 = 0.0;
    for (std::size_t p = 0; p < pivots_; ++p) {
        const double diff = a[p] - b[p];
        const double sq = diff * diff;
        sum += sq;
        if (sq > top1) {
            top2 = top1;
            top1 = sq;
        } else if (sq > top2) {
            top2 = sq;
        }
    }
    // Trimmed RMS: each profile coordinate obeys |d(i,p) - d(j,p)| <=
    // d(i,j), but most compress the true distance heavily while a pivot's
    // *own* coordinate (s_p[p] == 0) does not -- so points that are pivots
    // would read as outliers at the scale suggest_eps calibrates from
    // everyone else.  Dropping the two largest coordinates (i and j can
    // each be a pivot) removes that artifact; with far-group pairs many
    // coordinates are large, so the contrast survives the trim.
    std::size_t kept = pivots_;
    if (pivots_ > 4) {
        sum -= top1 + top2;
        kept -= 2;
    }
    return std::sqrt(std::max(sum, 0.0) / static_cast<double>(kept));
}

// --- IndexRegistry ---------------------------------------------------------

namespace {

void register_builtin_indexes(IndexRegistry& registry) {
    registry.add("exact",
                 [](std::span<const std::vector<float>> points,
                    const IndexParams& params, support::ThreadPool& pool)
                     -> std::unique_ptr<GradientIndex> {
                     return std::make_unique<ExactIndex>(params.metric,
                                                         points, pool);
                 });
    registry.add("lazy",
                 [](std::span<const std::vector<float>> points,
                    const IndexParams& params, support::ThreadPool&)
                     -> std::unique_ptr<GradientIndex> {
                     return std::make_unique<LazyIndex>(params.metric,
                                                        points);
                 });
    registry.add("random_projection",
                 [](std::span<const std::vector<float>> points,
                    const IndexParams& params, support::ThreadPool& pool)
                     -> std::unique_ptr<GradientIndex> {
                     return std::make_unique<RandomProjectionIndex>(
                         points, params, pool);
                 });
    registry.add("sampled",
                 [](std::span<const std::vector<float>> points,
                    const IndexParams& params, support::ThreadPool& pool)
                     -> std::unique_ptr<GradientIndex> {
                     return std::make_unique<SampledIndex>(points, params,
                                                           pool);
                 });
}

}  // namespace

std::unique_ptr<GradientIndex> IndexRegistry::build(
    std::string_view name, std::span<const std::vector<float>> points,
    const IndexParams& params, support::ThreadPool& pool) const {
    telemetry::Span span(telemetry::labels::index_build());
    std::unique_ptr<GradientIndex> index = find(name)(points, params, pool);
    span.close();
    telemetry::counter_max(telemetry::labels::index_bytes(),
                           index->storage_bytes());
    return index;
}

IndexRegistry& IndexRegistry::global() {
    static IndexRegistry* registry = [] {
        auto* r = new IndexRegistry;
        register_builtin_indexes(*r);
        return r;
    }();
    return *registry;
}

}  // namespace fairbfl::cluster
