#include "cluster/index.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/vecmath.hpp"
#include "telemetry/telemetry.hpp"

namespace fairbfl::cluster {

namespace {

/// Every backend reads both points of a pair at the first point's width,
/// so a ragged set would be read past a point's end or silently truncated:
/// reject it before any build work.
void check_widths(std::string_view backend,
                  std::span<const std::vector<float>> points) {
    for (const auto& point : points) {
        if (point.size() != points[0].size())
            throw std::invalid_argument(
                std::string(backend) +
                ": point widths differ from the first's");
    }
}

/// The k-th smallest entry of `row` (0-based).  An order statistic is a
/// value, so every backend handing in the same multiset gets the same
/// double, whatever order it filled the row in.
double kth_smallest(std::vector<double> row, std::size_t k) {
    std::nth_element(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(k),
                     row.end());
    return row[k];
}

}  // namespace

// --- GradientIndex defaults ------------------------------------------------
// Generic queries in terms of distance(); ExactIndex overrides the row
// scans with reads of its stored rows.

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

double GradientIndex::kth_distance(std::size_t i, std::size_t k) const {
    std::vector<double> row(size());
    for (std::size_t j = 0; j < row.size(); ++j) row[j] = distance(i, j);
    return kth_smallest(std::move(row), k);
}

// --- ExactIndex ------------------------------------------------------------

ExactIndex::ExactIndex(Metric metric,
                       std::span<const std::vector<float>> points,
                       support::ThreadPool& pool)
    : metric_(metric), n_(points.size()) {
    check_widths("ExactIndex", points);
    values_.assign(n_ * n_, 0.0);
    if (n_ < 2) return;
    if (metric_ == Metric::kCosine) norms_ = support::norms_of(points, pool);

    // Row-parallel upper triangle in row triples; task t owns rows
    // 3t .. 3t + 2, every pair (i, j > i) of them and its mirror slot, so
    // writes never overlap.
    const auto store = [this](std::size_t i, std::size_t j, double d) {
        values_[i * n_ + j] = d;
        values_[j * n_ + i] = d;
    };
    const auto euclidean = [&](std::size_t i, std::size_t j) {
        store(i, j,
              std::sqrt(support::squared_distance_blocked(points[i],
                                                          points[j])));
    };
    support::parallel_for(
        0, (n_ + 1) / 3,
        [&](std::size_t t) {
            const std::size_t i0 = 3 * t;
            const std::size_t end = std::min(i0 + 3, n_);
            if (metric_ == Metric::kCosine) {
                for (std::size_t i = i0; i < end; ++i)
                    for (std::size_t j = i + 1; j < n_; ++j)
                        store(i, j,
                              support::cosine_distance_cached(
                                  points[i], points[j], norms_[i],
                                  norms_[j]));
                return;
            }
            // A full triple walks the columns past it four at a time
            // through the 3x4 tile (bitwise the single-pair kernel); the
            // pairs inside the triple and the column tail go pair by pair.
            std::size_t tiled_end = end;
            if (end - i0 == 3) {
                for (; tiled_end + 4 <= n_; tiled_end += 4) {
                    std::array<double, 12> squared{};
                    support::squared_distance_blocked_3x4(
                        points.subspan(i0).first<3>(),
                        points.subspan(tiled_end).first<4>(), squared);
                    for (std::size_t k = 0; k < 12; ++k)
                        store(i0 + k / 4, tiled_end + k % 4,
                              std::sqrt(squared[k]));
                }
            }
            for (std::size_t i = i0; i < end; ++i) {
                for (std::size_t j = i + 1; j < end; ++j) euclidean(i, j);
                for (std::size_t j = tiled_end; j < n_; ++j) euclidean(i, j);
            }
        },
        pool);
}

std::vector<std::size_t> ExactIndex::neighbors_within(
    std::size_t i, double eps) const {
    std::vector<std::size_t> neighbors;
    const auto distances = row(i);
    for (std::size_t j = 0; j < distances.size(); ++j) {
        if (distances[j] <= eps) neighbors.push_back(j);
    }
    return neighbors;
}

double ExactIndex::kth_distance(std::size_t i, std::size_t k) const {
    const auto distances = row(i);
    return kth_smallest({distances.begin(), distances.end()}, k);
}

// --- LazyIndex -------------------------------------------------------------

LazyIndex::LazyIndex(Metric metric, std::span<const std::vector<float>> points)
    : metric_(metric), points_(points) {
    check_widths("LazyIndex", points);
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
        // originals: exact distances, cheaper than projecting.
        sketch_dims_ = dim;
        dense_.emplace(params.metric, points, pool);
        return;
    }
    check_widths("RandomProjectionIndex", points);
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
    if (dense_) return dense_->distance(i, j);
    if (i == j) return 0.0;
    // Exactly the kernels ExactIndex applies per pair, so on-demand values
    // are bit-identical to a dense exact index over the sketches.
    if (metric_ == Metric::kCosine) {
        return support::cosine_distance_cached(sketch(i), sketch(j),
                                               norms_[i], norms_[j]);
    }
    return std::sqrt(support::squared_distance_blocked(sketch(i), sketch(j)));
}

std::vector<std::size_t> RandomProjectionIndex::neighbors_within(
    std::size_t i, double eps) const {
    if (dense_) return dense_->neighbors_within(i, eps);
    std::vector<std::size_t> neighbors;
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

double RandomProjectionIndex::kth_distance(std::size_t i,
                                           std::size_t k) const {
    if (dense_) return dense_->kth_distance(i, k);
    if (metric_ != Metric::kEuclidean) return GradientIndex::kth_distance(i, k);
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
    if (dense_) return dense_->storage_bytes();
    if (projection_ == nullptr) return 0;
    return sketches_.size() * sizeof(float) + norms_.size() * sizeof(double) +
           norm_order_.size() * sizeof(std::size_t) +
           projection_->rows.size() * sizeof(float);
}

// --- IndexRegistry ---------------------------------------------------------

namespace {

/// Sorted by name: names() lists the backends in this order.
constexpr IndexRegistry::Entry kIndexes[] = {
    {"exact",
     [](std::span<const std::vector<float>> points, const IndexParams& params,
        support::ThreadPool& pool) -> std::unique_ptr<GradientIndex> {
         return std::make_unique<ExactIndex>(params.metric, points, pool);
     }},
    {"lazy",
     [](std::span<const std::vector<float>> points, const IndexParams& params,
        support::ThreadPool&) -> std::unique_ptr<GradientIndex> {
         return std::make_unique<LazyIndex>(params.metric, points);
     }},
    {"random_projection",
     [](std::span<const std::vector<float>> points, const IndexParams& params,
        support::ThreadPool& pool) -> std::unique_ptr<GradientIndex> {
         return std::make_unique<RandomProjectionIndex>(points, params, pool);
     }},
};

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

const IndexRegistry& IndexRegistry::global() {
    static constexpr IndexRegistry registry(kIndexes);
    return registry;
}

}  // namespace fairbfl::cluster
