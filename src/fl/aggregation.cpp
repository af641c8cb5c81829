#include "fl/aggregation.hpp"

#include <stdexcept>

#include "support/vecmath.hpp"

namespace fairbfl::fl {

void check_updates(std::span<const GradientUpdate> updates) {
    if (updates.empty())
        throw std::invalid_argument("aggregate: empty update set");
    const std::size_t width = updates[0].weights.size();
    for (const auto& u : updates) {
        if (u.weights.size() != width)
            throw std::invalid_argument("aggregate: ragged update widths");
    }
}

namespace {

/// The update set as a borrowed row view for the vecmath combine kernels,
/// which split the dimension range across the thread pool for large
/// models while accumulating bit-identically to the serial axpy loop.
std::vector<support::RowView> rows_of(
    std::span<const GradientUpdate> updates) {
    std::vector<support::RowView> rows;
    rows.reserve(updates.size());
    for (const auto& u : updates) rows.emplace_back(u.weights);
    return rows;
}

/// check_updates over row views.
void check_rows(std::span<const support::RowView> rows) {
    if (rows.empty())
        throw std::invalid_argument("aggregate: empty update set");
    for (const auto& row : rows) {
        if (row.size() != rows[0].size())
            throw std::invalid_argument("aggregate: ragged update widths");
    }
}

}  // namespace

std::vector<float> simple_average(std::span<const support::RowView> rows) {
    check_rows(rows);
    std::vector<float> out(rows[0].size(), 0.0F);
    support::mean_of(rows, out);
    return out;
}

std::vector<float> weighted_aggregate(std::span<const support::RowView> rows,
                                      std::span<const double> weights) {
    check_rows(rows);
    if (weights.size() != rows.size())
        throw std::invalid_argument("aggregate: weight count mismatch");
    double sum = 0.0;
    for (const double w : weights) {
        if (w < 0.0)
            throw std::invalid_argument("aggregate: negative weight");
        sum += w;
    }
    if (sum <= 0.0)
        throw std::invalid_argument("aggregate: zero weight sum");

    std::vector<double> normalized(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        normalized[i] = weights[i] / sum;
    std::vector<float> out(rows[0].size(), 0.0F);
    support::weighted_sum(rows, normalized, out);
    return out;
}

std::vector<float> simple_average(std::span<const GradientUpdate> updates) {
    return simple_average(rows_of(updates));
}

std::vector<float> weighted_aggregate(std::span<const GradientUpdate> updates,
                                      std::span<const double> weights) {
    return weighted_aggregate(rows_of(updates), weights);
}

std::vector<float> sample_weighted_average(
    std::span<const GradientUpdate> updates) {
    check_updates(updates);
    std::vector<double> weights;
    weights.reserve(updates.size());
    for (const auto& u : updates)
        weights.push_back(static_cast<double>(u.num_samples));
    return weighted_aggregate(updates, weights);
}

}  // namespace fairbfl::fl
