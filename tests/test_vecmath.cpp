// Vector kernels: correctness and edge cases (zero vectors, clamping).

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "support/vecmath.hpp"

namespace {

namespace vm = fairbfl::support;

TEST(VecMath, Axpy) {
    std::vector<float> x{1.0F, 2.0F, 3.0F};
    std::vector<float> y{10.0F, 20.0F, 30.0F};
    vm::axpy(2.0F, x, y);
    EXPECT_FLOAT_EQ(y[0], 12.0F);
    EXPECT_FLOAT_EQ(y[1], 24.0F);
    EXPECT_FLOAT_EQ(y[2], 36.0F);
}

TEST(VecMath, ScaleAndFill) {
    std::vector<float> x{1.0F, -2.0F, 4.0F};
    vm::scale(x, 0.5F);
    EXPECT_FLOAT_EQ(x[1], -1.0F);
    vm::fill(x, 7.0F);
    for (const float v : x) EXPECT_FLOAT_EQ(v, 7.0F);
}

TEST(VecMath, DotAndNorm) {
    std::vector<float> x{3.0F, 4.0F};
    EXPECT_DOUBLE_EQ(vm::dot(x, x), 25.0);
    EXPECT_DOUBLE_EQ(vm::norm2(x), 5.0);
}

TEST(VecMath, SquaredDistance) {
    std::vector<float> x{1.0F, 1.0F};
    std::vector<float> y{4.0F, 5.0F};
    EXPECT_DOUBLE_EQ(vm::squared_distance(x, y), 25.0);
}

TEST(VecMath, CosineDistanceIdenticalIsZero) {
    std::vector<float> x{1.0F, 2.0F, 3.0F};
    EXPECT_NEAR(vm::cosine_distance(x, x), 0.0, 1e-12);
}

TEST(VecMath, CosineDistanceOppositeIsTwo) {
    std::vector<float> x{1.0F, 0.0F};
    std::vector<float> y{-1.0F, 0.0F};
    EXPECT_NEAR(vm::cosine_distance(x, y), 2.0, 1e-12);
}

TEST(VecMath, CosineDistanceOrthogonalIsOne) {
    std::vector<float> x{1.0F, 0.0F};
    std::vector<float> y{0.0F, 5.0F};
    EXPECT_NEAR(vm::cosine_distance(x, y), 1.0, 1e-12);
}

TEST(VecMath, CosineDistanceScaleInvariant) {
    std::vector<float> x{1.0F, 2.0F, -1.0F};
    std::vector<float> y{2.0F, 4.0F, -2.0F};
    EXPECT_NEAR(vm::cosine_distance(x, y), 0.0, 1e-6);
}

TEST(VecMath, CosineDistanceZeroVectorIsMax) {
    std::vector<float> x{0.0F, 0.0F};
    std::vector<float> y{1.0F, 2.0F};
    EXPECT_DOUBLE_EQ(vm::cosine_distance(x, y), 1.0);
    EXPECT_DOUBLE_EQ(vm::cosine_distance(y, x), 1.0);
}

TEST(VecMath, WeightedSum) {
    std::vector<std::vector<float>> rows{{1.0F, 0.0F}, {0.0F, 1.0F}};
    std::vector<double> weights{0.25, 0.75};
    std::vector<float> out(2);
    vm::weighted_sum(rows, weights, out);
    EXPECT_FLOAT_EQ(out[0], 0.25F);
    EXPECT_FLOAT_EQ(out[1], 0.75F);
}

TEST(VecMath, MeanOf) {
    std::vector<std::vector<float>> rows{{2.0F, 4.0F}, {4.0F, 8.0F}};
    std::vector<float> out(2);
    vm::mean_of(rows, out);
    EXPECT_FLOAT_EQ(out[0], 3.0F);
    EXPECT_FLOAT_EQ(out[1], 6.0F);
}

TEST(VecMath, MeanOfEmptyIsZero) {
    std::vector<std::vector<float>> rows;
    std::vector<float> out(3, 9.0F);
    vm::mean_of(rows, out);
    for (const float v : out) EXPECT_FLOAT_EQ(v, 0.0F);
}

// --- Blocked / batch kernels -----------------------------------------------

std::vector<float> random_vec(std::size_t n, std::uint32_t& state) {
    std::vector<float> v(n);
    for (auto& x : v) {
        state = state * 1664525U + 1013904223U;
        x = static_cast<float>(static_cast<double>(state) / 4294967296.0 -
                               0.5);
    }
    return v;
}

TEST(VecMath, AxpyUnrollMatchesReferenceOnOddSizes) {
    std::uint32_t state = 1;
    for (const std::size_t n : {0UL, 1UL, 3UL, 4UL, 5UL, 17UL, 1023UL}) {
        const auto x = random_vec(n, state);
        auto y = random_vec(n, state);
        auto reference = y;
        for (std::size_t i = 0; i < n; ++i)
            reference[i] += 1.5F * x[i];
        vm::axpy(1.5F, x, y);
        EXPECT_EQ(y, reference) << "n=" << n;
    }
}

TEST(VecMath, BlockedSquaredDistanceCloseToExact) {
    std::uint32_t state = 3;
    for (const std::size_t n : {1UL, 5UL, 64UL, 4097UL}) {
        const auto x = random_vec(n, state);
        const auto y = random_vec(n, state);
        const double exact = vm::squared_distance(x, y);
        EXPECT_NEAR(vm::squared_distance_blocked(x, y), exact,
                    1e-9 * (1.0 + exact))
            << "n=" << n;
    }
}

TEST(VecMath, CachedCosineBitIdenticalToPlain) {
    std::uint32_t state = 4;
    const auto x = random_vec(129, state);
    const auto y = random_vec(129, state);
    EXPECT_EQ(vm::cosine_distance_cached(x, y, vm::norm2(x), vm::norm2(y)),
              vm::cosine_distance(x, y));
}

TEST(VecMath, BatchCosineBitIdenticalToPairwise) {
    // The model's real width (7850) and a zero row (the 1.0 branch), on
    // one worker and on four: groups of eight rows fan out over the pool,
    // and every slot must still equal the pairwise kernel bit for bit.
    // 9 and 17 rows end in a short group; 193 is the cluster_heavy pass.
    fairbfl::support::ThreadPool serial(1);
    fairbfl::support::ThreadPool parallel(4);
    std::uint32_t state = 5;
    for (const std::size_t dim : {33UL, 7850UL}) {
        for (const std::size_t count : {9UL, 17UL, 193UL}) {
            std::vector<std::vector<float>> rows;
            for (std::size_t i = 0; i < count; ++i)
                rows.push_back(random_vec(dim, state));
            rows[4].assign(dim, 0.0F);
            const auto query = random_vec(dim, state);
            for (auto* pool : {&serial, &parallel}) {
                std::vector<double> out(rows.size());
                vm::cosine_distances_to(rows, query, out, *pool);
                for (std::size_t i = 0; i < rows.size(); ++i)
                    EXPECT_EQ(out[i], vm::cosine_distance(rows[i], query))
                        << "dim=" << dim << " count=" << count
                        << " threads=" << pool->size() << " row=" << i;
                EXPECT_EQ(out[4], 1.0);
            }
        }
    }
}

TEST(VecMath, ThetaAndCombineKernelsRejectRaggedWidths) {
    // A row narrower or wider than the query or the output would be read
    // past its end (or only in part); each kernel throws before any task
    // runs, on a serial pool and on a parallel one.
    fairbfl::support::ThreadPool serial(1);
    fairbfl::support::ThreadPool parallel(4);
    std::uint32_t state = 15;
    std::vector<std::vector<float>> rows;
    for (int i = 0; i < 12; ++i) rows.push_back(random_vec(64, state));
    const auto query = random_vec(64, state);
    const std::vector<double> weights(rows.size(), 1.0 / 12.0);
    for (const std::size_t bad_width : {0UL, 63UL, 65UL}) {
        auto ragged = rows;
        ragged[9] = random_vec(bad_width, state);
        for (auto* pool : {&serial, &parallel}) {
            std::vector<double> theta(ragged.size());
            EXPECT_THROW(vm::cosine_distances_to(ragged, query, theta, *pool),
                         std::invalid_argument)
                << "width " << bad_width;
            std::vector<float> out(64);
            EXPECT_THROW(vm::weighted_sum(ragged, weights, out, *pool),
                         std::invalid_argument)
                << "width " << bad_width;
            EXPECT_THROW(vm::mean_of(ragged, out, *pool),
                         std::invalid_argument)
                << "width " << bad_width;
        }
    }
    // A short output (the rows are right, the destination is not) and a
    // count mismatch between rows and their slots or weights.
    std::vector<float> short_out(63);
    EXPECT_THROW(vm::weighted_sum(rows, weights, short_out),
                 std::invalid_argument);
    EXPECT_THROW(vm::mean_of(rows, short_out), std::invalid_argument);
    std::vector<double> few_slots(rows.size() - 1);
    EXPECT_THROW(vm::cosine_distances_to(rows, query, few_slots),
                 std::invalid_argument);
    std::vector<float> out(64);
    EXPECT_THROW(vm::weighted_sum(rows,
                                  std::span<const double>(weights).first(11),
                                  out),
                 std::invalid_argument);
}

TEST(VecMath, NormsOfMatchesNorm2) {
    std::uint32_t state = 6;
    std::vector<std::vector<float>> rows;
    for (int i = 0; i < 5; ++i) rows.push_back(random_vec(11, state));
    const auto norms = vm::norms_of(rows);
    ASSERT_EQ(norms.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(norms[i], vm::norm2(rows[i])) << i;
}

// --- Training-engine kernels: bit-identity to their scalar references ------

TEST(VecMath, GemvBitIdenticalToPerRowDot) {
    std::uint32_t state = 11;
    // Row counts cover the 4-block, the 2-row tail, and the single-row
    // tail; odd column counts cover the 2-column unroll remainder.
    for (const std::size_t rows : {1UL, 2UL, 3UL, 4UL, 5UL, 6UL, 7UL, 10UL,
                                   13UL, 32UL}) {
        for (const std::size_t cols : {1UL, 2UL, 7UL, 64UL, 783UL}) {
            const auto a = random_vec(rows * cols, state);
            const auto x = random_vec(cols, state);
            const auto bias = random_vec(rows, state);
            std::vector<float> expect(rows);
            for (std::size_t r = 0; r < rows; ++r) {
                expect[r] =
                    bias[r] +
                    static_cast<float>(vm::dot(
                        std::span<const float>(a).subspan(r * cols, cols),
                        x));
            }
            std::vector<float> got(rows);
            vm::gemv(a, rows, cols, x, bias, got);
            EXPECT_EQ(got, expect) << rows << "x" << cols;

            // Biasless form: the bare cast double sum.
            for (std::size_t r = 0; r < rows; ++r) {
                expect[r] = static_cast<float>(vm::dot(
                    std::span<const float>(a).subspan(r * cols, cols), x));
            }
            vm::gemv(a, rows, cols, x, {}, got);
            EXPECT_EQ(got, expect) << rows << "x" << cols << " no-bias";
        }
    }
}

TEST(VecMath, GemvTransposeAccumulateBitIdenticalToScalarLoop) {
    std::uint32_t state = 12;
    const std::size_t rows = 10, cols = 13;
    const auto a = random_vec(rows * cols, state);
    const auto d = random_vec(rows, state);

    std::vector<float> expect(cols, 0.0F);
    for (std::size_t j = 0; j < cols; ++j) {
        float acc = 0.0F;
        for (std::size_t r = 0; r < rows; ++r) acc += d[r] * a[r * cols + j];
        expect[j] = acc;
    }
    std::vector<float> got(cols, 0.0F);
    vm::gemv_transpose_accumulate(a, rows, cols, d, got);
    EXPECT_EQ(got, expect);
}

TEST(VecMath, OuterRowsL2BitIdenticalToFillAxpyAndDot) {
    std::uint32_t state = 13;
    const std::size_t rows = 7, cols = 19, count = 3;
    const float l2 = 1e-3F;
    const auto d = random_vec(count * rows, state);
    std::vector<std::vector<float>> xs;
    for (std::size_t s = 0; s < count; ++s)
        xs.push_back(random_vec(cols, state));
    std::vector<const float*> samples;
    for (const auto& x : xs) samples.push_back(x.data());
    const auto w = random_vec(rows * cols, state);

    // The gradient is written, so whatever the buffer held is overwritten.
    std::vector<float> expect(rows * cols, 0.0F);
    for (std::size_t s = 0; s < count; ++s)
        for (std::size_t r = 0; r < rows; ++r)
            vm::axpy(d[s * rows + r], xs[s],
                     std::span<float>(expect).subspan(r * cols, cols));
    vm::axpy(l2, w, expect);
    std::vector<float> got = random_vec(rows * cols, state);
    double w_norm2 = -1.0;
    vm::outer_rows_l2(d, samples, rows, cols, l2, w, got, &w_norm2);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(w_norm2, vm::dot(w, w));

    std::vector<float> without_norm(rows * cols, 5.0F);
    vm::outer_rows_l2(d, samples, rows, cols, l2, w, without_norm, nullptr);
    EXPECT_EQ(without_norm, expect);
}

TEST(VecMath, OuterRowsL2RejectsMisshapenOperands) {
    std::uint32_t state = 15;
    const std::size_t rows = 3, cols = 5, count = 2;
    const auto d = random_vec(count * rows, state);
    const auto x0 = random_vec(cols, state);
    const auto x1 = random_vec(cols, state);
    const std::vector<const float*> samples{x0.data(), x1.data()};
    const auto w = random_vec(rows * cols, state);
    std::vector<float> g(rows * cols);
    const std::vector<float> short_w(w.begin(), w.end() - 1);
    std::vector<float> short_g(rows * cols - 1);
    const std::vector<float> short_d(d.begin(), d.end() - 1);
    double w_norm2 = 0.0;
    EXPECT_THROW(vm::outer_rows_l2(d, samples, rows, cols, 0.0F, short_w, g,
                                   &w_norm2),
                 std::invalid_argument);
    EXPECT_THROW(vm::outer_rows_l2(d, samples, rows, cols, 0.0F, w, short_g,
                                   &w_norm2),
                 std::invalid_argument);
    EXPECT_THROW(vm::outer_rows_l2(short_d, samples, rows, cols, 0.0F, w, g,
                                   &w_norm2),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        vm::outer_rows_l2(d, samples, rows, cols, 0.0F, w, g, &w_norm2));
}

TEST(VecMath, AddScaledDiffBitIdenticalToScalarLoop) {
    std::uint32_t state = 14;
    for (const std::size_t n : {0UL, 1UL, 3UL, 4UL, 5UL, 17UL, 1023UL}) {
        const auto x = random_vec(n, state);
        const auto z = random_vec(n, state);
        auto expect = random_vec(n, state);
        auto got = expect;
        for (std::size_t i = 0; i < n; ++i)
            expect[i] += 0.25F * (x[i] - z[i]);
        vm::add_scaled_diff(0.25F, x, z, got);
        EXPECT_EQ(got, expect) << "n=" << n;
    }
}

// The parallel determinism contract of the combine kernels: any pool must
// reproduce the serial axpy loop bit-for-bit (each element sums its rows in
// row order regardless of chunking).  The model's width (7850) at 4 and 32
// rows is one inline chunk and at 192 rows six chunks; the wider case
// splits in four with a short tail, and 300 rows reach the 1024-float
// floor.
struct CombineShape {
    std::size_t dim;
    std::size_t rows;
};
const CombineShape kCombineShapes[] = {{7850, 4},
                                       {7850, 32},
                                       {7850, 192},
                                       {3 * 8192 + 17, 40},
                                       {2100, 300}};

TEST(VecMath, WeightedSumParallelBitIdenticalToSerial) {
    std::uint32_t state = 7;
    for (const CombineShape shape : kCombineShapes) {
        std::vector<std::vector<float>> rows;
        std::vector<double> weights;
        for (std::size_t r = 0; r < shape.rows; ++r) {
            rows.push_back(random_vec(shape.dim, state));
            weights.push_back(0.05 + 0.5 * static_cast<double>(r % 7) / 7.0);
        }

        std::vector<float> serial(shape.dim, 0.0F);
        for (std::size_t r = 0; r < rows.size(); ++r)
            vm::axpy(static_cast<float>(weights[r]), rows[r], serial);

        for (const unsigned threads : {1U, 2U, 4U}) {
            fairbfl::support::ThreadPool pool(threads);
            std::vector<float> parallel(shape.dim, 0.0F);
            vm::weighted_sum(rows, weights, parallel, pool);
            EXPECT_EQ(parallel, serial)
                << shape.rows << "x" << shape.dim << " threads=" << threads;
        }
    }
}

TEST(VecMath, MeanOfParallelBitIdenticalToSerial) {
    std::uint32_t state = 8;
    for (const CombineShape shape : kCombineShapes) {
        std::vector<std::vector<float>> rows;
        for (std::size_t r = 0; r < shape.rows; ++r)
            rows.push_back(random_vec(shape.dim, state));

        std::vector<float> serial(shape.dim, 0.0F);
        for (const auto& row : rows) vm::axpy(1.0F, row, serial);
        vm::scale(serial, 1.0F / static_cast<float>(rows.size()));

        for (const unsigned threads : {1U, 2U, 4U}) {
            fairbfl::support::ThreadPool pool(threads);
            std::vector<float> parallel(shape.dim, 0.0F);
            vm::mean_of(rows, parallel, pool);
            EXPECT_EQ(parallel, serial)
                << shape.rows << "x" << shape.dim << " threads=" << threads;
        }
    }
}

}  // namespace
