// Vector kernels: correctness and edge cases (zero vectors, clamping).

#include <gtest/gtest.h>

#include <cmath>
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

TEST(VecMath, BlockedDotCloseToExactDot) {
    std::uint32_t state = 2;
    for (const std::size_t n : {1UL, 4UL, 7UL, 1000UL, 4099UL}) {
        const auto x = random_vec(n, state);
        const auto y = random_vec(n, state);
        const double exact = vm::dot(x, y);
        // Reassociated, so not bit-equal in general -- but tight.
        EXPECT_NEAR(vm::dot_blocked(x, y), exact,
                    1e-9 * (1.0 + std::abs(exact)))
            << "n=" << n;
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
    // one worker and on four: rows fan out over the pool, and every slot
    // must still equal the pairwise kernel bit for bit.
    fairbfl::support::ThreadPool serial(1);
    fairbfl::support::ThreadPool parallel(4);
    std::uint32_t state = 5;
    for (const std::size_t dim : {33UL, 7850UL}) {
        std::vector<std::vector<float>> rows;
        for (int i = 0; i < 9; ++i) rows.push_back(random_vec(dim, state));
        rows[4].assign(dim, 0.0F);
        const auto query = random_vec(dim, state);
        for (auto* pool : {&serial, &parallel}) {
            std::vector<double> out(rows.size());
            vm::cosine_distances_to(rows, query, out, *pool);
            for (std::size_t i = 0; i < rows.size(); ++i)
                EXPECT_EQ(out[i], vm::cosine_distance(rows[i], query))
                    << "dim=" << dim << " threads=" << pool->size()
                    << " row=" << i;
            EXPECT_EQ(out[4], 1.0);
        }
    }
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

TEST(VecMath, OuterAccumulateBitIdenticalToPerRowAxpy) {
    std::uint32_t state = 13;
    const std::size_t rows = 7, cols = 19;
    const auto d = random_vec(rows, state);
    const auto x = random_vec(cols, state);
    auto expect = random_vec(rows * cols, state);
    auto got = expect;

    for (std::size_t r = 0; r < rows; ++r)
        vm::axpy(d[r], x, std::span<float>(expect).subspan(r * cols, cols));
    vm::outer_accumulate(d, x, rows, cols, got);
    EXPECT_EQ(got, expect);
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

// The parallel determinism contract of the combine kernels: a
// multi-threaded pool must reproduce the serial accumulation bit-for-bit
// (each element sums its rows in row order regardless of chunking).
TEST(VecMath, WeightedSumParallelBitIdenticalToSerial) {
    std::uint32_t state = 7;
    const std::size_t dim = 3 * 8192 + 17;  // spans several chunks
    std::vector<std::vector<float>> rows;
    for (int r = 0; r < 6; ++r) rows.push_back(random_vec(dim, state));
    const std::vector<double> weights{0.1, 0.3, 0.05, 0.25, 0.2, 0.1};

    std::vector<float> serial(dim, 0.0F);
    for (std::size_t r = 0; r < rows.size(); ++r)
        vm::axpy(static_cast<float>(weights[r]), rows[r], serial);

    fairbfl::support::ThreadPool pool(4);
    std::vector<float> parallel(dim, 0.0F);
    vm::weighted_sum(rows, weights, parallel, pool);
    EXPECT_EQ(parallel, serial);
}

TEST(VecMath, MeanOfParallelBitIdenticalToSerial) {
    std::uint32_t state = 8;
    const std::size_t dim = 2 * 8192 + 5;
    std::vector<std::vector<float>> rows;
    for (int r = 0; r < 5; ++r) rows.push_back(random_vec(dim, state));

    std::vector<float> serial(dim, 0.0F);
    for (const auto& row : rows) vm::axpy(1.0F, row, serial);
    vm::scale(serial, 1.0F / static_cast<float>(rows.size()));

    fairbfl::support::ThreadPool pool(4);
    std::vector<float> parallel(dim, 0.0F);
    vm::mean_of(rows, parallel, pool);
    EXPECT_EQ(parallel, serial);
}

}  // namespace
