// Parity harness for the pinned kernels (support/simd.hpp).
//
// Every kernel is *bit-pinned*: its loops must match the strict reference
// accumulation orders that produced every committed fixed-seed series, so
// the first test re-states those loops locally and demands exact
// equality.  The four-pair entry must equal four single calls, the batched
// gemv_rows / outer_accumulate_rows entries must equal per-sample gemv
// calls / per-row axpy calls in sample order, and axpy must equal the
// one-multiply-one-add loop, bit for bit -- including the lane-exact AVX2
// encodings that serve those four kernels on capable CPUs, over salted
// inputs (signed zeros, denormals, overflowing magnitudes, infinities and
// NaNs).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "support/rng.hpp"
#include "support/simd.hpp"

namespace {

namespace simd = fairbfl::support::simd;
using fairbfl::support::Rng;

std::vector<float> random_vector(std::size_t n, Rng& rng) {
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    return v;
}

/// Strict left-to-right double chain -- the pinned reference for dot.
double reference_dot(const std::vector<float>& x,
                     const std::vector<float>& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

double reference_squared_distance(const std::vector<float>& x,
                                  const std::vector<float>& y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

/// Four partial chains over blocks of four, combined (a0 + a1) + (a2 + a3),
/// then the tail added in order -- the pinned reference for dot_blocked.
double reference_dot_blocked(const std::vector<float>& x,
                             const std::vector<float>& y) {
    double a[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= x.size(); i += 4)
        for (std::size_t k = 0; k < 4; ++k)
            a[k] += static_cast<double>(x[i + k]) *
                    static_cast<double>(y[i + k]);
    double acc = (a[0] + a[1]) + (a[2] + a[3]);
    for (; i < x.size(); ++i)
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    return acc;
}

/// Same block structure for the squared distance.
double reference_squared_distance_blocked(const std::vector<float>& x,
                                          const std::vector<float>& y) {
    double a[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= x.size(); i += 4) {
        for (std::size_t k = 0; k < 4; ++k) {
            const double d = static_cast<double>(x[i + k]) -
                             static_cast<double>(y[i + k]);
            a[k] += d * d;
        }
    }
    double acc = (a[0] + a[1]) + (a[2] + a[3]);
    for (; i < x.size(); ++i) {
        const double d = static_cast<double>(x[i]) - static_cast<double>(y[i]);
        acc += d * d;
    }
    return acc;
}

const std::size_t kSizes[] = {1, 2, 3, 7, 8, 15, 16, 17, 64, 100, 1000};

TEST(ScalarTable, MatchesPinnedReferenceLoopsBitForBit) {
    EXPECT_STREQ(simd::active_name(), "scalar");
    Rng rng(21);
    for (const std::size_t n : kSizes) {
        const auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        EXPECT_EQ(simd::dot(x.data(), y.data(), n), reference_dot(x, y));
        EXPECT_EQ(simd::squared_distance(x.data(), y.data(), n),
                  reference_squared_distance(x, y));
        EXPECT_EQ(simd::dot_blocked(x.data(), y.data(), n),
                  reference_dot_blocked(x, y));
        EXPECT_EQ(simd::squared_distance_blocked(x.data(), y.data(), n),
                  reference_squared_distance_blocked(x, y));
        // axpy is elementwise: any unroll must stay bit-identical.
        std::vector<float> got = y;
        simd::axpy(0.37F, x.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(got[i], y[i] + 0.37F * x[i]);
        // The fused kernel must equal two separate strict chains.
        double d = 0.0;
        double norm2 = 0.0;
        simd::dot_and_norm(x.data(), y.data(), n, &d, &norm2);
        EXPECT_EQ(d, reference_dot(x, y));
        EXPECT_EQ(norm2, reference_dot(x, x));
    }
    // Every gemv row is contractually bit-identical to a lone dot, plus
    // the float bias add when there is a bias: a small biasless shape and
    // the logistic forward's 10 x 784 with bias.
    struct GemvShape {
        std::size_t rows;
        std::size_t cols;
        bool with_bias;
    };
    for (const GemvShape shape : {GemvShape{7, 33, false},
                                  GemvShape{10, 784, true}}) {
        const std::size_t rows = shape.rows;
        const std::size_t cols = shape.cols;
        const auto a = random_vector(rows * cols, rng);
        const auto x = random_vector(cols, rng);
        const auto bias = random_vector(rows, rng);
        std::vector<float> out(rows);
        simd::gemv(a.data(), rows, cols, x.data(),
                   shape.with_bias ? bias.data() : nullptr, out.data());
        for (std::size_t r = 0; r < rows; ++r) {
            const std::vector<float> row(a.begin() + r * cols,
                                         a.begin() + (r + 1) * cols);
            const auto sum = static_cast<float>(reference_dot(row, x));
            EXPECT_EQ(out[r], shape.with_bias ? bias[r] + sum : sum)
                << rows << "x" << cols << " row " << r;
        }
    }
}

/// Salts every fifth element from `offset` with the values a kernel could
/// mishandle: signed zeros, float denormals and magnitudes whose float
/// square overflows (finite in double).
void salt(std::vector<float>& v, std::size_t offset) {
    const float denorm = std::numeric_limits<float>::denorm_min();
    for (std::size_t i = offset; i < v.size(); i += 5) {
        switch ((i / 5) % 4) {
            case 0: v[i] = (i % 2 == 0) ? 0.0F : -0.0F; break;
            case 1: v[i] = denorm * static_cast<float>(i + 1); break;
            case 2: v[i] = (i % 2 == 0) ? 3e38F : -1e20F; break;
            default: break;
        }
    }
}

/// One x and four ys of width n.  Plain cases are normal draws, where any
/// reordered or fused accumulation shows in the last bits.  Salted cases
/// add the values a kernel could mishandle: signed zeros, float
/// denormals, magnitudes whose float square overflows (finite in double)
/// and one infinity in pair 3.  The large magnitudes swamp every rounding
/// difference, which is why the plain cases exist.
struct FourPairCase {
    std::vector<float> x;
    std::vector<std::vector<float>> ys;
};

FourPairCase four_pair_case(std::size_t n, Rng& rng, bool salted) {
    FourPairCase c{random_vector(n, rng), {}};
    for (int p = 0; p < 4; ++p) c.ys.push_back(random_vector(n, rng));
    if (!salted) return c;
    salt(c.x, 0);
    for (std::size_t p = 0; p < 4; ++p) salt(c.ys[p], p);
    if (n > 2) c.ys[3][n / 2] = std::numeric_limits<float>::infinity();
    return c;
}

/// Runs `kernel` on the case and returns its four outputs.
std::array<double, 4> run_x4(simd::SquaredDistanceX4 kernel,
                             const FourPairCase& c) {
    const float* const ys[4] = {c.ys[0].data(), c.ys[1].data(),
                                c.ys[2].data(), c.ys[3].data()};
    std::array<double, 4> out{};
    kernel(c.x.data(), ys, c.x.size(), out.data());
    return out;
}

/// Four single calls of the blocked kernel: the x4 contract.
std::array<double, 4> four_singles(const FourPairCase& c) {
    std::array<double, 4> out{};
    for (std::size_t p = 0; p < 4; ++p)
        out[p] = simd::squared_distance_blocked(c.x.data(), c.ys[p].data(),
                                                c.x.size());
    return out;
}

/// Bitwise equality of two four-pair results (memcmp: no -0 == +0).
void expect_same_bits(const std::array<double, 4>& got,
                      const std::array<double, 4>& want, std::size_t n,
                      const char* body) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(got)), 0)
        << body << " n=" << n << ": " << got[0] << " " << got[1] << " "
        << got[2] << " " << got[3] << " vs " << want[0] << " " << want[1]
        << " " << want[2] << " " << want[3];
}

/// NaN in x reaches every pair; NaN in one y reaches only that pair.
void expect_nan_propagation(simd::SquaredDistanceX4 kernel, std::size_t n,
                            const char* body) {
    Rng rng(24);
    const FourPairCase c = four_pair_case(n, rng, /*salted=*/false);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    FourPairCase in_y = c;
    in_y.ys[2][n - 1] = nan;
    const auto got_y = run_x4(kernel, in_y);
    const auto want_y = four_singles(in_y);
    for (std::size_t p = 0; p < 4; ++p) {
        if (p == 2) {
            EXPECT_TRUE(std::isnan(got_y[p])) << body << " n=" << n;
        } else {
            EXPECT_EQ(std::memcmp(&got_y[p], &want_y[p], sizeof(double)), 0)
                << body << " n=" << n << " pair " << p;
        }
    }
    FourPairCase in_x = c;
    in_x.x[0] = nan;
    for (const double v : run_x4(kernel, in_x))
        EXPECT_TRUE(std::isnan(v)) << body << " n=" << n;
}

TEST(ScalarTable, FourPairEntryBitIdenticalToFourSingleCalls) {
    const simd::SquaredDistanceX4 portable =
        simd::detail::portable_squared_distance_blocked_x4();
    Rng rng(23);
    for (const std::size_t n : kSizes) {
        for (const bool salted : {false, true}) {
            const FourPairCase c = four_pair_case(n, rng, salted);
            const auto want = four_singles(c);
            if (salted && n > 2) EXPECT_TRUE(std::isinf(want[3])) << n;
            expect_same_bits(run_x4(simd::squared_distance_blocked_x4, c),
                             want, n, "table entry");
            expect_same_bits(run_x4(portable, c), want, n, "portable");
        }
        expect_nan_propagation(simd::squared_distance_blocked_x4, n,
                               "table entry");
        expect_nan_propagation(portable, n, "portable");
    }
}

TEST(ScalarTable, LaneExactEncodingBitIdenticalToFourSingleCalls) {
    const simd::SquaredDistanceX4 lane_exact =
        simd::detail::lane_exact_squared_distance_blocked_x4();
    if (lane_exact == nullptr || !simd::cpu_supports_avx2())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    Rng rng(23);
    for (const std::size_t n : kSizes) {
        for (const bool salted : {false, true}) {
            const FourPairCase c = four_pair_case(n, rng, salted);
            expect_same_bits(run_x4(lane_exact, c), four_singles(c), n,
                             "lane-exact");
        }
        expect_nan_propagation(lane_exact, n, "lane-exact");
    }
}

// --- Batched forward / backward entries -------------------------------------

/// One batch for gemv_rows / outer_accumulate_rows: a rows x cols matrix
/// (the weights for the forward, the gradient for the backward), `count`
/// samples of cols features, a bias and count x rows backward
/// coefficients.  Salted cases add the four-pair salts -- signed zeros,
/// float denormals, magnitudes whose float square overflows and one
/// infinity -- to the matrix, the samples and the coefficients.
struct BatchCase {
    std::size_t rows;
    std::size_t cols;
    std::vector<float> a;
    std::vector<std::vector<float>> xs;
    std::vector<float> bias;
    std::vector<float> d;

    [[nodiscard]] std::vector<const float*> pointers() const {
        std::vector<const float*> out;
        for (const auto& x : xs) out.push_back(x.data());
        return out;
    }
};

BatchCase batch_case(std::size_t rows, std::size_t cols, std::size_t count,
                     Rng& rng, bool salted) {
    BatchCase c{rows, cols, random_vector(rows * cols, rng), {},
                random_vector(rows, rng), random_vector(count * rows, rng)};
    for (std::size_t s = 0; s < count; ++s)
        c.xs.push_back(random_vector(cols, rng));
    if (!salted) return c;
    salt(c.a, 0);
    salt(c.d, 1);
    for (std::size_t s = 0; s < count; ++s) salt(c.xs[s], s % 5);
    c.xs[count / 2][cols / 2] = std::numeric_limits<float>::infinity();
    return c;
}

/// Runs a batched forward body over the case.
std::vector<float> run_gemv_rows(simd::GemvRows kernel, const BatchCase& c,
                                 bool with_bias) {
    const auto xs = c.pointers();
    std::vector<float> out(xs.size() * c.rows);
    kernel(c.a.data(), c.rows, c.cols, xs.data(), xs.size(),
           with_bias ? c.bias.data() : nullptr, out.data());
    return out;
}

/// Per-sample gemv calls: the gemv_rows contract.
std::vector<float> per_sample_gemv(const BatchCase& c, bool with_bias) {
    std::vector<float> out(c.xs.size() * c.rows);
    for (std::size_t s = 0; s < c.xs.size(); ++s)
        simd::gemv(c.a.data(), c.rows, c.cols, c.xs[s].data(),
                   with_bias ? c.bias.data() : nullptr,
                   out.data() + s * c.rows);
    return out;
}

/// Runs a batched backward body over the case, accumulating into a copy
/// of the case's matrix.
std::vector<float> run_outer_rows(simd::OuterAccumulateRows kernel,
                                  const BatchCase& c) {
    const auto xs = c.pointers();
    std::vector<float> y = c.a;
    kernel(c.d.data(), xs.data(), xs.size(), c.rows, c.cols, y.data());
    return y;
}

/// Per-row portable axpy calls, samples in order: the
/// outer_accumulate_rows contract.
std::vector<float> sequential_outer(const BatchCase& c) {
    const simd::Axpy axpy = simd::detail::portable_axpy();
    std::vector<float> y = c.a;
    for (std::size_t s = 0; s < c.xs.size(); ++s)
        for (std::size_t r = 0; r < c.rows; ++r)
            axpy(c.d[s * c.rows + r], c.xs[s].data(), y.data() + r * c.cols,
                 c.cols);
    return y;
}

::testing::AssertionResult same_bits(const std::vector<float>& got,
                                     const std::vector<float>& want) {
    if (got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
        if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "first difference at " << i << ": " << got[i]
                   << " vs " << want[i];
    }
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
}

// 17 rows take the lane-exact forward past one 16-row chunk, 25 samples
// past one 16-sample group, and 785 columns past six 128-column blocks
// into a tail.
const std::size_t kBatchRows[] = {1, 2, 3, 4, 5, 10, 13, 17};
const std::size_t kBatchCols[] = {1, 3, 4, 5, 39, 783, 784, 785};
const std::size_t kBatchCounts[] = {1, 2, 9, 10, 12, 13, 25};

/// Every shape of the grid, plain and salted, with and without bias:
/// `forward` must equal per-sample gemv, and `backward` must equal
/// per-row portable axpy in sample order, bit for bit.  Then NaN in
/// one sample's features must reach only that sample's logits, and in the
/// backward only the gradient columns that sample feeds, with every other
/// value unchanged.
void expect_batch_contracts(simd::GemvRows forward,
                            simd::OuterAccumulateRows backward,
                            const char* body) {
    Rng rng(26);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const std::size_t rows : kBatchRows) {
        for (const std::size_t cols : kBatchCols) {
            for (const std::size_t count : kBatchCounts) {
                for (const bool salted : {false, true}) {
                    const BatchCase c =
                        batch_case(rows, cols, count, rng, salted);
                    for (const bool with_bias : {false, true}) {
                        EXPECT_TRUE(same_bits(
                            run_gemv_rows(forward, c, with_bias),
                            per_sample_gemv(c, with_bias)))
                            << body << " gemv_rows " << rows << "x" << cols
                            << " count=" << count << " salted=" << salted
                            << " bias=" << with_bias;
                    }
                    EXPECT_TRUE(same_bits(run_outer_rows(backward, c),
                                          sequential_outer(c)))
                        << body << " outer_accumulate_rows " << rows << "x"
                        << cols << " count=" << count
                        << " salted=" << salted;
                }
                // NaN in one sample, plain draws elsewhere: compare with
                // the same case before the NaN went in.
                BatchCase c = batch_case(rows, cols, count, rng, false);
                const auto clean = run_gemv_rows(forward, c, true);
                const auto clean_y = sequential_outer(c);
                const std::size_t bad = count / 2;
                const std::size_t col = cols - 1;
                c.xs[bad][col] = nan;
                const auto got = run_gemv_rows(forward, c, true);
                for (std::size_t s = 0; s < count; ++s) {
                    for (std::size_t r = 0; r < rows; ++r) {
                        const std::size_t i = s * rows + r;
                        if (s == bad) {
                            EXPECT_TRUE(std::isnan(got[i]))
                                << body << " gemv_rows NaN sample " << rows
                                << "x" << cols << " count=" << count;
                        } else {
                            EXPECT_EQ(std::memcmp(&got[i], &clean[i],
                                                  sizeof(float)),
                                      0)
                                << body << " gemv_rows clean sample " << s;
                        }
                    }
                }
                const auto y = run_outer_rows(backward, c);
                for (std::size_t r = 0; r < rows; ++r) {
                    for (std::size_t j = 0; j < cols; ++j) {
                        const std::size_t i = r * cols + j;
                        if (j == col) {
                            EXPECT_TRUE(std::isnan(y[i]))
                                << body << " outer_accumulate_rows NaN "
                                << rows << "x" << cols << " count=" << count;
                        } else {
                            EXPECT_EQ(std::memcmp(&y[i], &clean_y[i],
                                                  sizeof(float)),
                                      0)
                                << body << " outer_accumulate_rows clean "
                                << "column " << j;
                        }
                    }
                }
            }
        }
    }
}

TEST(ScalarTable, BatchEntriesBitIdenticalToPerSampleCalls) {
    expect_batch_contracts(simd::gemv_rows, simd::outer_accumulate_rows,
                           "table entry");
    expect_batch_contracts(simd::detail::portable_gemv_rows(),
                           simd::detail::portable_outer_accumulate_rows(),
                           "portable");
}

TEST(ScalarTable, LaneExactBatchEncodingsBitIdenticalToPerSampleCalls) {
    const simd::GemvRows forward = simd::detail::lane_exact_gemv_rows();
    const simd::OuterAccumulateRows backward =
        simd::detail::lane_exact_outer_accumulate_rows();
    if (forward == nullptr || backward == nullptr ||
        !simd::cpu_supports_avx2())
        GTEST_SKIP() << "lane-exact AVX encodings unavailable on this "
                        "build/CPU";
    expect_batch_contracts(forward, backward, "lane-exact");
}

// --- axpy -------------------------------------------------------------------

/// Runs an axpy body on a copy of y.
std::vector<float> run_axpy(simd::Axpy kernel, float alpha,
                            const std::vector<float>& x,
                            std::vector<float> y) {
    kernel(alpha, x.data(), y.data(), x.size());
    return y;
}

/// y[i] + alpha * x[i] per element, one float multiply then one float
/// add: the axpy contract.
std::vector<float> reference_axpy(float alpha, const std::vector<float>& x,
                                  std::vector<float> y) {
    for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
    return y;
}

/// Every size, plain and salted (the four-pair salts plus one infinity in
/// x), at alphas that reach signed zeros, denormal products and overflow:
/// `kernel` must equal the reference loop bit for bit.  Then a NaN in x
/// must reach only its own element.
void expect_axpy_contract(simd::Axpy kernel, const char* body) {
    Rng rng(27);
    const float denorm = std::numeric_limits<float>::denorm_min();
    for (const std::size_t n : kSizes) {
        for (const bool salted : {false, true}) {
            auto x = random_vector(n, rng);
            auto y = random_vector(n, rng);
            if (salted) {
                salt(x, 0);
                salt(y, 2);
                x[n / 2] = std::numeric_limits<float>::infinity();
            }
            for (const float alpha : {0.37F, -1.7F, -0.0F, denorm, 3e38F})
                EXPECT_TRUE(same_bits(run_axpy(kernel, alpha, x, y),
                                      reference_axpy(alpha, x, y)))
                    << body << " n=" << n << " salted=" << salted
                    << " alpha=" << alpha;
        }
        auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        const auto clean = reference_axpy(0.37F, x, y);
        x[n - 1] = std::numeric_limits<float>::quiet_NaN();
        const auto got = run_axpy(kernel, 0.37F, x, y);
        EXPECT_TRUE(std::isnan(got[n - 1])) << body << " n=" << n;
        EXPECT_EQ(std::memcmp(got.data(), clean.data(),
                              (n - 1) * sizeof(float)),
                  0)
            << body << " n=" << n;
    }
}

TEST(ScalarTable, AxpyEntryBitIdenticalToReferenceLoop) {
    expect_axpy_contract(simd::axpy, "table entry");
    expect_axpy_contract(simd::detail::portable_axpy(), "portable");
}

TEST(ScalarTable, LaneExactAxpyBitIdenticalToReferenceLoop) {
    const simd::Axpy lane_exact = simd::detail::lane_exact_axpy();
    if (lane_exact == nullptr || !simd::cpu_supports_avx2())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    expect_axpy_contract(lane_exact, "lane-exact");
}

}  // namespace
