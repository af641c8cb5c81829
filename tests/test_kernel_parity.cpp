// Parity harness for the pinned kernels (support/simd.hpp).
//
// Every kernel is *bit-pinned*: its loops must match the strict reference
// accumulation orders that produced every committed fixed-seed series, so
// the first test re-states those loops locally and demands exact
// equality.  The 3x4 tile entry must equal twelve single calls, the batched
// gemv_rows entry must equal per-sample gemv calls, the one-sweep backward
// outer_rows_l2 must equal its portable body (a zero fill, per-row axpy
// calls in sample order, the L2 axpy and a dot), the theta rows must equal
// per-row dot_and_norm calls, and axpy must equal the one-multiply-one-add
// loop, bit for bit -- including the lane-exact AVX2 + FMA encodings that
// serve those five kernels on capable CPUs, over salted inputs (signed
// zeros, denormals, overflowing magnitudes, infinities and NaNs).  A guard
// fails when such a CPU runs a GCC/Clang x86-64 build whose lane-exact
// accessors are null, so a dropped ISA flag cannot pass as a skip.

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
/// then the tail added in order -- the pinned reference for
/// squared_distance_blocked.
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

/// How a tile case draws its values.
///  * kPlain: normal draws, where any reordered accumulation -- a changed
///    combine, a chain split differently -- shows in the last bits.  Their
///    differences are mostly short enough for the squares to be exact, so
///    a fused multiply-add mostly rounds the same.
///  * kSpread: the columns at a 2^-13 scale, so nearly every difference
///    carries 37 or more significant bits and its square rounds.  One
///    rounding (FMA) instead of two then shows wherever it flips a running
///    sum's last bit, which gets rarer as the sum grows, so each width
///    takes kSpreadDraws of them.
///  * kSalted: the values a kernel could mishandle -- signed zeros, float
///    denormals, magnitudes whose float square overflows (finite in
///    double), one infinity in row 1 and one in column 3.  The large
///    magnitudes swamp every rounding difference, which is why the other
///    draws exist.
enum class Draw { kPlain, kSpread, kSalted };

/// Spread cases per width: enough that an FMA in any one of the twelve
/// pairs fails the pin.
constexpr int kSpreadDraws = 8;

/// Three rows and four columns of width n.
struct TileCase {
    std::vector<std::vector<float>> xs;
    std::vector<std::vector<float>> ys;
};

TileCase tile_case(std::size_t n, Rng& rng, Draw draw) {
    TileCase c;
    for (std::size_t r = 0; r < 3; ++r) c.xs.push_back(random_vector(n, rng));
    for (std::size_t col = 0; col < 4; ++col)
        c.ys.push_back(random_vector(n, rng));
    if (draw == Draw::kSpread) {
        for (auto& y : c.ys)
            for (float& v : y) v = std::ldexp(v, -13);
    }
    if (draw != Draw::kSalted) return c;
    for (std::size_t r = 0; r < 3; ++r) salt(c.xs[r], r);
    for (std::size_t col = 0; col < 4; ++col) salt(c.ys[col], col + 1);
    if (n > 2) {
        const float inf = std::numeric_limits<float>::infinity();
        c.xs[1][n - 1] = inf;
        c.ys[3][n / 2] = inf;
    }
    return c;
}

/// Runs `kernel` on the case and returns its twelve outputs, row-major.
std::array<double, 12> run_tile(simd::SquaredDistance3x4 kernel,
                                const TileCase& c) {
    const float* const xs[3] = {c.xs[0].data(), c.xs[1].data(),
                                c.xs[2].data()};
    const float* const ys[4] = {c.ys[0].data(), c.ys[1].data(),
                                c.ys[2].data(), c.ys[3].data()};
    std::array<double, 12> out{};
    kernel(xs, ys, c.xs[0].size(), out.data());
    return out;
}

/// Twelve single calls of the blocked kernel: the 3x4 contract.
std::array<double, 12> twelve_singles(const TileCase& c) {
    std::array<double, 12> out{};
    for (std::size_t k = 0; k < 12; ++k)
        out[k] = simd::squared_distance_blocked(
            c.xs[k / 4].data(), c.ys[k % 4].data(), c.xs[0].size());
    return out;
}

/// Bitwise equality of two tiles (memcmp: no -0 == +0, and NaN bits
/// count).
void expect_same_bits(const std::array<double, 12>& got,
                      const std::array<double, 12>& want, std::size_t n,
                      const char* body) {
    for (std::size_t k = 0; k < 12; ++k)
        EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
            << body << " n=" << n << " pair (" << k / 4 << "," << k % 4
            << "): " << got[k] << " vs " << want[k];
}

/// NaN in row r reaches only that row's four entries, NaN in column c only
/// that column's three; every other entry keeps the clean case's bits.
/// The NaN sits at the start, the middle and the end of the rows, and at
/// the end, two thirds and one third of the columns, so it lands in the
/// blocked part and in the tail.
void expect_nan_propagation(simd::SquaredDistance3x4 kernel, std::size_t n,
                            const char* body) {
    Rng rng(24);
    const TileCase clean = tile_case(n, rng, Draw::kPlain);
    const auto want = twelve_singles(clean);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t r = 0; r < 3; ++r) {
        TileCase c = clean;
        c.xs[r][r * (n - 1) / 2] = nan;
        const auto got = run_tile(kernel, c);
        for (std::size_t k = 0; k < 12; ++k) {
            if (k / 4 == r) {
                EXPECT_TRUE(std::isnan(got[k]))
                    << body << " n=" << n << " NaN row " << r;
            } else {
                EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
                    << body << " n=" << n << " NaN row " << r << " pair ("
                    << k / 4 << "," << k % 4 << ")";
            }
        }
    }
    for (std::size_t col = 0; col < 4; ++col) {
        TileCase c = clean;
        c.ys[col][(n - 1) - col * (n - 1) / 3] = nan;
        const auto got = run_tile(kernel, c);
        for (std::size_t k = 0; k < 12; ++k) {
            if (k % 4 == col) {
                EXPECT_TRUE(std::isnan(got[k]))
                    << body << " n=" << n << " NaN column " << col;
            } else {
                EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
                    << body << " n=" << n << " NaN column " << col
                    << " pair (" << k / 4 << "," << k % 4 << ")";
            }
        }
    }
}

/// Every kSizes width, in every draw, bitwise against twelve single
/// calls; then the NaN reach.
void expect_tile_contract(simd::SquaredDistance3x4 kernel,
                          const char* body) {
    Rng rng(23);
    for (const std::size_t n : kSizes) {
        std::vector<Draw> draws(kSpreadDraws, Draw::kSpread);
        draws.insert(draws.begin(), Draw::kPlain);
        draws.push_back(Draw::kSalted);
        for (const Draw draw : draws) {
            SCOPED_TRACE(::testing::Message()
                         << "draw " << static_cast<int>(draw));
            const TileCase c = tile_case(n, rng, draw);
            const auto want = twelve_singles(c);
            if (draw == Draw::kSalted && n > 2) {
                for (std::size_t k = 0; k < 12; ++k)
                    if (k / 4 == 1 || k % 4 == 3)
                        EXPECT_TRUE(std::isinf(want[k])) << n << " " << k;
            }
            expect_same_bits(run_tile(kernel, c), want, n, body);
        }
        expect_nan_propagation(kernel, n, body);
    }
}

TEST(ScalarTable, TileEntryBitIdenticalToTwelveSingleCalls) {
    expect_tile_contract(simd::squared_distance_blocked_3x4, "table entry");
    expect_tile_contract(simd::detail::portable_squared_distance_blocked_3x4(),
                         "portable");
}

TEST(ScalarTable, LaneExactTileBitIdenticalToTwelveSingleCalls) {
    const simd::SquaredDistance3x4 lane_exact =
        simd::detail::lane_exact_squared_distance_blocked_3x4();
    if (lane_exact == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    expect_tile_contract(lane_exact, "lane-exact");
}

// --- Batched forward / backward entries -------------------------------------

/// One batch for gemv_rows / outer_rows_l2: a rows x cols matrix (the
/// weights of the forward and of the backward's L2 term), `count` samples
/// of cols features, a bias and count x rows backward coefficients.
/// Salted cases add the tile cases' salts -- signed zeros, float
/// denormals, magnitudes whose float square overflows and one infinity --
/// to the matrix, the samples and the coefficients.
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
/// `forward` must equal per-sample gemv bit for bit.  Then NaN in one
/// sample's features must reach only that sample's logits, with every
/// other value unchanged.
void expect_forward_contract(simd::GemvRows forward, const char* body) {
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
                }
                // NaN in one sample, plain draws elsewhere: compare with
                // the same case before the NaN went in.
                BatchCase c = batch_case(rows, cols, count, rng, false);
                const auto clean = run_gemv_rows(forward, c, true);
                const std::size_t bad = count / 2;
                c.xs[bad][cols - 1] = nan;
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
            }
        }
    }
}

TEST(ScalarTable, GemvRowsEntryBitIdenticalToPerSampleGemv) {
    expect_forward_contract(simd::gemv_rows, "table entry");
    expect_forward_contract(simd::detail::portable_gemv_rows(), "portable");
}

TEST(ScalarTable, LaneExactGemvRowsBitIdenticalToPerSampleGemv) {
    const simd::GemvRows forward = simd::detail::lane_exact_gemv_rows();
    if (forward == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    expect_forward_contract(forward, "lane-exact");
}

/// One backward body's output: the written gradient, rows x cols, and the
/// weights' squared norm when asked for (else the sentinel it started at).
struct Backward {
    std::vector<float> g;
    double w_norm2;
};

/// The sentinel a norm slot holds when no norm was asked for.
constexpr double kNoNorm = -1.0;

/// Runs a backward body over the case, into a gradient pre-filled with
/// NaN: the body must write every element.
Backward run_backward(simd::OuterRowsL2 kernel, const BatchCase& c, float l2,
                      bool want_norm) {
    const auto xs = c.pointers();
    Backward out{std::vector<float>(c.rows * c.cols,
                                    std::numeric_limits<float>::quiet_NaN()),
                 kNoNorm};
    kernel(c.d.data(), xs.data(), xs.size(), c.rows, c.cols, l2, c.a.data(),
           out.g.data(), want_norm ? &out.w_norm2 : nullptr);
    return out;
}

/// The portable body restated: every element +0.0f, per-row portable axpy
/// calls with samples in order, the L2 axpy over the whole matrix, then
/// the strict dot(w, w).
Backward reference_backward(const BatchCase& c, float l2, bool want_norm) {
    const simd::Axpy axpy = simd::detail::portable_axpy();
    const std::size_t n = c.rows * c.cols;
    Backward out{std::vector<float>(n, 0.0F), kNoNorm};
    for (std::size_t s = 0; s < c.xs.size(); ++s)
        for (std::size_t r = 0; r < c.rows; ++r)
            axpy(c.d[s * c.rows + r], c.xs[s].data(),
                 out.g.data() + r * c.cols, c.cols);
    axpy(l2, c.a.data(), out.g.data(), n);
    if (want_norm) out.w_norm2 = simd::dot(c.a.data(), c.a.data(), n);
    return out;
}

::testing::AssertionResult same_backward(const Backward& got,
                                         const Backward& want) {
    const auto g = same_bits(got.g, want.g);
    if (!g) return g;
    if (std::memcmp(&got.w_norm2, &want.w_norm2, sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "norm " << got.w_norm2 << " vs " << want.w_norm2;
    return ::testing::AssertionSuccess();
}

// Counts reach one sample, a partial and a full mini-batch, 16 and 17
// samples; widths reach a lone tail column, a short span, one 8-float
// span, one short of, exactly and one past a 32-float block, and the
// logistic model's 784 features.  Ten rows are its ten classes.
const std::size_t kBackwardRows[] = {1, 3, 10};
const std::size_t kBackwardCols[] = {1, 7, 8, 31, 32, 33, 784};
const std::size_t kBackwardCounts[] = {1, 2, 5, 10, 16, 17};
const float kBackwardL2[] = {0.0F, 1e-4F};

/// The batch cases' salts plus the backward's extremes: -3e38 and -inf in
/// the weights, +inf in the first row's last weight, and +-inf and -3e38
/// among the coefficients.
void salt_backward(BatchCase& c) {
    const float inf = std::numeric_limits<float>::infinity();
    c.a[c.a.size() / 3] = -3e38F;
    c.a[c.a.size() / 2] = -inf;
    c.a[c.cols - 1] = inf;
    c.d[0] = -inf;
    c.d[c.d.size() - 1] = inf;
    c.d[c.d.size() / 2] = -3e38F;
}

/// Where a backward NaN case puts its NaN.
enum class Site { kFeature, kWeight, kCoefficient };

/// Every shape of the backward grid, plain and salted, at both L2
/// coefficients, with and without the norm: `kernel` must equal the
/// restated portable body bit for bit.  Then a NaN must reach only what it
/// feeds: in one sample's feature, that column of every row; in one
/// weight, that element and the norm; in one coefficient, that row.
void expect_backward_contract(simd::OuterRowsL2 kernel, const char* body) {
    Rng rng(29);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const std::size_t rows : kBackwardRows) {
        for (const std::size_t cols : kBackwardCols) {
            for (const std::size_t count : kBackwardCounts) {
                for (const bool salted : {false, true}) {
                    BatchCase c = batch_case(rows, cols, count, rng, salted);
                    if (salted) salt_backward(c);
                    for (const float l2 : kBackwardL2) {
                        for (const bool want_norm : {false, true}) {
                            EXPECT_TRUE(same_backward(
                                run_backward(kernel, c, l2, want_norm),
                                reference_backward(c, l2, want_norm)))
                                << body << " outer_rows_l2 " << rows << "x"
                                << cols << " count=" << count
                                << " salted=" << salted << " l2=" << l2
                                << " norm=" << want_norm;
                        }
                    }
                }
                const BatchCase clean_case =
                    batch_case(rows, cols, count, rng, false);
                const Backward clean =
                    reference_backward(clean_case, 1e-4F, true);
                const std::size_t bad_row = rows / 2;
                const std::size_t bad_col = cols / 2;
                for (const Site site :
                     {Site::kFeature, Site::kWeight, Site::kCoefficient}) {
                    BatchCase c = clean_case;
                    if (site == Site::kFeature)
                        c.xs[count / 2][bad_col] = nan;
                    if (site == Site::kWeight)
                        c.a[bad_row * cols + bad_col] = nan;
                    if (site == Site::kCoefficient)
                        c.d[(count - 1) * rows + bad_row] = nan;
                    const Backward got = run_backward(kernel, c, 1e-4F, true);
                    for (std::size_t r = 0; r < rows; ++r) {
                        for (std::size_t j = 0; j < cols; ++j) {
                            const std::size_t i = r * cols + j;
                            const bool fed =
                                (site == Site::kFeature && j == bad_col) ||
                                (site == Site::kWeight && r == bad_row &&
                                 j == bad_col) ||
                                (site == Site::kCoefficient && r == bad_row);
                            if (fed) {
                                EXPECT_TRUE(std::isnan(got.g[i]))
                                    << body << " NaN site "
                                    << static_cast<int>(site) << " " << rows
                                    << "x" << cols << " count=" << count;
                            } else {
                                EXPECT_EQ(std::memcmp(&got.g[i], &clean.g[i],
                                                      sizeof(float)),
                                          0)
                                    << body << " clean element " << i
                                    << " NaN site " << static_cast<int>(site)
                                    << " " << rows << "x" << cols
                                    << " count=" << count;
                            }
                        }
                    }
                    if (site == Site::kWeight) {
                        EXPECT_TRUE(std::isnan(got.w_norm2)) << body;
                    } else {
                        EXPECT_EQ(std::memcmp(&got.w_norm2, &clean.w_norm2,
                                              sizeof(double)),
                                  0)
                            << body << " norm, NaN site "
                            << static_cast<int>(site);
                    }
                }
            }
        }
    }
}

/// A row whose every product is -0.0f (coefficients -0, features
/// positive) and whose weights are -0.0f, so its L2 products are -0.0f as
/// well: only the +0.0f start the portable fill gives makes its sum +0.0f.
/// A body that started from the first product would store -0.0f there.
void expect_positive_zero_start(simd::OuterRowsL2 kernel, const char* body) {
    Rng rng(30);
    const std::size_t rows = 3;
    const std::size_t zero_row = 1;
    for (const std::size_t cols : kBackwardCols) {
        BatchCase c = batch_case(rows, cols, 5, rng, false);
        for (auto& x : c.xs)
            for (float& v : x) v = 1.0F + std::fabs(v);
        for (std::size_t s = 0; s < c.xs.size(); ++s)
            c.d[s * rows + zero_row] = -0.0F;
        for (std::size_t j = 0; j < cols; ++j)
            c.a[zero_row * cols + j] = -0.0F;
        for (const float l2 : kBackwardL2) {
            const Backward got = run_backward(kernel, c, l2, true);
            EXPECT_TRUE(same_backward(got, reference_backward(c, l2, true)))
                << body << " cols=" << cols << " l2=" << l2;
            const float positive_zero = 0.0F;
            for (std::size_t j = 0; j < cols; ++j)
                EXPECT_EQ(std::memcmp(&got.g[zero_row * cols + j],
                                      &positive_zero, sizeof(float)),
                          0)
                    << body << " cols=" << cols << " l2=" << l2 << " j=" << j
                    << ": " << got.g[zero_row * cols + j];
        }
    }
}

TEST(ScalarTable, OuterRowsL2EntryBitIdenticalToPortableBody) {
    expect_backward_contract(simd::outer_rows_l2, "table entry");
    expect_backward_contract(simd::detail::portable_outer_rows_l2(),
                             "portable");
    expect_positive_zero_start(simd::outer_rows_l2, "table entry");
    expect_positive_zero_start(simd::detail::portable_outer_rows_l2(),
                               "portable");
}

TEST(ScalarTable, LaneExactOuterRowsL2BitIdenticalToPortableBody) {
    const simd::OuterRowsL2 backward = simd::detail::lane_exact_outer_rows_l2();
    if (backward == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    expect_backward_contract(backward, "lane-exact");
    expect_positive_zero_start(backward, "lane-exact");
}

// --- Theta rows -------------------------------------------------------------

/// Counts reach one short group of eight rows, exactly one group, one row
/// past it, two groups and one, and the cluster_heavy pass's 193 rows;
/// widths reach the empty row, every column-tail length and the model's
/// 7850 weights.
const std::size_t kThetaCounts[] = {1, 7, 8, 9, 17, 193};
const std::size_t kThetaWidths[] = {0, 1, 3, 4, 5, 783, 7850};

/// `count` rows and one query of width n.  Salted cases add the tile
/// cases' salts (signed zeros, float denormals, magnitudes whose float
/// square overflows) and +-1e38 to every row and the query, +inf to the
/// middle row and -inf to the last one.
struct ThetaCase {
    std::vector<std::vector<float>> xs;
    std::vector<float> y;

    [[nodiscard]] std::vector<const float*> pointers() const {
        std::vector<const float*> out;
        for (const auto& x : xs) out.push_back(x.data());
        return out;
    }
};

ThetaCase theta_case(std::size_t count, std::size_t n, Rng& rng,
                     bool salted) {
    ThetaCase c;
    for (std::size_t r = 0; r < count; ++r)
        c.xs.push_back(random_vector(n, rng));
    c.y = random_vector(n, rng);
    if (!salted) return c;
    const auto add_salts = [](std::vector<float>& v, std::size_t offset) {
        salt(v, offset);
        for (std::size_t i = offset + 3; i < v.size(); i += 7)
            v[i] = (i % 2 == 0) ? 1e38F : -1e38F;
    };
    for (std::size_t r = 0; r < count; ++r) add_salts(c.xs[r], r % 5);
    add_salts(c.y, 2);
    if (n > 0) {
        const float inf = std::numeric_limits<float>::infinity();
        c.xs[count / 2][n / 2] = inf;
        c.xs[count - 1][n - 1] = -inf;
    }
    return c;
}

/// One body's (dot, norm2) per row, concatenated: dots then norms.
std::vector<double> run_theta(simd::DotAndNormRows kernel,
                              const ThetaCase& c) {
    const auto xs = c.pointers();
    std::vector<double> out(2 * xs.size());
    kernel(xs.data(), xs.size(), c.y.data(), c.y.size(), out.data(),
           out.data() + xs.size());
    return out;
}

/// Per-row dot_and_norm calls: the dot_and_norm_rows contract.
std::vector<double> per_row_dot_and_norm(const ThetaCase& c) {
    const std::size_t count = c.xs.size();
    std::vector<double> out(2 * count);
    for (std::size_t r = 0; r < count; ++r)
        simd::dot_and_norm(c.xs[r].data(), c.y.data(), c.y.size(),
                           out.data() + r, out.data() + count + r);
    return out;
}

/// Every count and width, plain and salted: `kernel` must equal per-row
/// dot_and_norm bit for bit.  Then a NaN in one row (one lane of its
/// group) must reach only that row's dot and norm, with every other row's
/// bits unchanged.
void expect_theta_contract(simd::DotAndNormRows kernel, const char* body) {
    Rng rng(28);
    for (const std::size_t count : kThetaCounts) {
        for (const std::size_t n : kThetaWidths) {
            for (const bool salted : {false, true}) {
                const ThetaCase c = theta_case(count, n, rng, salted);
                const auto got = run_theta(kernel, c);
                const auto want = per_row_dot_and_norm(c);
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      got.size() * sizeof(double)),
                          0)
                    << body << " count=" << count << " n=" << n
                    << " salted=" << salted;
            }
            if (n == 0) continue;
            ThetaCase c = theta_case(count, n, rng, false);
            const auto clean = per_row_dot_and_norm(c);
            const std::size_t bad = (count - 1) / 2;
            c.xs[bad][n / 3] = std::numeric_limits<float>::quiet_NaN();
            const auto got = run_theta(kernel, c);
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (i % count == bad) {
                    EXPECT_TRUE(std::isnan(got[i]))
                        << body << " NaN row, count=" << count << " n=" << n;
                } else {
                    EXPECT_EQ(std::memcmp(&got[i], &clean[i], sizeof(double)),
                              0)
                        << body << " clean row " << i % count
                        << ", count=" << count << " n=" << n;
                }
            }
        }
    }
}

TEST(ScalarTable, ThetaRowsEntryBitIdenticalToPerRowDotAndNorm) {
    expect_theta_contract(simd::dot_and_norm_rows, "table entry");
    expect_theta_contract(simd::detail::portable_dot_and_norm_rows(),
                          "portable");
}

TEST(ScalarTable, LaneExactThetaRowsBitIdenticalToPerRowDotAndNorm) {
    const simd::DotAndNormRows lane_exact =
        simd::detail::lane_exact_dot_and_norm_rows();
    if (lane_exact == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    expect_theta_contract(lane_exact, "lane-exact");
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

/// Every size, plain and salted (the tile cases' salts plus one infinity in
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
    if (lane_exact == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    expect_axpy_contract(lane_exact, "lane-exact");
}

TEST(ScalarTable, LaneExactEncodingsBuiltWhereCpuReportsAvx2Fma) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (!simd::cpu_supports_avx2_fma()) GTEST_SKIP() << "CPU lacks AVX2/FMA";
    // A null accessor here means the -mavx2 -mfma flags were dropped from
    // simd_avx2.cpp: every lane-exact case above would only skip, while
    // Procedure I, Algorithm 2 and the sketch ran the portable loops.
    EXPECT_NE(simd::detail::lane_exact_axpy(), nullptr);
    EXPECT_NE(simd::detail::lane_exact_squared_distance_blocked_3x4(),
              nullptr);
    EXPECT_NE(simd::detail::lane_exact_gemv_rows(), nullptr);
    EXPECT_NE(simd::detail::lane_exact_outer_rows_l2(), nullptr);
    EXPECT_NE(simd::detail::lane_exact_dot_and_norm_rows(), nullptr);
#else
    GTEST_SKIP() << "not an x86-64 GCC/Clang build";
#endif
}

}  // namespace
