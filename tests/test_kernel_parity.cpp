// Kernel-dispatch parity harness (support/simd.hpp).
//
// The scalar table is *bit-pinned*: its loops must match the strict
// reference accumulation orders that produced every committed fixed-seed
// series, so the first test re-states those loops locally and demands
// exact equality.  Its four-pair entry, including the lane-exact AVX
// encoding that serves it on capable CPUs, must equal four single calls
// bit for bit.  The AVX2+FMA table is *tolerance-pinned*: FMA skips
// intermediate roundings and the wide accumulators reassociate the chain,
// so the harness bounds its element-wise divergence from scalar instead
// -- with the analytic error model (double accumulation over float
// products) setting the bound, not a hand-tuned epsilon.  End-to-end, a
// Table-2 attack scenario must produce detection within 2% of the scalar
// run when the simd table serves every kernel.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace {

namespace simd = fairbfl::support::simd;
using fairbfl::support::Rng;

/// Restores the pinned scalar table on scope exit: dispatch is process
/// state, and every other test in the suite assumes the scalar default.
struct ScopedKernelMode {
    explicit ScopedKernelMode(simd::Mode mode) { simd::set_mode(mode); }
    ~ScopedKernelMode() { simd::set_mode(simd::Mode::kScalar); }
};

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

/// Analytic divergence bound for a reassociated double-accumulator
/// reduction over float products: a few n * eps_double of the magnitude
/// sum, padded well clear of the constant factors.
double reduction_tolerance(double magnitude_sum, std::size_t n) {
    return 1e-13 * magnitude_sum * static_cast<double>(n + 16) + 1e-14;
}

const std::size_t kSizes[] = {1, 2, 3, 7, 8, 15, 16, 17, 64, 100, 1000};

TEST(ScalarTable, MatchesPinnedReferenceLoopsBitForBit) {
    const simd::KernelTable& table = simd::detail::scalar_table();
    EXPECT_STREQ(table.name, "scalar");
    Rng rng(21);
    for (const std::size_t n : kSizes) {
        const auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        EXPECT_EQ(table.dot(x.data(), y.data(), n), reference_dot(x, y));
        EXPECT_EQ(table.squared_distance(x.data(), y.data(), n),
                  reference_squared_distance(x, y));
        EXPECT_EQ(table.dot_blocked(x.data(), y.data(), n),
                  reference_dot_blocked(x, y));
        EXPECT_EQ(table.squared_distance_blocked(x.data(), y.data(), n),
                  reference_squared_distance_blocked(x, y));
        // axpy is elementwise: any unroll must stay bit-identical.
        std::vector<float> got = y;
        table.axpy(0.37F, x.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(got[i], y[i] + 0.37F * x[i]);
        // The fused kernel must equal two separate strict chains.
        double d = 0.0;
        double norm2 = 0.0;
        table.dot_and_norm(x.data(), y.data(), n, &d, &norm2);
        EXPECT_EQ(d, reference_dot(x, y));
        EXPECT_EQ(norm2, reference_dot(x, x));
    }
    // Every gemv row is contractually bit-identical to a lone dot.
    const std::size_t rows = 7;
    const std::size_t cols = 33;
    const auto a = random_vector(rows * cols, rng);
    const auto x = random_vector(cols, rng);
    std::vector<float> out(rows);
    table.gemv(a.data(), rows, cols, x.data(), nullptr, out.data());
    for (std::size_t r = 0; r < rows; ++r) {
        const std::vector<float> row(a.begin() + r * cols,
                                     a.begin() + (r + 1) * cols);
        EXPECT_EQ(out[r], static_cast<float>(reference_dot(row, x))) << r;
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
    const float denorm = std::numeric_limits<float>::denorm_min();
    auto salt = [&](std::vector<float>& v, std::size_t offset) {
        for (std::size_t i = offset; i < n; i += 5) {
            switch ((i / 5) % 4) {
                case 0: v[i] = (i % 2 == 0) ? 0.0F : -0.0F; break;
                case 1: v[i] = denorm * static_cast<float>(i + 1); break;
                case 2: v[i] = (i % 2 == 0) ? 3e38F : -1e20F; break;
                default: break;
            }
        }
    };
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

/// Four single calls of `table`'s blocked kernel: the x4 contract.
std::array<double, 4> four_singles(const simd::KernelTable& table,
                                   const FourPairCase& c) {
    std::array<double, 4> out{};
    for (std::size_t p = 0; p < 4; ++p)
        out[p] = table.squared_distance_blocked(c.x.data(), c.ys[p].data(),
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
    const auto want_y = four_singles(simd::detail::scalar_table(), in_y);
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
    const simd::KernelTable& table = simd::detail::scalar_table();
    const simd::SquaredDistanceX4 portable =
        simd::detail::portable_squared_distance_blocked_x4();
    Rng rng(23);
    for (const std::size_t n : kSizes) {
        for (const bool salted : {false, true}) {
            const FourPairCase c = four_pair_case(n, rng, salted);
            const auto want = four_singles(table, c);
            if (salted && n > 2) EXPECT_TRUE(std::isinf(want[3])) << n;
            expect_same_bits(run_x4(table.squared_distance_blocked_x4, c),
                             want, n, "table entry");
            expect_same_bits(run_x4(portable, c), want, n, "portable");
        }
        expect_nan_propagation(table.squared_distance_blocked_x4, n,
                               "table entry");
        expect_nan_propagation(portable, n, "portable");
    }
}

TEST(ScalarTable, LaneExactEncodingBitIdenticalToFourSingleCalls) {
    const simd::SquaredDistanceX4 lane_exact =
        simd::detail::lane_exact_squared_distance_blocked_x4();
    if (lane_exact == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "lane-exact AVX encoding unavailable on this "
                        "build/CPU";
    const simd::KernelTable& table = simd::detail::scalar_table();
    Rng rng(23);
    for (const std::size_t n : kSizes) {
        for (const bool salted : {false, true}) {
            const FourPairCase c = four_pair_case(n, rng, salted);
            expect_same_bits(run_x4(lane_exact, c), four_singles(table, c),
                             n, "lane-exact");
        }
        expect_nan_propagation(lane_exact, n, "lane-exact");
    }
}

TEST(KernelParity, Avx2FourPairEntryIsFourOfItsOwnCalls) {
    const simd::KernelTable* avx2 = simd::detail::avx2_table();
    if (avx2 == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/CPU";
    Rng rng(25);
    for (const std::size_t n : kSizes) {
        for (const bool salted : {false, true}) {
            const FourPairCase c = four_pair_case(n, rng, salted);
            expect_same_bits(run_x4(avx2->squared_distance_blocked_x4, c),
                             four_singles(*avx2, c), n, "avx2");
        }
    }
}

TEST(Dispatch, ScalarIsTheDefaultAndUnknownNamesAreRejected) {
    simd::set_mode(simd::Mode::kScalar);
    EXPECT_STREQ(simd::active_name(), "scalar");
    EXPECT_FALSE(simd::set_mode_name("avx512"));
    EXPECT_FALSE(simd::set_mode_name(nullptr));
    EXPECT_STREQ(simd::active_name(), "scalar");  // unchanged on rejection
    EXPECT_TRUE(simd::set_mode_name("auto"));
    if (!simd::cpu_supports_avx2_fma() ||
        simd::detail::avx2_table() == nullptr) {
        EXPECT_STREQ(simd::active_name(), "scalar");  // graceful fallback
    }
    simd::set_mode(simd::Mode::kScalar);
}

TEST(KernelParity, Avx2WithinAnalyticToleranceOfScalar) {
    const simd::KernelTable* avx2 = simd::detail::avx2_table();
    if (avx2 == nullptr || !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/CPU";
    const simd::KernelTable& scalar = simd::detail::scalar_table();
    Rng rng(22);
    for (const std::size_t n : kSizes) {
        const auto x = random_vector(n, rng);
        const auto y = random_vector(n, rng);
        std::vector<float> ax(n);
        std::vector<float> ay(n);
        for (std::size_t i = 0; i < n; ++i) {
            ax[i] = std::fabs(x[i]);
            ay[i] = std::fabs(y[i]);
        }
        const double dot_scale = scalar.dot(ax.data(), ay.data(), n);
        EXPECT_NEAR(avx2->dot(x.data(), y.data(), n),
                    scalar.dot(x.data(), y.data(), n),
                    reduction_tolerance(dot_scale, n))
            << "n=" << n;
        EXPECT_NEAR(avx2->squared_distance(x.data(), y.data(), n),
                    scalar.squared_distance(x.data(), y.data(), n),
                    reduction_tolerance(
                        scalar.squared_distance(x.data(), y.data(), n) * 4.0 +
                            1.0,
                        n))
            << "n=" << n;
        // Element-wise: one fused rounding vs two float roundings differ
        // by an ulp of the *operands* -- the result can cancel toward
        // zero, so the bound scales with |y| + |a x|, not with it.
        std::vector<float> got = y;
        std::vector<float> want = y;
        avx2->axpy(1.7F, x.data(), got.data(), n);
        scalar.axpy(1.7F, x.data(), want.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const double operand_mag = std::fabs(static_cast<double>(y[i])) +
                                       std::fabs(1.7 * x[i]);
            EXPECT_NEAR(got[i], want[i], 2.4e-7 * operand_mag + 1e-9)
                << "n=" << n << " i=" << i;
        }
        double avx2_dot = 0.0;
        double avx2_norm = 0.0;
        double scalar_dot = 0.0;
        double scalar_norm = 0.0;
        avx2->dot_and_norm(x.data(), y.data(), n, &avx2_dot, &avx2_norm);
        scalar.dot_and_norm(x.data(), y.data(), n, &scalar_dot, &scalar_norm);
        EXPECT_NEAR(avx2_dot, scalar_dot, reduction_tolerance(dot_scale, n));
        EXPECT_NEAR(avx2_norm, scalar_norm,
                    reduction_tolerance(scalar_norm, n));
    }
    // gemv: per-row divergence bounded like a lone dot.
    const std::size_t rows = 9;
    const std::size_t cols = 129;
    const auto a = random_vector(rows * cols, rng);
    const auto x = random_vector(cols, rng);
    const auto bias = random_vector(rows, rng);
    std::vector<float> got(rows);
    std::vector<float> want(rows);
    avx2->gemv(a.data(), rows, cols, x.data(), bias.data(), got.data());
    scalar.gemv(a.data(), rows, cols, x.data(), bias.data(), want.data());
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_NEAR(got[r], want[r],
                    1e-4 * std::fabs(static_cast<double>(want[r])) + 1e-5)
            << r;
    // Accumulate kernels: element-wise float FMA against the scalar loop.
    std::vector<float> gt(cols, 0.25F);
    std::vector<float> wt(cols, 0.25F);
    const auto d = random_vector(rows, rng);
    avx2->gemv_transpose_accumulate(a.data(), rows, cols, d.data(), gt.data());
    scalar.gemv_transpose_accumulate(a.data(), rows, cols, d.data(),
                                     wt.data());
    for (std::size_t j = 0; j < cols; ++j)
        EXPECT_NEAR(gt[j], wt[j],
                    1e-5 * std::fabs(static_cast<double>(wt[j])) + 1e-6)
            << j;
    std::vector<float> go(rows * cols, 0.5F);
    std::vector<float> wo(rows * cols, 0.5F);
    avx2->outer_accumulate(d.data(), x.data(), rows, cols, go.data());
    scalar.outer_accumulate(d.data(), x.data(), rows, cols, wo.data());
    for (std::size_t i = 0; i < rows * cols; ++i)
        EXPECT_NEAR(go[i], wo[i],
                    1e-5 * std::fabs(static_cast<double>(wo[i])) + 1e-6)
            << i;
}

// The end-to-end gate: a Table-2 attack scenario served entirely by the
// simd table must detect within 2% of the pinned scalar run.  (The
// incremental index cache is active in both runs -- the contribution
// policy installs it -- so this also covers "simd kernels + incremental
// index enabled" from the acceptance criteria.)
TEST(KernelParity, DetectionWithin2PercentOfScalarOnAttackScenario) {
    if (simd::detail::avx2_table() == nullptr ||
        !simd::cpu_supports_avx2_fma())
        GTEST_SKIP() << "AVX2+FMA unavailable on this build/CPU";

    fairbfl::core::EnvironmentConfig env_config;
    env_config.data.samples = 800;
    env_config.data.seed = 17;
    env_config.partition.scheme =
        fairbfl::ml::PartitionScheme::kLabelShards;
    env_config.partition.num_clients = 40;
    env_config.partition.seed = 17;
    const fairbfl::core::Environment env =
        fairbfl::core::build_environment(env_config);

    auto detection = [&](simd::Mode mode) {
        const ScopedKernelMode scoped(mode);
        fairbfl::core::FairBflConfig config;
        config.fl.client_ratio = 1.0;
        config.fl.rounds = 6;
        config.fl.seed = 17;
        config.attack.kind = fairbfl::core::AttackKind::kSignFlip;
        config.attack.magnitude = 3.0;
        config.attack.min_attackers = 2;
        config.attack.max_attackers = 4;
        // Sketch engaged (41 points > 2k = 32) and maintained across
        // rounds by the policy-installed IndexCache, so the simd leg runs
        // the full "simd kernels + incremental index" configuration.
        config.incentive.index = "random_projection";
        config.incentive.index_params.projection_dims = 16;
        fairbfl::core::FairBfl system(*env.model, env.make_clients(),
                                      env.test, config);
        double rate = 0.0;
        for (std::size_t r = 0; r < config.fl.rounds; ++r)
            rate += system.run_round().detection_rate;
        return rate / static_cast<double>(config.fl.rounds);
    };

    const double scalar_rate = detection(simd::Mode::kScalar);
    EXPECT_GT(scalar_rate, 0.5);  // the defense itself must be working
    EXPECT_NEAR(detection(simd::Mode::kSimd), scalar_rate, 0.02);
}

}  // namespace
