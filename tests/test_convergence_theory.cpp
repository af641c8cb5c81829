// Empirical validation of Theorem 3.1: under the decreasing step size
// eta_r = 2/(mu(gamma+r)) on a strongly convex objective, the optimality
// gap is dominated by C/(gamma+r).
//
// We use L2-regularized multinomial logistic regression (mu = the L2
// coefficient under cross-entropy's convexity) trained by the FAIR-BFL
// round structure with fair aggregation and partial participation --
// exactly the setting of the theorem.

#include <gtest/gtest.h>

#include <cmath>

#include "fl/aggregation.hpp"
#include "fl/local_trainer.hpp"
#include "fl/sampling.hpp"
#include "ml/optimizer.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/vecmath.hpp"

namespace {

namespace fl = fairbfl::fl;
namespace ml = fairbfl::ml;

struct ConvexWorld {
    ml::Dataset data = ml::make_synthetic_mnist({.samples = 400,
                                                 .feature_dim = 6,
                                                 .num_classes = 3,
                                                 .noise_sigma = 0.25,
                                                 .seed = 81});
    std::unique_ptr<ml::Model> model = ml::make_logistic_regression(6, 3, 1e-2);
    ml::DatasetView all = ml::DatasetView::all(data);

    /// F* estimated by long full-batch training.
    double optimum() const {
        std::vector<float> params(model->param_count(), 0.0F);
        std::vector<float> grad(params.size());
        ml::TrainWorkspace ws;
        for (int step = 0; step < 3000; ++step) {
            fairbfl::support::fill(grad, 0.0F);
            (void)model->loss_and_gradient(params, all, ws, grad);
            fairbfl::support::axpy(-0.5F, grad, params);
        }
        return model->loss(params, all);
    }
};

TEST(ConvergenceTheory, GapDecreasesUnderDecreasingStepSchedule) {
    ConvexWorld world;
    const double f_star = world.optimum();

    ml::PartitionParams part;
    part.scheme = ml::PartitionScheme::kIid;
    part.num_clients = 8;
    part.seed = 81;
    const auto shards = ml::partition(world.all, part);
    auto clients = fl::make_clients(*world.model, shards);

    const ml::DecreasingStepSchedule schedule{.mu = 0.5, .L = 4.0, .E = 2};

    fl::LocalTrainer trainer;
    std::vector<float> weights(world.model->param_count(), 0.0F);
    std::vector<double> gaps;
    for (std::size_t round = 0; round < 60; ++round) {
        const auto selected = fl::sample_clients(8, 0.75, round, 42);
        ml::SgdParams sgd;
        sgd.learning_rate = schedule.rate_at(round);
        sgd.epochs = schedule.E;
        sgd.batch_size = 10;
        const auto updates =
            trainer.run(clients, selected, weights, sgd, round, 42);
        weights = fl::simple_average(updates);
        gaps.push_back(world.model->loss(weights, world.all) - f_star);
    }

    // (1) The trailing gap is far below the initial gap.
    const double early = (gaps[0] + gaps[1] + gaps[2]) / 3.0;
    double late = 0.0;
    for (std::size_t i = gaps.size() - 5; i < gaps.size(); ++i)
        late += gaps[i];
    late /= 5.0;
    EXPECT_LT(late, 0.3 * early);

    // (2) Theorem-shaped envelope: gap_r <= C / (gamma + r) for a constant
    // C fitted on the first round.  Allow slack x3 for stochasticity.
    const double gamma = schedule.gamma();
    const double c_fit = gaps[0] * (gamma + 0.0);
    for (std::size_t r = 5; r < gaps.size(); ++r) {
        EXPECT_LT(gaps[r], 3.0 * c_fit / (gamma + static_cast<double>(r)))
            << "round " << r;
    }
}

TEST(ConvergenceTheory, GapNonIncreasingOnAverage) {
    // Moving-average of the gap must be monotone-ish: compare thirds.
    ConvexWorld world;
    const double f_star = world.optimum();

    ml::PartitionParams part;
    part.scheme = ml::PartitionScheme::kLabelShards;  // non-IID: the paper's
    part.num_clients = 8;                             // "regardless of the
    part.shards_per_client = 2;                       // data distribution"
    part.seed = 82;
    const auto shards = ml::partition(world.all, part);
    auto clients = fl::make_clients(*world.model, shards);
    const ml::DecreasingStepSchedule schedule{.mu = 0.5, .L = 4.0, .E = 2};

    fl::LocalTrainer trainer;
    std::vector<float> weights(world.model->param_count(), 0.0F);
    std::vector<double> gaps;
    for (std::size_t round = 0; round < 45; ++round) {
        const auto selected = fl::sample_clients(8, 1.0, round, 7);
        ml::SgdParams sgd;
        sgd.learning_rate = schedule.rate_at(round);
        sgd.epochs = schedule.E;
        sgd.batch_size = 10;
        const auto updates =
            trainer.run(clients, selected, weights, sgd, round, 7);
        weights = fl::simple_average(updates);
        gaps.push_back(world.model->loss(weights, world.all) - f_star);
    }
    auto third = [&](std::size_t k) {
        double sum = 0.0;
        for (std::size_t i = k * 15; i < (k + 1) * 15; ++i) sum += gaps[i];
        return sum / 15.0;
    };
    EXPECT_GT(third(0), third(1));
    EXPECT_GT(third(1), third(2));
}

}  // namespace
