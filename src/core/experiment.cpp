#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "ml/idx_loader.hpp"

namespace fairbfl::core {

Environment build_environment(const EnvironmentConfig& config) {
    Environment env;

    std::optional<ml::Dataset> real;
    if (!config.mnist_images.empty() && !config.mnist_labels.empty()) {
        real = ml::load_mnist_idx(config.mnist_images, config.mnist_labels,
                                  config.data.samples);
    }
    env.dataset = std::make_unique<ml::Dataset>(
        real.has_value() ? std::move(*real)
                         : ml::make_synthetic_mnist(config.data));

    const auto split = ml::train_test_split(*env.dataset,
                                            config.test_fraction,
                                            config.data.seed);
    env.train = split.train;
    env.test = split.test;
    env.shards = ml::partition(env.train, config.partition);

    if (config.noisy_client_fraction > 0.0) {
        auto rng = support::Rng::fork(config.data.seed, /*stream=*/0xBAD);
        const auto count = static_cast<std::size_t>(
            config.noisy_client_fraction *
            static_cast<double>(env.shards.size()));
        env.noisy_clients = rng.sample_indices(env.shards.size(), count);
        std::sort(env.noisy_clients.begin(), env.noisy_clients.end());
        const auto classes =
            static_cast<std::int64_t>(env.dataset->num_classes());
        for (const std::size_t client : env.noisy_clients) {
            // Fixed per-client label shift: a consistently wrong annotator.
            const auto offset = rng.uniform_int(1, classes - 1);
            const auto& shard = env.shards[client];
            for (const std::size_t row : shard.indices()) {
                if (!rng.bernoulli(config.label_noise_prob)) continue;
                env.dataset->set_label(
                    row, static_cast<std::int32_t>(
                             (env.dataset->label_of(row) + offset) % classes));
            }
        }
    }

    switch (config.model) {
        case ModelKind::kLogistic:
            env.model = ml::make_logistic_regression(
                env.dataset->feature_dim(), env.dataset->num_classes());
            break;
        case ModelKind::kMlp:
            env.model = ml::make_mlp(env.dataset->feature_dim(),
                                     config.mlp_hidden,
                                     env.dataset->num_classes());
            break;
    }
    return env;
}

void SystemRun::finalize() {
    // Reset every aggregate first: repeated calls must not leak state from
    // a previous (possibly longer) series, and an empty series must leave
    // well-defined zeros instead of dividing by a zero round count.
    average_delay = 0.0;
    average_accuracy = 0.0;
    final_accuracy = 0.0;
    converged_round = support::ConvergenceDetector::npos;
    converged_elapsed_seconds = 0.0;
    if (series.empty()) return;

    support::RunningStats delay_stats;
    support::RunningStats accuracy_stats;
    support::ConvergenceDetector convergence;
    double elapsed = 0.0;
    for (auto& point : series) {
        elapsed += point.delay_seconds;
        point.elapsed_seconds = elapsed;
        delay_stats.add(point.delay_seconds);
        accuracy_stats.add(point.accuracy);
        if (!convergence.converged() && convergence.add(point.accuracy))
            converged_elapsed_seconds = elapsed;
    }
    average_delay = delay_stats.mean();
    average_accuracy = accuracy_stats.mean();
    final_accuracy = series.back().accuracy;
    converged_round = convergence.converged_at();
}

double fl_round_delay(const DelayModel& delays, const Environment& env,
                      const std::vector<std::size_t>& participants,
                      const ml::SgdParams& sgd, std::uint64_t round,
                      std::uint64_t seed) {
    std::vector<std::size_t> steps;
    steps.reserve(participants.size());
    const std::size_t batch = std::max<std::size_t>(sgd.batch_size, 1);
    for (const std::size_t id : participants) {
        const std::size_t samples = env.shards[id].size();
        steps.push_back(sgd.epochs * ((samples + batch - 1) / batch));
    }
    auto rng = support::Rng::fork(seed, /*stream=*/0xFAFA, round);
    const std::size_t payload =
        env.model->param_count() * sizeof(float) + 24;
    double delay = delays.t_local(participants, steps, seed);
    delay += delays.t_up(participants.size(), payload, rng);
    delay += delays.t_gl(participants.size(), /*clustered_points=*/0);
    return delay;
}

}  // namespace fairbfl::core
