#pragma once
// Experiment harness: builds the evaluation environment (dataset ->
// partition -> model -> clients) and runs each system under the unified
// metric protocol of §5.2:
//   * average delay   = (1/r) sum d_i over communication rounds,
//   * average accuracy= (1/r) sum acc_i,
//   * convergence     = accuracy change within 0.5% for 5 consecutive
//                       rounds.
// Every bench binary is a thin parameter sweep over these helpers.

#include <memory>
#include <string>
#include <vector>

#include "core/blockchain_baseline.hpp"
#include "core/fairbfl.hpp"
#include "fl/fedprox.hpp"
#include "ml/partition.hpp"
#include "ml/synthetic_mnist.hpp"
#include "support/stats.hpp"

namespace fairbfl::core {

enum class ModelKind : std::uint8_t { kLogistic = 0, kMlp = 1 };

struct EnvironmentConfig {
    ml::SyntheticMnistParams data;
    ml::PartitionParams partition;
    ModelKind model = ModelKind::kLogistic;
    std::size_t mlp_hidden = 32;
    double test_fraction = 0.15;
    /// Low-quality clients (paper §5.3): this fraction of clients get
    /// `label_noise_prob` of their training labels *systematically*
    /// remapped by a fixed per-client class permutation (a consistently
    /// wrong annotator).  Systematic mislabelling produces confident,
    /// full-magnitude, wrong-direction gradients -- the "noise from
    /// low-quality data" the discarding strategy is supposed to filter out.
    /// (Uniformly random flips would largely cancel within a shard and
    /// yield small, undetectable gradients instead.)
    double noisy_client_fraction = 0.0;
    double label_noise_prob = 0.6;
    /// When both paths are non-empty and the files exist, real MNIST IDX
    /// data replaces the synthetic dataset.
    std::string mnist_images;
    std::string mnist_labels;
};

/// The built world.  Dataset lives behind a unique_ptr so the views (which
/// hold a Dataset*) survive moves of the Environment.
struct Environment {
    std::unique_ptr<ml::Dataset> dataset;
    std::unique_ptr<ml::Model> model;
    std::vector<ml::DatasetView> shards;  ///< one per client
    ml::DatasetView train;
    ml::DatasetView test;
    /// Clients whose labels were noised (empty unless configured).
    std::vector<std::size_t> noisy_clients;

    [[nodiscard]] std::vector<fl::Client> make_clients() const {
        return fl::make_clients(*model, shards);
    }
};

[[nodiscard]] Environment build_environment(const EnvironmentConfig& config);

/// One round of any system, on the common axes the figures use.
struct SeriesPoint {
    std::uint64_t round = 0;
    double delay_seconds = 0.0;    ///< d_i
    double elapsed_seconds = 0.0;  ///< cumulative sum of d_i
    double accuracy = 0.0;         ///< acc_i (0 for pure blockchain)
};

struct SystemRun {
    std::string name;
    std::vector<SeriesPoint> series;
    double average_delay = 0.0;
    double average_accuracy = 0.0;
    double final_accuracy = 0.0;
    std::size_t converged_round = support::ConvergenceDetector::npos;
    double converged_elapsed_seconds = 0.0;

    /// Computes the aggregate fields from `series`.  Idempotent (every
    /// aggregate is recomputed from scratch) and safe on an empty series,
    /// so callers like run_suite can invoke it defensively.
    void finalize();
};

/// Delay of one FL round under the shared model (exposed for tests).
[[nodiscard]] double fl_round_delay(const DelayModel& delays,
                                    const Environment& env,
                                    const std::vector<std::size_t>& participants,
                                    const ml::SgdParams& sgd,
                                    std::uint64_t round, std::uint64_t seed);

}  // namespace fairbfl::core
