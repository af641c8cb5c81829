#pragma once
// String-keyed clustering-algorithm factory -- the registry that replaced
// the old incentive::ClusteringChoice enum.  Mirrors core::SystemRegistry:
// Algorithm 2's "any suitable clustering algorithm" resolves by key
// ("dbscan", "kmeans", or anything an adopter registers at startup), so
// `fairbfl_sim --clustering=<key>` reaches new algorithms without enum or
// switch edits anywhere in the pipeline.

#include <functional>
#include <memory>
#include <string_view>

#include "cluster/dbscan.hpp"
#include "cluster/kmeans.hpp"
#include "support/factory_registry.hpp"

namespace fairbfl::cluster {

/// Per-family tuning every factory can read; unused families stay at their
/// defaults (the SystemSpec pattern).
struct ClusteringConfig {
    DbscanParams dbscan;
    KMeansParams kmeans;
};

class ClusteringRegistry
    : public support::FactoryRegistry<
          std::function<std::unique_ptr<ClusteringAlgorithm>(
              const ClusteringConfig&)>> {
public:
    ClusteringRegistry() : FactoryRegistry("clustering algorithm") {}

    /// Builds the algorithm `name` configures.  Throws std::out_of_range
    /// listing the known names when it is not registered.
    [[nodiscard]] std::unique_ptr<ClusteringAlgorithm> make(
        std::string_view name, const ClusteringConfig& config) const {
        return find(name)(config);
    }

    /// The process-wide registry, "dbscan" and "kmeans" pre-registered.
    static ClusteringRegistry& global();
};

}  // namespace fairbfl::cluster
