#pragma once
// Name-keyed clustering-algorithm factory -- the registry that replaced
// the old incentive::ClusteringChoice enum.  Mirrors core::SystemRegistry:
// Algorithm 2's "any suitable clustering algorithm" resolves by key
// ("dbscan" or "kmeans"), so `fairbfl_sim --clustering=<key>` reaches every
// algorithm without enum or switch edits anywhere in the pipeline; a new
// algorithm is its class plus one row of the table in registry.cpp.

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
    : public support::FactoryRegistry<std::unique_ptr<ClusteringAlgorithm>(
          const ClusteringConfig&)> {
public:
    /// Builds the algorithm `name` configures.  Throws std::out_of_range
    /// listing the known names when there is no such algorithm.
    [[nodiscard]] std::unique_ptr<ClusteringAlgorithm> make(
        std::string_view name, const ClusteringConfig& config) const {
        return find(name)(config);
    }

    /// The process-wide table: "dbscan" and "kmeans".
    static const ClusteringRegistry& global();

private:
    constexpr explicit ClusteringRegistry(std::span<const Entry> entries)
        : FactoryRegistry("clustering algorithm", entries) {}
};

}  // namespace fairbfl::cluster
