#include "cluster/registry.hpp"

namespace fairbfl::cluster {

namespace {

/// Sorted by name: names() lists the algorithms in this order.
constexpr ClusteringRegistry::Entry kAlgorithms[] = {
    {"dbscan",
     [](const ClusteringConfig& config)
         -> std::unique_ptr<ClusteringAlgorithm> {
         return std::make_unique<Dbscan>(config.dbscan);
     }},
    {"kmeans",
     [](const ClusteringConfig& config)
         -> std::unique_ptr<ClusteringAlgorithm> {
         return std::make_unique<KMeans>(config.kmeans);
     }},
};

}  // namespace

const ClusteringRegistry& ClusteringRegistry::global() {
    static constexpr ClusteringRegistry registry(kAlgorithms);
    return registry;
}

}  // namespace fairbfl::cluster
