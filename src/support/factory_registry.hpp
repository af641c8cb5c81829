#pragma once
// Shared string-keyed factory-table machinery for every registry
// (core::SystemRegistry, cluster::IndexRegistry,
// cluster::ClusteringRegistry), written once: thread-safe additive
// registration, sorted name listing, and unknown-key errors that
// enumerate the known names.

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/cli.hpp"
#include "support/sync.hpp"

namespace fairbfl::support {

/// CRTP-free registry base: derived classes add their typed build/make
/// entry point on top of find().  `kind` names the registry in error
/// messages ("system", "index backend", "clustering algorithm").
template <typename FactoryT>
class FactoryRegistry {
public:
    using Factory = FactoryT;

    explicit FactoryRegistry(const char* kind) noexcept : kind_(kind) {}

    /// Registers a factory.  Throws std::invalid_argument when `name` is
    /// already taken, unless `replace` is set.
    void add(std::string name, Factory factory, bool replace = false)
        EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        if (!replace && factories_.contains(name)) {
            throw std::invalid_argument(std::string(kind_) + " '" + name +
                                        "' is already registered");
        }
        factories_[std::move(name)] = std::move(factory);
    }

    [[nodiscard]] bool contains(std::string_view name) const
        EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return factories_.find(name) != factories_.end();
    }

    /// Registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        std::vector<std::string> out;
        out.reserve(factories_.size());
        for (const auto& [name, _] : factories_) out.push_back(name);
        return out;
    }

protected:
    /// The factory registered under `name`.  Throws std::out_of_range
    /// listing the known names when it is not registered.
    [[nodiscard]] Factory find(std::string_view name) const
        EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        const auto it = factories_.find(name);
        if (it == factories_.end()) {
            std::vector<std::string> known;
            known.reserve(factories_.size());
            for (const auto& [key, _] : factories_) known.push_back(key);
            throw std::out_of_range("unknown " + std::string(kind_) + " '" +
                                    std::string(name) + "' (known: " +
                                    join_names(known) + ")");
        }
        return it->second;
    }

private:
    const char* kind_;
    mutable Mutex mutex_;
    std::map<std::string, Factory, std::less<>> factories_
        GUARDED_BY(mutex_);
};

}  // namespace fairbfl::support
