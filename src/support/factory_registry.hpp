#pragma once
// Shared name-keyed factory-table machinery for every registry
// (core::SystemRegistry, cluster::IndexRegistry,
// cluster::ClusteringRegistry), written once: a read-only view of a table
// fixed at compile time next to its implementations, sorted name listing,
// and unknown-key errors that enumerate the known names.

#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/cli.hpp"

namespace fairbfl::support {

/// CRTP-free registry base over a constant table of `Signature` factories:
/// derived classes add their typed build/make entry point on top of
/// find().  `kind` names the registry in error messages ("system",
/// "index backend", "clustering algorithm").
template <typename Signature>
class FactoryRegistry {
public:
    using Factory = Signature*;

    struct Entry {
        std::string_view name;
        Factory factory;
    };

    FactoryRegistry(const FactoryRegistry&) = delete;
    FactoryRegistry& operator=(const FactoryRegistry&) = delete;

    [[nodiscard]] bool contains(std::string_view name) const noexcept {
        return lookup(name) != nullptr;
    }

    /// Table names, sorted.
    [[nodiscard]] std::vector<std::string> names() const {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const Entry& entry : entries_) out.emplace_back(entry.name);
        return out;
    }

protected:
    /// `entries` must be sorted by name without duplicates, because
    /// names() lists them in table order.  Every table is a constant, so
    /// a misordered row fails the build here.
    constexpr FactoryRegistry(const char* kind, std::span<const Entry> entries)
        : kind_(kind), entries_(entries) {
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (!(entries[i - 1].name < entries[i].name))
                throw std::logic_error("registry table not sorted by name");
        }
    }

    /// The factory filed under `name`.  Throws std::out_of_range listing
    /// the known names when there is none.
    [[nodiscard]] Factory find(std::string_view name) const {
        if (const Factory factory = lookup(name)) return factory;
        throw std::out_of_range("unknown " + std::string(kind_) + " '" +
                                std::string(name) + "' (known: " +
                                join_names(names()) + ")");
    }

private:
    [[nodiscard]] Factory lookup(std::string_view name) const noexcept {
        for (const Entry& entry : entries_)
            if (entry.name == name) return entry.factory;
        return nullptr;
    }

    const char* kind_;
    std::span<const Entry> entries_;
};

}  // namespace fairbfl::support
