#pragma once
// The unified orchestration API: every workload -- FedAvg, FedProx, the
// FAIR-BFL variants, vanilla BFL, and the pure-blockchain baseline -- is a
// `System` behind one round protocol, created from a string-keyed
// `SystemRegistry` by a declarative `SystemSpec`.
//
//     Environment env = build_environment(env_config);
//     SystemRun fair = run_system(env, fairbfl_spec(config, "FAIR"));
//     std::vector<SystemRun> all = run_suite(env, specs);  // concurrent
//
// New scenarios register a factory instead of editing the round loop or
// the bench binaries:
//
//     SystemRegistry::global().add("my_system",
//         [](const Environment& env, const SystemSpec& spec) { ...; });
//
// The built-in factories reproduce the hand-driven FedAvg, FedProx,
// FAIR-BFL and pure-blockchain round loops bit-for-bit on the same seed
// (pinned in tests/test_system.cpp).

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/blockchain_baseline.hpp"
#include "core/experiment.hpp"
#include "core/fairbfl.hpp"
#include "core/vanilla_bfl.hpp"
#include "fl/fedprox.hpp"
#include "support/parallel.hpp"
#include "support/sync.hpp"

namespace fairbfl::core {

/// Declarative description of one run: which registered system, under
/// which label, with which per-family configuration.  Each built-in
/// factory reads exactly the fields its legacy entry point took; the
/// unused families stay at their defaults.
struct SystemSpec {
    std::string system = "fairbfl";  ///< registry key
    std::string label;               ///< run name; empty = factory default
    /// Round-count override; 0 = the family config's own round count.
    std::size_t rounds = 0;

    fl::FlConfig fl;                     ///< "fedavg"
    fl::FedProxConfig fedprox;           ///< "fedprox"
    FairBflConfig fair;                  ///< "fairbfl" / "pure_fl" / ...
    VanillaBflConfig vanilla;            ///< "vanilla_bfl"
    BlockchainBaselineConfig blockchain; ///< "blockchain"
    DelayParams delay;                   ///< delay model for fedavg/fedprox
};

// Convenience constructors, one per built-in system.  Each takes the
// family configuration its factory reads, the run name (empty = the
// factory's default), and -- for the chainless systems -- the shared
// delay model.

/// Spec for classic FedAvg under the shared delay model.
/// \param config FL hyperparameters (rounds, ratio, SGD, seed).
/// \param delay  delay-model calibration for the simulated T components.
/// \param label  run name; empty = the factory default.
[[nodiscard]] SystemSpec fedavg_spec(const fl::FlConfig& config,
                                     const DelayParams& delay,
                                     std::string label = "");
/// Spec for FedProx (proximal FedAvg with stragglers).
/// \param config FedProx configuration (base FL + mu + drop rate).
/// \param delay  delay-model calibration for the simulated T components.
/// \param label  run name; empty = the factory default.
[[nodiscard]] SystemSpec fedprox_spec(const fl::FedProxConfig& config,
                                      const DelayParams& delay,
                                      std::string label = "");
/// Spec for the full FAIR-BFL round (Algorithms 1 + 2).
/// \param config the complete FAIR-BFL configuration.
/// \param label  run name; empty = the factory default.
[[nodiscard]] SystemSpec fairbfl_spec(const FairBflConfig& config,
                                      std::string label = "");
/// FAIR-BFL degraded to pure FL (Procedures III and V off -- Figure 3).
/// \param config the complete FAIR-BFL configuration.
/// \param label  run name; empty = the factory default.
[[nodiscard]] SystemSpec pure_fl_spec(const FairBflConfig& config,
                                      std::string label = "");
/// FAIR-BFL with the discarding strategy (§5.3).
/// \param config the complete FAIR-BFL configuration.
/// \param label  run name; empty = the factory default.
[[nodiscard]] SystemSpec fairbfl_discard_spec(const FairBflConfig& config,
                                              std::string label = "");
/// Spec for vanilla (non-fair, forking) BFL.
/// \param config the vanilla-BFL configuration.
/// \param label  run name; empty = the factory default.
[[nodiscard]] SystemSpec vanilla_bfl_spec(const VanillaBflConfig& config,
                                          std::string label = "");
/// Spec for the pure-blockchain baseline (no learning).
/// \param config the baseline's workload configuration.
/// \param label  run name; empty = the factory default.
[[nodiscard]] SystemSpec blockchain_spec(
    const BlockchainBaselineConfig& config, std::string label = "");

/// One system under the shared round protocol: call run_round() once per
/// communication round, then finalize() for the aggregated SystemRun.
/// finalize() is const and may be called at any point (and repeatedly);
/// it summarizes the rounds executed so far.
class System {
public:
    virtual ~System() = default;

    [[nodiscard]] virtual std::string_view name() const noexcept = 0;
    /// The round count the spec's configuration asks for.
    [[nodiscard]] virtual std::size_t default_rounds() const noexcept = 0;

    /// Executes one communication round and returns its series point.
    virtual SeriesPoint run_round() = 0;

    /// Aggregates everything run so far into a SystemRun (§5.2 metrics).
    [[nodiscard]] virtual SystemRun finalize() const = 0;

    /// The ledger this system maintains; null for chainless systems
    /// (FedAvg, FedProx, pure FL).
    [[nodiscard]] virtual const chain::Blockchain* blockchain()
        const noexcept {
        return nullptr;
    }

    /// The reward ledger, when the system pays contributions (FAIR-BFL
    /// family only).
    [[nodiscard]] virtual const incentive::RewardLedger* reward_ledger()
        const noexcept {
        return nullptr;
    }
};

/// String-keyed factory table.  `global()` comes pre-loaded with the
/// built-ins ("fedavg", "fedprox", "fairbfl", "fairbfl_discard",
/// "pure_fl", "vanilla_bfl", "blockchain"); registrations are additive and
/// thread-safe, so a bench or adopter can plug a scenario in at startup.
class SystemRegistry {
public:
    using Factory = std::function<std::unique_ptr<System>(
        const Environment&, const SystemSpec&)>;

    /// Registers a factory.  Throws std::invalid_argument when `name` is
    /// already taken, unless `replace` is set.
    /// \param name    registry key the factory will answer to.
    /// \param factory builds the system from an environment and a spec.
    /// \param replace overwrite an existing registration instead of
    ///                throwing.
    void add(std::string name, Factory factory, bool replace = false)
        EXCLUDES(mutex_);

    /// True when a factory is registered under `name`.
    /// \param name registry key to look up.
    [[nodiscard]] bool contains(std::string_view name) const
        EXCLUDES(mutex_);
    /// Registered names, sorted.
    [[nodiscard]] std::vector<std::string> names() const EXCLUDES(mutex_);

    /// Builds the system `spec.system` names.  Throws std::out_of_range
    /// listing the known names when it is not registered.
    /// \param env  the shared world (dataset, partition, model).
    /// \param spec which system to build, with its configuration.
    [[nodiscard]] std::unique_ptr<System> make(const Environment& env,
                                               const SystemSpec& spec) const
        EXCLUDES(mutex_);

    /// The process-wide registry, built-ins pre-registered.
    static SystemRegistry& global();

private:
    mutable support::Mutex mutex_;
    std::map<std::string, Factory, std::less<>> factories_
        GUARDED_BY(mutex_);
};

/// Builds the spec's system, runs its rounds, and returns the finalized
/// SystemRun -- the single entry point every bench and example goes
/// through.
/// \param env      the shared world (dataset, partition, model).
/// \param spec     which system to run, with its configuration.
/// \param registry factory table to resolve `spec.system` in.
[[nodiscard]] SystemRun run_system(
    const Environment& env, const SystemSpec& spec,
    const SystemRegistry& registry = SystemRegistry::global());

/// Runs every spec against the shared environment, concurrently on the
/// given pool, and returns the SystemRuns in spec order.  Deterministic:
/// each system draws only from its own (seed, stream, round) Rng forks, so
/// results are identical to running the specs serially.  The first
/// exception (in spec order) is rethrown after all workers finish.
/// \param env      the shared world every spec runs against.
/// \param specs    the sweep, one spec per run.
/// \param pool     carries the per-spec fan-out; results are identical
///                 for any pool size.
/// \param registry factory table to resolve each spec's system in.
[[nodiscard]] std::vector<SystemRun> run_suite(
    const Environment& env, std::span<const SystemSpec> specs,
    support::ThreadPool& pool = support::ThreadPool::global(),
    const SystemRegistry& registry = SystemRegistry::global());

}  // namespace fairbfl::core
