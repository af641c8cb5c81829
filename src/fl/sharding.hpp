#pragma once
// ShardTree: the partition topology of hierarchical Algorithm-2 rounds.
//
// One process cannot hold a million client gradients, whatever the index
// backend: every backend's pass still sees all n points.  The shard tree
// breaks the round into S independent shard-level passes of n/S clients
// each -- every pass builds its own cluster::GradientIndex, so peak
// per-pass memory drops from O(n^2) (exact) / O(n k) (random projection)
// to the same bound at n/S -- and a root-level pass over the S shard
// summaries restores the global decision.  incentive/hierarchical.hpp
// implements the two-level Algorithm-2 pass on top of this topology; this
// header owns only the deterministic client -> shard assignment.
//
// Shards are contiguous, balanced ranges over the canonical
// (client-id-sorted) update order: assignment depends on nothing but
// (n, shard count), so rounds are bit-reproducible at any thread count
// and shard membership is stable across rounds for a fixed population.

#include <cstddef>
#include <vector>

namespace fairbfl::fl {

/// Tuning of the shard tree.  The default (`shards == 1`) is the flat
/// single-pass pipeline, bit-for-bit.
struct ShardingConfig {
    /// Requested shard-level fan-out S.  1 disables the tree.
    std::size_t shards = 1;
    /// Lower bound on clients per shard.  A shard-level DBSCAN pass needs
    /// enough points for cluster structure to exist (min_pts core points
    /// plus room for outliers), so the effective shard count is clamped to
    /// keep every shard at least this large.  8 comfortably holds the
    /// default `min_pts = 3` geometry.
    std::size_t min_shard_clients = 8;
};

/// One shard's contiguous index range [begin, end) into the round's
/// canonical update order.
struct ShardRange {
    std::size_t begin = 0;
    std::size_t end = 0;

    /// Number of clients in the shard.
    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// Deterministic shard planner: clamps the requested fan-out to the
/// round's population and hands out balanced contiguous ranges.
class ShardTree {
public:
    /// \param config requested fan-out and the per-shard size floor.
    explicit ShardTree(ShardingConfig config) noexcept : config_(config) {}

    /// The configuration the tree was built with.
    [[nodiscard]] const ShardingConfig& config() const noexcept {
        return config_;
    }

    /// Effective shard count for an n-client round: the requested
    /// `config().shards`, clamped so every shard keeps at least
    /// `min_shard_clients` members (and to at least 1).
    /// \param n number of client updates in the round.
    [[nodiscard]] std::size_t shard_count(std::size_t n) const noexcept;

    /// Balanced contiguous partition of [0, n) into shard_count(n) ranges:
    /// the first n % S shards take one extra client.  Ranges cover [0, n)
    /// exactly, in ascending order.
    /// \param n number of client updates in the round.
    [[nodiscard]] std::vector<ShardRange> plan(std::size_t n) const;

private:
    ShardingConfig config_;
};

}  // namespace fairbfl::fl
