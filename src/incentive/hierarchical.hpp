#pragma once
// Hierarchical Algorithm 2: the shard-tree contribution pass.
//
// A flat round clusters all n updates plus the provisional global in one
// pass, so one process must hold every gradient and one GradientIndex must
// span all n points -- the wall between this reproduction and a
// million-client round.  The shard tree runs Algorithm 2 twice:
//
//   1. *Shard level* -- fl::ShardTree partitions the canonical update
//      order into S contiguous shards; each shard runs the full flat pass
//      (own GradientIndex via the configured IndexRegistry key, own
//      DBSCAN/k-means scan, exact theta scores against the round's
//      provisional global) independently on the work-stealing ThreadPool.
//      A shard forwards upward only its *survivor summary*: the Eq. 1
//      combine of its surviving updates.
//
//   2. *Root level* -- the S summaries are treated as pseudo-updates and
//      the same flat pass clusters them against the provisional global,
//      yielding per-shard high/low labels, root theta scores, and the
//      settled global update (Eq. 1 over the surviving summaries).
//
// Per-client outcomes compose multiplicatively, so theta-driven
// incentives stay end-to-end:
//
//   reward_i = (shard-local share of i) x (root share of i's shard) x base
//   high_i   = shard-locally high  AND  shard root-level high
//
// Both levels inherit the flat pass's guarantees (a non-empty round
// always has survivors; degenerate theta splits evenly), so per-shard
// local shares sum to 1 and root shares sum to 1 -- rewards conserve the
// round budget exactly, shards or no shards.
//
// Peak per-pass index memory drops from the flat bound at n points to the
// same bound at n/S (exact: O((n/S)^2) instead of O(n^2); random
// projection: O((n/S) k) plus the shared projection matrix), reported as
// ContributionReport::index_peak_bytes.  Per-level wall time is read from
// the "cluster.shard_pass" and "cluster.root_pass" telemetry spans.  Results
// are deterministic at any thread count: shard assignment is a pure
// function of (n, S) and every pass draws no randomness outside its own
// seeded index internals.

#include <cstddef>
#include <span>
#include <vector>

#include "incentive/contribution.hpp"
#include "support/parallel.hpp"

namespace fairbfl::incentive {

/// Runs the two-level shard-tree pass described above.
///
/// With `config.sharding.shards <= 1` (or a round too small to split --
/// see fl::ShardTree::shard_count) this is exactly the flat
/// identify_contributions call: same arithmetic, bit-for-bit.
///
/// Otherwise the result is flat-compatible: entries in canonical update
/// order with hierarchical high flags and rewards, the *root* pass's
/// clustering/global_cluster/index_backend, the largest pass's
/// index_peak_bytes, shard_count = S, and the settled global update in
/// `settled_weights` -- a drop-in for every ContributionReport consumer
/// (ledger, detection, apply_strategy).
///
/// \param updates            the round's gradient set, canonical order.
/// \param provisional_global the simple average of Algorithm 1 line 24.
/// \param config             Algorithm 2 configuration; `sharding` selects
///                           the fan-out, `strategy` governs which updates
///                           survive into each shard's summary.
/// \param reference          previous round's global weights (may be
///                           empty); both levels cluster effective
///                           gradients against it, like the flat pass.
/// \param pool               carries the shard fan-out and every pass's
///                           own fan-outs (the flat fallback's too);
///                           results are identical for any pool size.
[[nodiscard]] ContributionReport identify_contributions_hierarchical(
    std::span<const fl::GradientUpdate> updates,
    std::span<const float> provisional_global,
    const ContributionConfig& config, std::span<const float> reference = {},
    support::ThreadPool& pool = support::ThreadPool::global());

}  // namespace fairbfl::incentive
