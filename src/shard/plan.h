// Shard planning: how one global topology partitions into shards.
//
// A ShardPlan is derived from a global Topology plus a pluggable assignment
// (global node -> shard id). The plan owns everything the sharded core needs
// that the per-shard networks cannot see themselves:
//   - the global<->local node id maps (each shard addresses its members as a
//     dense 0..n-1 local space, in ascending global id order);
//   - the cross-shard link metadata (the links the induced shard subgraphs
//     deliberately drop), including per-pair gateway selection;
//   - the conservative window bound: the minimum cross-shard link latency.
//     Any event a shard executes in window [W, W+window) can only influence
//     another shard at or after W + window, so windows synchronized at that
//     cadence never violate causality (Bush's AVNMP virtual-time discipline,
//     specialized to a fixed conservative lookahead);
//   - shard-level routing: for a capsule bound from shard s to shard t, the
//     deterministic choice of which cross link to exit through next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "net/topology.h"
#include "net/types.h"
#include "sim/time.h"

namespace viator::shard {

using ShardId = std::uint32_t;
inline constexpr ShardId kInvalidShard = ~static_cast<ShardId>(0);

/// One link of the global topology whose endpoints live in different shards.
struct CrossLink {
  net::NodeId a = net::kInvalidNode;  // global endpoint in shard_a
  net::NodeId b = net::kInvalidNode;  // global endpoint in shard_b
  ShardId shard_a = kInvalidShard;
  ShardId shard_b = kInvalidShard;
  net::LinkConfig config;
};

/// Pluggable partitioner: maps every global node id to a shard id in
/// [0, shard_count). Plans are validated by BuildShardPlan.
using ShardAssignment =
    std::function<ShardId(net::NodeId node, const net::Topology& topology)>;

class ShardPlan {
 public:
  std::size_t shard_count() const { return members_.size(); }

  /// Global node ids of one shard, ascending (index = local id).
  const std::vector<net::NodeId>& members(ShardId shard) const {
    return members_[shard];
  }

  ShardId shard_of(net::NodeId global) const { return shard_of_[global]; }
  net::NodeId local_of(net::NodeId global) const { return local_of_[global]; }
  net::NodeId global_of(ShardId shard, net::NodeId local) const {
    return members_[shard][local];
  }

  const std::vector<CrossLink>& cross_links() const { return cross_links_; }

  /// The conservative window bound: minimum latency over all cross-shard
  /// links, clamped to >= 1 tick (zero-latency cross links would otherwise
  /// collapse the window; see docs/PARALLEL.md). When the plan has no cross
  /// links at all (single shard, or fully disconnected shards) this is 0 and
  /// the executor falls back to its configured default window.
  sim::Duration min_cross_latency() const { return min_cross_latency_; }

  /// Index into cross_links() of the link a capsule in `from` should exit
  /// through next on its way to `to` (BFS over the shard adjacency graph,
  /// lowest-(latency, endpoints) link per adjacent pair), or
  /// kInvalidRoute when `to` is unreachable from `from` over cross links.
  static constexpr std::size_t kInvalidRoute = ~static_cast<std::size_t>(0);
  std::size_t RouteLink(ShardId from, ShardId to) const {
    return route_[from * shard_count() + to];
  }

  /// The shard-local topology of `shard`: the induced subgraph over its
  /// members (cross links excluded — they exist only as mailbox metadata).
  net::Topology LocalTopology(const net::Topology& global,
                              ShardId shard) const {
    return global.InducedSubgraph(members_[shard]);
  }

  /// Mixes the partition structure into a state digest: shard membership and
  /// cross-link layout are part of what "the same sharded world" means.
  void MixDigest(Hasher& hasher) const;

 private:
  friend Result<ShardPlan> BuildShardPlan(const net::Topology& topology,
                                          std::size_t shard_count,
                                          const ShardAssignment& assignment);

  std::vector<std::vector<net::NodeId>> members_;
  std::vector<ShardId> shard_of_;       // global -> shard
  std::vector<net::NodeId> local_of_;   // global -> local within its shard
  std::vector<CrossLink> cross_links_;
  sim::Duration min_cross_latency_ = 0;
  std::vector<std::size_t> route_;      // (from * shards + to) -> cross link
};

/// Validates `assignment` over `topology` and derives the full plan.
/// Shards may be empty (a valid degenerate case the executor tolerates);
/// assignments out of [0, shard_count) fail with kInvalidArgument.
Result<ShardPlan> BuildShardPlan(const net::Topology& topology,
                                 std::size_t shard_count,
                                 const ShardAssignment& assignment);

/// Contiguous-block assignment: node ids split into shard_count consecutive
/// ranges of near-equal size (the first `node_count % shard_count` shards
/// take one extra node). On the row-major grids the generators produce this
/// yields contiguous ship blocks of whole grid rows — the partition the
/// paper-figure workloads shard best under.
ShardAssignment ContiguousBlocks(std::size_t shard_count);

/// Grid-aware assignment: whole rows of a rows x cols grid are banded into
/// shard_count contiguous row bands (equivalent to ContiguousBlocks when
/// rows % shard_count == 0, but never splits a row across shards).
ShardAssignment GridRowBands(std::size_t rows, std::size_t cols,
                             std::size_t shard_count);

}  // namespace viator::shard
