// Physical topology: a mutable multigraph of nodes and full-duplex links
// with bandwidth, propagation latency, loss and queue capacity, plus the
// standard generator family (line, ring, star, grid, random, geometric,
// Barabási–Albert) and shortest-path queries.
//
// Links can be brought up/down and added at runtime — mobility and failure
// injection mutate the same structure the fabric routes over, which is what
// lets the Wandering Network's "topology-on-demand" react to real change.
//
// NextHop() — the per-hop routing query on the data path — is backed by a
// generation-stamped route cache keyed by *destination*, as a real routing
// table is: the row for `to` stores, for every node `s`, the next hop from
// `s` toward `to` (LRU-bounded), so NextHop(from, to) is
// row(to).first_hop[from]. All rows are invalidated wholesale by bumping
// `generation_` on every structural mutation (link/node up/down, added
// links/nodes, mobility rewires). The cache is derived state: Visit never
// lists it, so snapshots and state hashes do not see it.
//
// A row is decision-identical to the per-pair BFS it replaces, by this
// lemma: ShortestPath(from, to)[1] is the first neighbour n of `from`, in
// adjacency (`incident_`) order, with dist(n, to) == dist(from, to) - 1.
// Proof: the per-pair BFS labels each node with the first hop of its BFS
// parent, first touch wins, and expands level by level. Level 1 is `from`'s
// neighbours in adjacency order, each its own label. If level k's queue is
// sorted by label rank, each level-(k+1) node takes the lowest-ranked label
// among its level-k neighbours, which is the lowest-ranked first hop on any
// of its shortest paths, and is queued in label-rank order, so level k+1 is
// sorted too. Hop distance is symmetric, so one sweep from `to` fills the
// row: when node u at distance k is popped, every node at distance k-1 is
// already known, and u's entry is the first neighbour in u's adjacency at
// distance k-1. One fill serves every source; a hit is one load.
//
// Row fills (and IsConnected) walk an up-adjacency in CSR form: node n's up
// neighbors, in `incident_` order, are adj_[adj_offset_[n]..adj_offset_[n+1]).
// It is rebuilt lazily, in place, the first time a sweep runs after the
// generation moved; the sweep's FIFO and distance array are reused scratch
// vectors, so a steady-state fill allocates nothing. Adjacency and scratch
// follow the same single-owner discipline as the cache rows: `mutable`
// derived state of one Topology, never shared between copies and never
// touched by two threads at once (each shard owns its own Topology), and
// charged with the rows to mem::Domain::kRouteCache.
// ShortestPath/NextHopUncached keep walking `incident_` through
// Neighbors(), so the cache's proof compares two independently derived
// answers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "net/types.h"
#include "sim/time.h"
#include "telemetry/mem_counters.h"

namespace viator::sim {
class Gauge;
class StatsRegistry;
}  // namespace viator::sim

namespace viator::net {

/// Full-duplex point-to-point link parameters.
struct LinkConfig {
  double bandwidth_bps = 100e6;            // per direction
  sim::Duration latency = sim::kMillisecond;  // propagation, per direction
  double loss_probability = 0.0;           // i.i.d. frame loss
  std::uint32_t queue_capacity_bytes = 1 << 20;  // per-direction tx queue
};

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  LinkConfig config;
  bool up = true;
};

class Topology {
 public:
  /// Creates `count` fresh nodes; returns the id of the first.
  NodeId AddNodes(std::size_t count);

  /// Connects a and b (must exist, distinct). Returns the link id.
  LinkId AddLink(NodeId a, NodeId b, const LinkConfig& config = {});

  std::size_t node_count() const { return node_count_; }
  std::size_t link_count() const { return links_.size(); }

  const Link& link(LinkId id) const { return links_[id]; }

  void SetLinkUp(LinkId id, bool up) {
    if (links_[id].up != up) {
      links_[id].up = up;
      generation_ = NextGeneration();
    }
  }
  bool IsLinkUp(LinkId id) const { return links_[id].up; }

  /// Marks every link touching `node` down (node failure) or up again.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const { return node_up_[node]; }

  /// The up link between a and b if one exists.
  std::optional<LinkId> FindLink(NodeId a, NodeId b) const;

  /// Up neighbors of `node` (only via up links, both endpoints up).
  std::vector<NodeId> Neighbors(NodeId node) const;
  /// The same neighbors written into `out`, reusing its capacity.
  void Neighbors(NodeId node, std::vector<NodeId>& out) const;

  /// All link ids incident to `node`.
  std::vector<LinkId> IncidentLinks(NodeId node) const;

  /// Hop-count shortest path a→b over up links; empty if disconnected.
  /// The returned path includes both endpoints.
  std::vector<NodeId> ShortestPath(NodeId a, NodeId b) const;

  /// Latency-weighted shortest path (Dijkstra over link latency).
  std::vector<NodeId> FastestPath(NodeId a, NodeId b) const;

  /// Next hop on the hop-count shortest path, or kInvalidNode. O(1) against
  /// the route cache in steady state; one row-filling sweep per
  /// (destination, topology generation) otherwise.
  NodeId NextHop(NodeId from, NodeId to) const;

  /// Next hop computed the pre-cache way: a fresh per-pair BFS. Exists so
  /// tests (and the bench's cache-off leg) can prove the cache
  /// decision-identical; not a data-path API.
  NodeId NextHopUncached(NodeId from, NodeId to) const {
    const auto path = ShortestPath(from, to);
    return path.size() >= 2 ? path[1] : kInvalidNode;
  }

  // ---- Route cache ---------------------------------------------------------

  struct RouteCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;         // row fills (cold or post-invalidation)
    std::uint64_t invalidations = 0;  // stale rows discarded lazily
    std::uint64_t evictions = 0;      // live rows displaced by LRU pressure
  };

  /// Runtime switch (default on). Disabling routes every NextHop through a
  /// fresh BFS — the reference the bench gate measures the cache against.
  void SetRouteCacheEnabled(bool enabled) { cache_enabled_ = enabled; }
  bool route_cache_enabled() const { return cache_enabled_; }

  /// Caps the number of cached destination rows (LRU eviction beyond it).
  /// Each row answers NextHop(*, to) for one destination `to`, so a
  /// workload needs as many rows as it has live destinations, however many
  /// nodes forward toward them. Minimum 1; default 256 rows.
  void SetRouteCacheCapacity(std::size_t rows);
  std::size_t route_cache_capacity() const { return cache_capacity_; }

  const RouteCacheStats& route_cache_stats() const { return cache_stats_; }

  /// Heap bytes behind the cache (row index, row spine, first-hop stores,
  /// CSR adjacency, sweep FIFO and distance scratch), tracked incrementally
  /// and mirrored into the memory observatory's kRouteCache domain.
  /// Deterministic for a given query sequence.
  std::size_t route_cache_bytes() const { return cache_bytes_.value(); }

  /// Structural-change stamp: moves on every change of the fields Visit
  /// lists (links and nodes added, link and node up flags, a load). Cached
  /// rows stamped with an older generation are dead. Every move draws the
  /// next value of one process-wide sequence, so two topologies share a
  /// generation only when one is a copy of the other; a digest cached
  /// against it (WanderingNetwork::MixDigest) stays exact across
  /// assignment.
  std::uint64_t generation() const { return generation_; }

  /// True when every node can reach every other over up links.
  bool IsConnected() const;

  /// Shard-local view (src/shard): the subgraph induced by `members` —
  /// global node ids that become local ids 0..members.size()-1 in member
  /// order. Links with both endpoints in `members` are copied with the same
  /// config and up flag; links crossing the cut are *not* copied (the shard
  /// plan carries them separately as cross-shard link metadata). Per-node
  /// up/down states are preserved. Duplicate members are invalid.
  Topology InducedSubgraph(const std::vector<NodeId>& members) const;

  /// Snapshot fields (base/archive.h): the node count, one up flag per node
  /// and one record per link. Loading requires an empty topology and
  /// rebuilds the incidence lists; the route cache starts cold.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      if (node_count_ != 0 || !links_.empty()) {
        a.Fail(FailedPrecondition(
            "topology restore requires an empty topology"));
        return;
      }
    }
    a.U64(0x01, node_count_);
    a.U32s(0x02, node_up_);
    a.Each(0x03, links_, [](auto& r, auto& link) {
      r.U64(0x01, link.a);
      r.U64(0x02, link.b);
      r.F64(0x03, link.config.bandwidth_bps);
      r.U64(0x04, link.config.latency);
      r.F64(0x05, link.config.loss_probability);
      r.U32(0x06, link.config.queue_capacity_bytes);
      r.U32(0x07, link.up);
    });
    if constexpr (A::kLoading) {
      if (const char* error = Reindex()) a.Fail(error);
    }
  }

 private:
  // One cached destination row: first_hop[from] is the next hop from `from`
  // toward `to`, kInvalidNode when unreachable (and at `to` itself). Valid
  // iff gen == generation_.
  struct CacheRow {
    NodeId to = kInvalidNode;
    std::uint64_t gen = 0;
    std::uint64_t last_used = 0;
    std::vector<NodeId> first_hop;
  };

  // The next value of the process-wide generation sequence (never 0).
  static std::uint64_t NextGeneration();

  // After a load: checks the node flags and link endpoints, rebuilds
  // incident_ and bumps the generation. On a bad payload it empties the
  // topology again and returns what was wrong.
  const char* Reindex();

  CacheRow& RouteRowFor(NodeId to) const;
  void FillRow(CacheRow& row, NodeId to) const;
  // Brings adj_offset_/adj_ and the sweep scratch up to the current
  // generation.
  void RefreshAdjacency() const;
  // Breadth-first sweep from `start` over the up-adjacency, with hop
  // distances in dist_; returns the number of nodes reached, `start`
  // included.
  template <typename Settle>
  std::size_t Sweep(NodeId start, Settle settle) const;

  std::size_t node_count_ = 0;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> incident_;  // node -> link ids
  std::vector<bool> node_up_;

  std::uint64_t generation_ = 0;
  bool cache_enabled_ = true;
  std::size_t cache_capacity_ = 256;
  // Cache storage is derived, query-time state: mutable so the const query
  // path can maintain it. Copying a Topology copies the cache, which stays
  // valid (generation and structure travel together).
  mutable std::vector<CacheRow> rows_;
  mutable std::vector<std::uint32_t> row_of_;  // to -> index into rows_
  mutable std::uint64_t lru_tick_ = 0;
  mutable RouteCacheStats cache_stats_;
  // Running cache footprint; ChargedBytes keeps the global kRouteCache
  // domain consistent across topology copy/move/destroy.
  mutable telemetry::mem::ChargedBytes<telemetry::mem::Domain::kRouteCache>
      cache_bytes_;
  // CSR up-adjacency and the sweep scratch (see the header comment).
  static constexpr std::uint64_t kNoGeneration = ~std::uint64_t{0};
  static constexpr std::uint32_t kUnreached = ~std::uint32_t{0};
  mutable std::uint64_t adj_gen_ = kNoGeneration;
  mutable std::vector<std::uint32_t> adj_offset_;  // node_count_ + 1
  mutable std::vector<NodeId> adj_;
  mutable std::vector<NodeId> fifo_;  // node_count_ slots; head/tail indices
  mutable std::vector<std::uint32_t> dist_;  // hop distance from the start
};

/// Mirrors a topology's route-cache counters into `stats` as gauges:
/// `<prefix>.hits`, `.misses`, `.invalidations`, `.evictions` and
/// `.hit_ratio` (hits / lookups, 0 when the cache is cold). Gauges are Set,
/// not accumulated, so Publish is idempotent — call it from any telemetry
/// flush point (report time, shard window barrier). The five gauges are
/// looked up by name on the first Publish and written through cached
/// pointers after that (StatsRegistry metrics keep their addresses for the
/// registry's lifetime).
class RouteCacheGauges {
 public:
  RouteCacheGauges(sim::StatsRegistry& stats, std::string_view prefix)
      : stats_(stats), prefix_(prefix) {}

  void Publish(const Topology& topology);

 private:
  sim::StatsRegistry& stats_;
  std::string prefix_;
  sim::Gauge* hits_ = nullptr;
  sim::Gauge* misses_ = nullptr;
  sim::Gauge* invalidations_ = nullptr;
  sim::Gauge* evictions_ = nullptr;
  sim::Gauge* hit_ratio_ = nullptr;
};

// ---- Generators -----------------------------------------------------------

/// N nodes in a chain: 0-1-2-...-(n-1).
Topology MakeLine(std::size_t n, const LinkConfig& config = {});

/// N nodes in a cycle.
Topology MakeRing(std::size_t n, const LinkConfig& config = {});

/// Hub-and-spoke: node 0 is the hub.
Topology MakeStar(std::size_t n, const LinkConfig& config = {});

/// rows × cols mesh with 4-neighborhood.
Topology MakeGrid(std::size_t rows, std::size_t cols,
                  const LinkConfig& config = {});

/// Erdős–Rényi-style random graph with edge probability p, re-drawn (up to a
/// bounded number of attempts) until connected.
Topology MakeRandom(std::size_t n, double p, Rng& rng,
                    const LinkConfig& config = {});

/// Barabási–Albert preferential attachment with m edges per new node.
Topology MakeScaleFree(std::size_t n, std::size_t m, Rng& rng,
                       const LinkConfig& config = {});

/// Geometric radio graph over given positions: link iff distance <= range.
struct Position {
  double x = 0.0;
  double y = 0.0;
};
Topology MakeGeometric(const std::vector<Position>& positions, double range,
                       const LinkConfig& config = {});

/// Euclidean distance helper shared with the mobility model.
double Distance(const Position& a, const Position& b);

}  // namespace viator::net
