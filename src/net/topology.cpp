#include "net/topology.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <deque>
#include <queue>

#include "sim/stats.h"
#include "telemetry/perf_counters.h"

namespace viator::net {

std::uint64_t Topology::NextGeneration() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

NodeId Topology::AddNodes(std::size_t count) {
  const NodeId first = static_cast<NodeId>(node_count_);
  node_count_ += count;
  incident_.resize(node_count_);
  node_up_.resize(node_count_, true);
  if (count != 0) generation_ = NextGeneration();
  return first;
}

LinkId Topology::AddLink(NodeId a, NodeId b, const LinkConfig& config) {
  assert(a < node_count_ && b < node_count_ && a != b);
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, config, true});
  incident_[a].push_back(id);
  incident_[b].push_back(id);
  generation_ = NextGeneration();
  return id;
}

void Topology::SetNodeUp(NodeId node, bool up) {
  if (node_up_[node] != up) {
    node_up_[node] = up;
    generation_ = NextGeneration();
  }
}

std::optional<LinkId> Topology::FindLink(NodeId a, NodeId b) const {
  if (!node_up_[a] || !node_up_[b]) return std::nullopt;
  for (LinkId id : incident_[a]) {
    const Link& l = links_[id];
    if (!l.up) continue;
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return id;
  }
  return std::nullopt;
}

std::vector<NodeId> Topology::Neighbors(NodeId node) const {
  std::vector<NodeId> out;
  Neighbors(node, out);
  return out;
}

void Topology::Neighbors(NodeId node, std::vector<NodeId>& out) const {
  out.clear();
  if (!node_up_[node]) return;
  for (LinkId id : incident_[node]) {
    const Link& l = links_[id];
    if (!l.up) continue;
    const NodeId other = l.a == node ? l.b : l.a;
    if (node_up_[other]) out.push_back(other);
  }
}

std::vector<LinkId> Topology::IncidentLinks(NodeId node) const {
  return incident_[node];
}

std::vector<NodeId> Topology::ShortestPath(NodeId a, NodeId b) const {
  if (a >= node_count_ || b >= node_count_) return {};
  if (!node_up_[a] || !node_up_[b]) return {};
  if (a == b) return {a};
  std::vector<NodeId> parent(node_count_, kInvalidNode);
  std::deque<NodeId> frontier{a};
  parent[a] = a;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : Neighbors(u)) {
      if (parent[v] != kInvalidNode) continue;
      parent[v] = u;
      if (v == b) {
        std::vector<NodeId> path{b};
        for (NodeId at = b; at != a;) {
          at = parent[at];
          path.push_back(at);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(v);
    }
  }
  return {};
}

std::vector<NodeId> Topology::FastestPath(NodeId a, NodeId b) const {
  if (a >= node_count_ || b >= node_count_) return {};
  if (!node_up_[a] || !node_up_[b]) return {};
  if (a == b) return {a};
  constexpr double kInf = 1e300;
  std::vector<double> dist(node_count_, kInf);
  std::vector<NodeId> parent(node_count_, kInvalidNode);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[a] = 0.0;
  pq.push({0.0, a});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == b) break;
    for (LinkId id : incident_[u]) {
      const Link& l = links_[id];
      if (!l.up) continue;
      const NodeId v = l.a == u ? l.b : l.a;
      if (!node_up_[v]) continue;
      const double nd = d + static_cast<double>(l.config.latency);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        pq.push({nd, v});
      }
    }
  }
  if (parent[b] == kInvalidNode) return {};
  std::vector<NodeId> path{b};
  for (NodeId at = b; at != a;) {
    at = parent[at];
    path.push_back(at);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

NodeId Topology::NextHop(NodeId from, NodeId to) const {
  if (!cache_enabled_) return NextHopUncached(from, to);
  // Guards mirror ShortestPath exactly so cached and uncached answers agree
  // on every degenerate input.
  if (from >= node_count_ || to >= node_count_) return kInvalidNode;
  if (!node_up_[from] || !node_up_[to]) return kInvalidNode;
  if (from == to) return kInvalidNode;
  CacheRow& row = RouteRowFor(to);
  row.last_used = ++lru_tick_;
  return row.first_hop[from];
}

void Topology::SetRouteCacheCapacity(std::size_t rows) {
  cache_capacity_ = rows == 0 ? 1 : rows;
  // Shed excess rows now; which ones go is irrelevant to correctness, so
  // drop from the back (deterministic).
  while (rows_.size() > cache_capacity_) {
    const CacheRow& victim = rows_.back();
    if (victim.to < row_of_.size()) {
      row_of_[victim.to] = kInvalidNode;
    }
    ++cache_stats_.evictions;
    cache_bytes_.Sub(victim.first_hop.capacity() * sizeof(NodeId));
    rows_.pop_back();
  }
}

Topology::CacheRow& Topology::RouteRowFor(NodeId to) const {
  if (row_of_.size() < node_count_) {
    const std::size_t before = row_of_.capacity();
    row_of_.resize(node_count_, kInvalidNode);
    if (row_of_.capacity() != before) {
      cache_bytes_.Add((row_of_.capacity() - before) * sizeof(std::uint32_t));
    }
  }
  const std::uint32_t idx = row_of_[to];
  if (idx != kInvalidNode && rows_[idx].to == to) {
    CacheRow& row = rows_[idx];
    if (row.gen == generation_) {
      ++cache_stats_.hits;
      VIATOR_PERF_COUNT(kRouteCacheHit);
      return row;
    }
    // Stale: refill in place.
    ++cache_stats_.invalidations;
    ++cache_stats_.misses;
    VIATOR_PERF_COUNT(kRouteCacheMiss);
    FillRow(row, to);
    return row;
  }
  ++cache_stats_.misses;
  VIATOR_PERF_COUNT(kRouteCacheMiss);
  if (rows_.size() < cache_capacity_) {
    const std::size_t before = rows_.capacity();
    rows_.emplace_back();
    if (rows_.capacity() != before) {
      cache_bytes_.Add((rows_.capacity() - before) * sizeof(CacheRow));
    }
    row_of_[to] = static_cast<std::uint32_t>(rows_.size() - 1);
    CacheRow& row = rows_.back();
    FillRow(row, to);
    return row;
  }
  // LRU eviction: reuse the least recently used row's storage.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (rows_[i].last_used < rows_[victim].last_used) victim = i;
  }
  CacheRow& row = rows_[victim];
  if (row.to < row_of_.size() && row_of_[row.to] == victim) {
    row_of_[row.to] = kInvalidNode;
  }
  ++cache_stats_.evictions;
  row_of_[to] = static_cast<std::uint32_t>(victim);
  FillRow(row, to);
  return row;
}

void Topology::RefreshAdjacency() const {
  if (adj_gen_ == generation_) return;
  adj_gen_ = generation_;
  const auto bytes = [this] {
    return (adj_offset_.capacity() + adj_.capacity() + fifo_.capacity() +
            dist_.capacity()) *
           sizeof(std::uint32_t);
  };
  const std::size_t before = bytes();
  // clear() + push_back and resize() keep capacity, so once the arrays have
  // seen their largest size a rebuild allocates nothing.
  adj_offset_.resize(node_count_ + 1);
  adj_.clear();
  for (NodeId n = 0; n < node_count_; ++n) {
    adj_offset_[n] = static_cast<std::uint32_t>(adj_.size());
    if (!node_up_[n]) continue;
    for (LinkId id : incident_[n]) {
      const Link& l = links_[id];
      if (!l.up) continue;
      const NodeId other = l.a == n ? l.b : l.a;
      if (node_up_[other]) adj_.push_back(other);
    }
  }
  adj_offset_[node_count_] = static_cast<std::uint32_t>(adj_.size());
  fifo_.resize(node_count_);
  dist_.resize(node_count_);
  // resize() and clear() never shrink capacity, so the charge only grows.
  const std::size_t after = bytes();
  if (after > before) cache_bytes_.Add(after - before);
}

// `settle(u, closer)` runs once per reached node u, in BFS order, with the
// first neighbour in u's adjacency one hop closer to `start` (kInvalidNode
// for `start` itself). When u is expanded, every node closer to `start`
// than u has been reached, so that neighbour is known. Each node is queued
// at most once, so node_count_ FIFO slots suffice.
template <typename Settle>
std::size_t Topology::Sweep(NodeId start, Settle settle) const {
  RefreshAdjacency();
  NodeId* const fifo = fifo_.data();
  std::uint32_t* const dist = dist_.data();
  const std::uint32_t* const offset = adj_offset_.data();
  const NodeId* const adj = adj_.data();
  std::fill(dist, dist + node_count_, kUnreached);
  std::size_t head = 0;
  std::size_t tail = 0;
  dist[start] = 0;
  fifo[tail++] = start;
  while (head < tail) {
    const NodeId u = fifo[head++];
    // Bounds are read once: the distances written below are uint32_t too,
    // so the compiler could not otherwise keep them in registers.
    const std::uint32_t here = dist[u];
    const std::uint32_t end = offset[u + 1];
    NodeId closer = kInvalidNode;
    for (std::uint32_t i = offset[u]; i < end; ++i) {
      const NodeId v = adj[i];
      if (dist[v] == kUnreached) {
        dist[v] = here + 1;
        fifo[tail++] = v;
      }
      // Which neighbours are closer is data-dependent, so select rather
      // than branch. A neighbour just reached is one hop farther, never
      // closer, and links never join a node to itself.
      closer = closer == kInvalidNode && dist[v] + 1 == here ? v : closer;
    }
    settle(u, closer);
  }
  return tail;
}

void Topology::FillRow(Topology::CacheRow& row, NodeId to) const {
  VIATOR_PERF_SCOPE(kRouteCacheFill);
  row.to = to;
  row.gen = generation_;
  const std::size_t before = row.first_hop.capacity();
  row.first_hop.assign(node_count_, kInvalidNode);
  if (row.first_hop.capacity() != before) {
    cache_bytes_.Add((row.first_hop.capacity() - before) * sizeof(NodeId));
  }
  // One sweep from `to`; by the header comment's lemma, the first neighbour
  // one hop closer to `to` in u's adjacency is u's next hop toward `to`.
  NodeId* const hop = row.first_hop.data();
  Sweep(to, [hop](NodeId u, NodeId closer) { hop[u] = closer; });
}

bool Topology::IsConnected() const {
  if (node_count_ == 0) return true;
  NodeId start = kInvalidNode;
  std::size_t up_nodes = 0;
  for (NodeId n = 0; n < node_count_; ++n) {
    if (node_up_[n]) {
      ++up_nodes;
      if (start == kInvalidNode) start = n;
    }
  }
  if (up_nodes <= 1) return true;
  return Sweep(start, [](NodeId, NodeId) {}) == up_nodes;
}

Topology Topology::InducedSubgraph(const std::vector<NodeId>& members) const {
  Topology sub;
  if (members.empty()) return sub;
  sub.AddNodes(members.size());
  std::vector<NodeId> local_of(node_count_, kInvalidNode);
  for (std::size_t i = 0; i < members.size(); ++i) {
    local_of[members[i]] = static_cast<NodeId>(i);
    if (!node_up_[members[i]]) sub.SetNodeUp(static_cast<NodeId>(i), false);
  }
  for (const Link& l : links_) {
    const NodeId la = local_of[l.a];
    const NodeId lb = local_of[l.b];
    if (la == kInvalidNode || lb == kInvalidNode) continue;
    const LinkId id = sub.AddLink(la, lb, l.config);
    if (!l.up) sub.SetLinkUp(id, false);
  }
  return sub;
}

const char* Topology::Reindex() {
  const char* error = node_up_.size() != node_count_
                          ? "topology node flag count mismatch"
                          : nullptr;
  for (const Link& l : links_) {
    if (error == nullptr &&
        (l.a >= node_count_ || l.b >= node_count_ || l.a == l.b)) {
      error = "topology link endpoint out of range";
    }
  }
  if (error != nullptr) {
    node_count_ = 0;
    node_up_.clear();
    links_.clear();
    return error;
  }
  incident_.assign(node_count_, {});
  for (LinkId id = 0; id < links_.size(); ++id) {
    incident_[links_[id].a].push_back(id);
    incident_[links_[id].b].push_back(id);
  }
  generation_ = NextGeneration();
  return nullptr;
}

// ---- Generators -----------------------------------------------------------

void RouteCacheGauges::Publish(const Topology& topology) {
  if (hits_ == nullptr) {
    std::string name = prefix_;
    const auto gauge = [&](std::string_view leaf) {
      name.resize(prefix_.size());
      name += '.';
      name += leaf;
      return &stats_.GetGauge(name);
    };
    hits_ = gauge("hits");
    misses_ = gauge("misses");
    invalidations_ = gauge("invalidations");
    evictions_ = gauge("evictions");
    hit_ratio_ = gauge("hit_ratio");
  }
  const Topology::RouteCacheStats& cache = topology.route_cache_stats();
  hits_->Set(static_cast<double>(cache.hits));
  misses_->Set(static_cast<double>(cache.misses));
  invalidations_->Set(static_cast<double>(cache.invalidations));
  evictions_->Set(static_cast<double>(cache.evictions));
  const std::uint64_t lookups = cache.hits + cache.misses;
  hit_ratio_->Set(lookups == 0 ? 0.0
                               : static_cast<double>(cache.hits) /
                                     static_cast<double>(lookups));
}

Topology MakeLine(std::size_t n, const LinkConfig& config) {
  Topology t;
  t.AddNodes(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), config);
  }
  return t;
}

Topology MakeRing(std::size_t n, const LinkConfig& config) {
  Topology t = MakeLine(n, config);
  if (n >= 3) t.AddLink(static_cast<NodeId>(n - 1), 0, config);
  return t;
}

Topology MakeStar(std::size_t n, const LinkConfig& config) {
  Topology t;
  t.AddNodes(n);
  for (std::size_t i = 1; i < n; ++i) {
    t.AddLink(0, static_cast<NodeId>(i), config);
  }
  return t;
}

Topology MakeGrid(std::size_t rows, std::size_t cols,
                  const LinkConfig& config) {
  Topology t;
  t.AddNodes(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.AddLink(id(r, c), id(r, c + 1), config);
      if (r + 1 < rows) t.AddLink(id(r, c), id(r + 1, c), config);
    }
  }
  return t;
}

Topology MakeRandom(std::size_t n, double p, Rng& rng,
                    const LinkConfig& config) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Topology t;
    t.AddNodes(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(p)) {
          t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j), config);
        }
      }
    }
    if (t.IsConnected()) return t;
  }
  // Fall back to a connected backbone plus random chords.
  Topology t = MakeLine(n, config);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      if (rng.Bernoulli(p)) {
        t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j), config);
      }
    }
  }
  return t;
}

Topology MakeScaleFree(std::size_t n, std::size_t m, Rng& rng,
                       const LinkConfig& config) {
  assert(n >= 2 && m >= 1);
  Topology t;
  t.AddNodes(n);
  // Endpoint list doubles as the preferential-attachment distribution.
  std::vector<NodeId> endpoints;
  t.AddLink(0, 1, config);
  endpoints.push_back(0);
  endpoints.push_back(1);
  for (std::size_t v = 2; v < n; ++v) {
    const std::size_t degree_edges = std::min(m, v);
    std::vector<NodeId> chosen;
    while (chosen.size() < degree_edges) {
      const NodeId u = endpoints[rng.Index(endpoints.size())];
      if (u == v) continue;
      if (std::find(chosen.begin(), chosen.end(), u) != chosen.end()) continue;
      chosen.push_back(u);
    }
    for (NodeId u : chosen) {
      t.AddLink(static_cast<NodeId>(v), u, config);
      endpoints.push_back(static_cast<NodeId>(v));
      endpoints.push_back(u);
    }
  }
  return t;
}

double Distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Topology MakeGeometric(const std::vector<Position>& positions, double range,
                       const LinkConfig& config) {
  Topology t;
  t.AddNodes(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      if (Distance(positions[i], positions[j]) <= range) {
        t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j), config);
      }
    }
  }
  return t;
}

}  // namespace viator::net
