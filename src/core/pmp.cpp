#include "core/pmp.h"

#include <algorithm>
#include <bit>

namespace viator::wli {

void DemandTracker::Record(net::NodeId node, node::FirstLevelRole role,
                           double amount) {
  auto [it, inserted] = demand_.try_emplace(Key{node, role}, 0.0);
  if (!inserted) demand_digest_.Remove(kEntryFields, *it);
  it->second += amount;
  demand_digest_.Add(kEntryFields, *it);
}

void DemandTracker::Decay() {
  for (auto it = demand_.begin(); it != demand_.end();) {
    it->second *= decay_;
    if (it->second < 1e-6) {
      it = demand_.erase(it);
    } else {
      ++it;
    }
  }
  demand_digest_.Invalidate();
}

double DemandTracker::DemandAt(net::NodeId node,
                               node::FirstLevelRole role) const {
  const auto it = demand_.find({node, role});
  return it == demand_.end() ? 0.0 : it->second;
}

net::NodeId DemandTracker::HottestNode(node::FirstLevelRole role) const {
  net::NodeId best = net::kInvalidNode;
  double best_demand = 0.0;
  for (const auto& [key, value] : demand_) {
    if (key.second != role) continue;
    if (best == net::kInvalidNode || value > best_demand) {
      best = key.first;
      best_demand = value;
    }
  }
  return best;
}

double DemandTracker::TotalDemand(node::FirstLevelRole role) const {
  double total = 0.0;
  for (const auto& [key, value] : demand_) {
    if (key.second == role) total += value;
  }
  return total;
}

std::vector<HorizontalWanderer::Migration> HorizontalWanderer::Decide(
    const std::map<FunctionId, net::NodeId>& placement,
    const std::map<FunctionId, node::FirstLevelRole>& roles,
    const DemandTracker& demand) const {
  std::vector<Migration> out;
  for (const auto& [fn, host] : placement) {
    const auto role_it = roles.find(fn);
    if (role_it == roles.end()) continue;
    const node::FirstLevelRole role = role_it->second;
    const net::NodeId hotspot = demand.HottestNode(role);
    if (hotspot == net::kInvalidNode || hotspot == host) continue;
    const double at_hotspot = demand.DemandAt(hotspot, role);
    const double at_host = demand.DemandAt(host, role);
    if (at_hotspot < config_.min_demand) continue;
    if (at_hotspot > std::max(at_host, 1e-9) * config_.hysteresis) {
      out.push_back(Migration{fn, host, hotspot});
    }
  }
  return out;
}

std::vector<VerticalWanderer::SpawnDecision> VerticalWanderer::Decide(
    const std::map<net::NodeId, std::map<node::SecondLevelClass, double>>&
        activity) const {
  // Aggregate per class; members are the nodes whose per-class activity is
  // a meaningful share of the total.
  std::map<node::SecondLevelClass, double> totals;
  for (const auto& [node, classes] : activity) {
    for (const auto& [cls, amount] : classes) totals[cls] += amount;
  }
  std::vector<SpawnDecision> out;
  for (const auto& [cls, total] : totals) {
    if (total < config_.spawn_threshold) continue;
    SpawnDecision decision;
    decision.cls = cls;
    for (const auto& [node, classes] : activity) {
      const auto it = classes.find(cls);
      if (it != classes.end() && it->second > 0.0) {
        decision.members.push_back(node);
      }
    }
    if (decision.members.size() >= config_.min_members) {
      std::sort(decision.members.begin(), decision.members.end());
      out.push_back(std::move(decision));
    }
  }
  return out;
}

void ResonanceDetector::Observe(net::NodeId ship, FactKey key) {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) keys_.insert(it, key);
  observed_.emplace_back(key, Column(ship));
}

std::uint32_t ResonanceDetector::Column(net::NodeId ship) {
  if (ship >= columns_.size()) columns_.resize(ship + std::size_t{1}, kNone);
  if (columns_[ship] == kNone) {
    columns_[ship] = static_cast<std::uint32_t>(ships_.size());
    ships_.push_back(ship);
  }
  return columns_[ship];
}

std::uint32_t ResonanceDetector::Find(std::uint32_t rank) {
  while (parent_[rank] != rank) {
    parent_[rank] = parent_[parent_[rank]];  // path halving
    rank = parent_[rank];
  }
  return rank;
}

std::vector<std::vector<FactKey>> ResonanceDetector::DetectAndReset() {
  const std::size_t keys = keys_.size();
  const std::size_t words = (ships_.size() + 63) / 64;
  bits_.assign(keys * words, 0);
  for (const auto& [key, column] : observed_) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
    bits_[rank * words + column / 64] |= std::uint64_t{1} << (column % 64);
  }
  counts_.assign(keys, 0);
  for (std::size_t rank = 0; rank < keys; ++rank) {
    for (std::size_t w = 0; w < words; ++w) {
      counts_[rank] += std::popcount(bits_[rank * words + w]);
    }
  }

  // Pairwise resonance in ascending key order; every resonant pair is
  // merged at once (union-find over key ranks).
  parent_.assign(keys, kNone);
  for (std::size_t a = 0; a < keys; ++a) {
    const std::uint64_t* row_a = &bits_[a * words];
    for (std::size_t b = a + 1; b < keys; ++b) {
      const std::uint64_t* row_b = &bits_[b * words];
      std::size_t both = 0;
      for (std::size_t w = 0; w < words; ++w) {
        both += std::popcount(row_a[w] & row_b[w]);
      }
      const std::size_t either = counts_[a] + counts_[b] - both;
      if (both >= config_.min_support && either > 0 &&
          static_cast<double>(both) / static_cast<double>(either) >=
              config_.min_jaccard) {
        for (const std::size_t key : {a, b}) {
          if (parent_[key] == kNone) {
            parent_[key] = static_cast<std::uint32_t>(key);
          }
        }
        const std::uint32_t ra = Find(static_cast<std::uint32_t>(a));
        const std::uint32_t rb = Find(static_cast<std::uint32_t>(b));
        if (ra != rb) parent_[ra] = rb;
      }
    }
  }

  // Groups: a group's first member in ascending key order is its smallest,
  // so emitting members in that order yields sorted groups in sorted order.
  members_.assign(keys, 0);
  slot_.assign(keys, kNone);
  std::size_t groups = 0;
  for (std::uint32_t rank = 0; rank < keys; ++rank) {
    if (parent_[rank] == kNone) continue;
    if (members_[Find(rank)]++ == 0) ++groups;
  }
  std::vector<std::vector<FactKey>> out;
  out.reserve(groups);
  for (std::uint32_t rank = 0; rank < keys; ++rank) {
    if (parent_[rank] == kNone) continue;
    const std::uint32_t root = Find(rank);
    if (slot_[root] == kNone) {
      slot_[root] = static_cast<std::uint32_t>(out.size());
      out.emplace_back().reserve(members_[root]);
    }
    out[slot_[root]].push_back(keys_[rank]);
  }

  for (const net::NodeId ship : ships_) columns_[ship] = kNone;
  ships_.clear();
  keys_.clear();
  observed_.clear();
  return out;
}

}  // namespace viator::wli
