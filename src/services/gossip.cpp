#include "services/gossip.h"

namespace viator::services {

GossipService::GossipService(wli::WanderingNetwork& network,
                             const Config& config, Rng rng)
    : network_(network), config_(config), rng_(rng) {
  kq_.function.id = 0;  // pure fact carriage, no function installation
  kq_.function.name = "gossip";
}

void GossipService::RunRound() {
  ++rounds_;
  network_.ForEachShip([this](wli::Ship& ship) {
    ship.facts().TopByWeight(config_.facts_per_round, strongest_);
    if (strongest_.empty()) return;
    kq_.facts.clear();
    for (const auto& fact : strongest_) {
      kq_.facts.push_back({fact.key, fact.value, fact.weight});
    }
    wli::EncodeKnowledgeQuantum(kq_, genome_);

    network_.topology().Neighbors(ship.id(), neighbors_);
    for (std::size_t pick = 0;
         pick < config_.fanout && !neighbors_.empty(); ++pick) {
      const std::size_t index = rng_.Index(neighbors_.size());
      const net::NodeId peer = neighbors_[index];
      neighbors_.erase(neighbors_.begin() + index);  // without replacement
      // A pooled shell: the encoding lands in its retained genome buffer.
      wli::Shuttle s = network_.shuttle_pool().Acquire();
      s.header.source = ship.id();
      s.header.destination = peer;
      s.header.kind = wli::ShuttleKind::kKnowledge;
      s.genome.assign(genome_.begin(), genome_.end());
      ++shuttles_sent_;
      (void)ship.SendShuttle(std::move(s));
    }
  });
}

void GossipService::Start(sim::TimePoint until) {
  network_.simulator().ScheduleAfter(config_.interval, [this, until] {
    RunRound();
    if (network_.simulator().now() + config_.interval <= until) {
      Start(until);
    }
  });
}

double GossipService::Coverage(wli::FactKey key) const {
  std::size_t holders = 0;
  std::size_t population = 0;
  const_cast<wli::WanderingNetwork&>(network_).ForEachShip(
      [&](wli::Ship& ship) {
        ++population;
        holders += ship.facts().Find(key) != nullptr;
      });
  return population == 0
             ? 0.0
             : static_cast<double>(holders) / static_cast<double>(population);
}

}  // namespace viator::services
