// The Wandering Network orchestrator — the top-level public API.
//
// Owns the ships, the code origin store, the principle engines (DCP
// morphing, SRP reputation/clustering, MFP feedback bus, PMP wanderers and
// resonance), the overlay manager and the metamorphosis pulse. Transport is
// delegated to net::Fabric over the caller's Topology; shuttles are routed
// hop-by-hop along shortest paths unless a routing service overrides the
// next-hop choice.
//
// Definition 1 in one type: a closed set of ship productions whose
// composition/decomposition at all functional levels (Pulse()) recursively
// re-constitutes the system and specifies its own extension.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ranges>
#include <vector>

#include "base/archive.h"
#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"
#include "core/dcp.h"
#include "core/knowledge.h"
#include "core/ledger.h"
#include "core/mfp.h"
#include "core/overlay.h"
#include "core/pmp.h"
#include "core/ship.h"
#include "core/shuttle.h"
#include "core/shuttle_pool.h"
#include "core/srp.h"
#include "genesis/section_ids.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "telemetry/latency_plane.h"
#include "telemetry/telemetry.h"
#include "vm/code_repository.h"

namespace viator::wli {

struct WnConfig {
  /// Wandering Network generation (1..4, §B). Gates node capabilities and
  /// which pulse mechanisms run (4G enables self-distribution/replication).
  int generation = 4;

  node::ResourceQuota quota;
  FactStoreConfig fact_config;

  /// Metamorphosis cadence: one pulse = sweep facts, expire functions,
  /// horizontal + vertical wandering, resonance detection.
  sim::Duration pulse_interval = 500 * sim::kMillisecond;

  bool enable_horizontal = true;
  bool enable_vertical = true;
  bool enable_resonance = true;

  HorizontalWanderer::Config horizontal;
  VerticalWanderer::Config vertical;
  ResonanceDetector::Config resonance;
  ReputationConfig reputation;

  /// Shared capsule-authorization key; 0 disables authorization checks.
  std::uint64_t auth_key = 0;

  /// Upper bound the security class clamps jet replication budgets to.
  std::uint32_t jet_budget_cap = 16;

  /// Wandering Observatory switches (both off by default: zero-cost).
  telemetry::TelemetryConfig telemetry;
};

class WanderingNetwork {
 public:
  /// Borrows the simulator and topology (must outlive the network). `seed`
  /// drives every stochastic choice in this network instance.
  WanderingNetwork(sim::Simulator& simulator, net::Topology& topology,
                   const WnConfig& config, std::uint64_t seed);

  WanderingNetwork(const WanderingNetwork&) = delete;
  WanderingNetwork& operator=(const WanderingNetwork&) = delete;

  // ---- Population ----

  /// Creates the ship living on physical node `node`.
  Ship& AddShip(net::NodeId node,
                node::ShipClass ship_class = node::ShipClass::kServer);

  /// Creates one server ship per topology node.
  void PopulateAllNodes();

  /// Non-const access marks the ship's cached digest stale (MixDigest).
  Ship* ship(net::NodeId node) { return Touch(node); }
  const Ship* ship(net::NodeId node) const;
  std::size_t ship_count() const { return ship_count_; }
  /// Iterates ships in node order, marking each one's digest stale.
  void ForEachShip(const std::function<void(Ship&)>& fn);

  // ---- Code distribution ----

  /// Verifies and stores a program at the network origin `origin` (the
  /// publisher node demand-loading requests are sent to).
  Result<Digest> PublishProgram(const vm::Program& program,
                                net::NodeId origin);
  const vm::Program* FindPublished(Digest digest) const;
  net::NodeId OriginOf(Digest digest) const;

  // ---- Transport ----

  /// Injects a shuttle at its header source and routes it to destination.
  Status Inject(Shuttle shuttle);

  /// Routes `shuttle` one hop onward from `at` (used by ships; exposed for
  /// routing services that precomputed the next hop themselves).
  Status Dispatch(net::NodeId at, Shuttle shuttle);

  /// Routing override: services may install a next-hop chooser; return
  /// kInvalidNode to fall back to shortest path, or `at` itself to signal
  /// that the chooser absorbed the shuttle (buffered it for later).
  using NextHopChooser =
      std::function<net::NodeId(net::NodeId at, const Shuttle&)>;
  void SetNextHopChooser(NextHopChooser chooser) {
    next_hop_chooser_ = std::move(chooser);
  }

  /// Health-plane hook: every kProbe shuttle arriving at a ship is handed to
  /// this handler *before* any workload processing (TTL, feedback, counters),
  /// so probes observe ships without perturbing them. Unhandled probes are
  /// dropped and counted.
  using ProbeHandler = std::function<void(Ship& at, Shuttle probe,
                                          net::NodeId arrived_from)>;
  void SetProbeHandler(ProbeHandler handler) {
    probe_handler_ = std::move(handler);
  }
  /// Called by ships on probe arrival (internal plumbing).
  void HandleProbe(Ship& at, Shuttle probe, net::NodeId arrived_from);

  /// Sharding hook: a shuttle that reaches its shard-local destination while
  /// still carrying a transit_destination is a cross-shard capsule at its
  /// exit gateway. It is handed to this handler *instead of* being consumed,
  /// so the sharding layer (src/shard) can carry it over the cross-shard
  /// link into the neighbouring shard's network. Without a handler such
  /// shuttles are dropped and counted (wn.boundary_unhandled) — a plain
  /// single-network run never produces them.
  using BoundaryHandler = std::function<void(Ship& at, Shuttle shuttle,
                                             net::NodeId arrived_from)>;
  void SetBoundaryHandler(BoundaryHandler handler) {
    boundary_handler_ = std::move(handler);
  }
  /// Called by ships when a transit shuttle lands on its gateway (internal
  /// plumbing, same shape as HandleProbe).
  void HandleBoundary(Ship& at, Shuttle shuttle, net::NodeId arrived_from);

  // ---- Function deployment and wandering ----

  /// Installs `function` on `host` and registers its placement. Returns the
  /// (possibly newly assigned) function id.
  FunctionId DeployFunction(net::NodeId host, NetFunction function);

  const std::map<FunctionId, net::NodeId>& placements() const {
    return placements_;
  }

  /// Called by ships when a migrated function finishes installing.
  void NotifyFunctionInstalled(net::NodeId host, const NetFunction& function);

  /// Moves one function to a new host by shipping its code and genome as a
  /// real code shuttle (it pays transfer bytes and latency; placement is
  /// updated when the shuttle lands). Used by the horizontal wanderer and
  /// by nomadic services (Delegation).
  Status MigrateFunction(FunctionId function, net::NodeId to);

  /// One metamorphosis cycle (also runs on the periodic pulse timer).
  void Pulse();

  /// Starts the periodic pulse until `until`.
  void StartPulse(sim::TimePoint until);

  /// Mixes the decision state — every field VisitState lists — into a
  /// rolling state digest (flight-recorder window hashes, shard hashes).
  /// The simulator clock, stats, trace and telemetry stay out, so runs that
  /// differ only in observation probes stay comparable. Allocates nothing.
  ///
  /// Memoized: the ships section mixes the ordered list of per-ship
  /// digests and re-walks only the ships touched since the last hash (every
  /// non-const route to a ship marks it); clusters and demand mix the
  /// running multiset digests their owners keep; the topology section is
  /// cached against Topology::generation(). The caches only memoize: the
  /// result is a pure function of the decision state and always equals
  /// MixDigestUncached. Like the rest of the network, the caches are
  /// written only by the thread that runs it.
  void MixDigest(Hasher& hasher) const;

  /// The same digest walked in full, bypassing and leaving every cache:
  /// the oracle MixDigest is tested against.
  void MixDigestUncached(Hasher& hasher) const;

  /// The decision state as genesis snapshot sections, in capture order:
  /// `a.Part(section, fields)` hands each section's field list
  /// (base/archive.h) to `a`. Genesis encodes and decodes these sections;
  /// MixDigest hashes them. Runtime closures (role handlers, sinks, next-hop
  /// choosers) are not state: the services layer re-installs them.
  template <class A>
  void VisitState(A& a);

  // ---- Figure-1 metrics ----

  /// Shannon entropy (bits) of the ship-role distribution.
  double RoleDiversity() const;
  std::map<node::FirstLevelRole, std::size_t> RoleCensus() const;

  std::uint64_t migrations_executed() const { return migrations_executed_; }
  std::uint64_t functions_emerged() const { return functions_emerged_; }
  std::uint64_t pulses() const { return pulses_; }

  // ---- Infrastructure access ----

  sim::Simulator& simulator() { return simulator_; }
  net::Topology& topology() { return topology_; }
  net::Fabric& fabric() { return fabric_; }
  sim::StatsRegistry& stats() { return stats_; }
  sim::TraceSink& trace() { return trace_; }
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }
  MorphingEngine& morphing() { return morphing_; }
  FeedbackBus& feedback() { return feedback_; }
  ReputationSystem& reputation() { return reputation_; }
  ClusterManager& clusters() { return clusters_; }
  OverlayManager& overlays() { return overlays_; }
  DemandTracker& demand() { return demand_; }
  FunctionUsageLedger& ledger() { return ledger_; }
  const FunctionUsageLedger& ledger() const { return ledger_; }
  const WnConfig& config() const { return config_; }
  /// Free-list of shuttle shells: ships release consumed shuttles here and
  /// hot senders acquire from it, recycling section-buffer capacity.
  ShuttlePool& shuttle_pool() { return shuttle_pool_; }
  const ShuttlePool& shuttle_pool() const { return shuttle_pool_; }
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }
  /// Latency-plane state for this network: lifecycle sketches and the
  /// in-flight side table (telemetry/latency_plane.h). Single-writer: only
  /// the thread currently running this network (shard worker in a window,
  /// barrier thread between windows) may touch it.
  telemetry::lat::Lane& lat_lane() { return lat_lane_; }
  const telemetry::lat::Lane& lat_lane() const { return lat_lane_; }
  FunctionId NextFunctionId() { return next_function_id_++; }
  FunctionId next_function_id() const { return next_function_id_; }

  // ---- Genesis (whole-network snapshot/restore) support ----

  vm::CodeRepository& repository() { return repository_; }
  const vm::CodeRepository& repository() const { return repository_; }

 private:
  template <class A>
  void VisitShips(A& a);

  // The one non-const route to a ship: marks its cached digest stale and
  // returns it (null when there is none).
  Ship* Touch(net::NodeId node) {
    if (node >= ships_.size() || !ships_[node]) return nullptr;
    ship_digests_[node].Invalidate();
    return ships_[node].get();
  }

  void ExecuteMigrations();
  net::NodeId FirstShipNode() const;

  sim::Simulator& simulator_;
  net::Topology& topology_;
  WnConfig config_;
  Rng rng_;
  sim::StatsRegistry stats_;
  sim::TraceSink trace_;
  telemetry::Telemetry telemetry_;
  telemetry::lat::Lane lat_lane_;
  net::Fabric fabric_;
  // Per-dispatch counters resolved once — Dispatch() is the hottest path in
  // the system and registry name lookups would tax every shuttle hop.
  sim::Counter& shuttles_injected_;
  sim::Counter& excluded_dropped_;
  sim::Counter& router_absorbed_;
  sim::Counter& unroutable_;

  std::vector<std::unique_ptr<Ship>> ships_;  // indexed by NodeId
  std::size_t ship_count_ = 0;
  // MixDigest's memos: one digest per ship (indexed by NodeId, stamp 0 when
  // current) and the topology section's (stamped with its generation).
  std::vector<DigestMemo> ship_digests_;
  DigestMemo topology_digest_;
  ShuttlePool shuttle_pool_;

  vm::CodeRepository repository_;
  std::map<Digest, net::NodeId> origins_;

  MorphingEngine morphing_;
  FeedbackBus feedback_;
  ReputationSystem reputation_;
  ClusterManager clusters_;
  OverlayManager overlays_;
  DemandTracker demand_;
  FunctionUsageLedger ledger_;
  HorizontalWanderer horizontal_;
  VerticalWanderer vertical_;
  ResonanceDetector resonance_;

  std::map<FunctionId, net::NodeId> placements_;
  std::map<FunctionId, node::FirstLevelRole> placement_roles_;
  std::map<node::SecondLevelClass, OverlayId> class_overlays_;

  NextHopChooser next_hop_chooser_;
  ProbeHandler probe_handler_;
  BoundaryHandler boundary_handler_;

  FunctionId next_function_id_ = 1;
  std::uint64_t migrations_executed_ = 0;
  std::uint64_t functions_emerged_ = 0;
  std::uint64_t pulses_ = 0;
};

template <class A>
void WanderingNetwork::VisitState(A& a) {
  using namespace genesis;  // section ids
  a.Part(kSectionTopology, [this](auto& s) {
    s.Memo(topology_digest_, topology_.generation(),
           [this](auto& r) { topology_.Visit(r); });
  });
  a.Part(kSectionRepository, [this](auto& s) {
    repository_.Visit(s);
    s.Each(0x02, origins_, [](auto& r, auto& origin) {
      r.U64(0x01, origin.first);
      r.U64(0x02, origin.second);
    });
  });
  a.Part(kSectionShips, [this](auto& s) { VisitShips(s); });
  // A placement's role lives in placement_roles_ (kCaching when unset).
  a.Part(kSectionPlacements, [this](auto& s) {
    s.Each(0x01, placements_, [this](auto& r, auto& placement) {
      r.U64(0x01, placement.first);
      r.U64(0x02, placement.second);
      const auto role_it = placement_roles_.find(placement.first);
      node::FirstLevelRole role = role_it != placement_roles_.end()
                                      ? role_it->second
                                      : node::FirstLevelRole::kCaching;
      r.Enum(0x03, role,
             static_cast<std::uint32_t>(node::FirstLevelRole::kRoleCount),
             "first-level role out of range");
      if constexpr (kLoadingArchive<decltype(r)>) {
        placement_roles_[placement.first] = role;
      }
    });
  });
  a.Part(kSectionLedger, [this](auto& s) { ledger_.Visit(s); });
  a.Part(kSectionReputation, [this](auto& s) { reputation_.Visit(s); });
  a.Part(kSectionClusters, [this](auto& s) { clusters_.Visit(s); });
  a.Part(kSectionDemand, [this](auto& s) { demand_.Visit(s); });
  a.Part(kSectionOverlays, [this](auto& s) {
    overlays_.Visit(s);
    s.Each(0x04, class_overlays_, [](auto& r, auto& entry) {
      r.Enum(0x01, entry.first,
             static_cast<std::uint32_t>(node::SecondLevelClass::kClassCount),
             "second-level class out of range");
      r.U32(0x02, entry.second);
    });
  });
  a.Part(kSectionMorphing, [this](auto& s) { morphing_.Visit(s); });
  a.Part(kSectionFeedback, [this](auto& s) { feedback_.Visit(s); });
  a.Part(kSectionNetworkCounters, [this](auto& s) {
    s.U64(0x01, migrations_executed_);
    s.U64(0x02, functions_emerged_);
    s.U64(0x03, pulses_);
    s.U64(0x04, next_function_id_);
  });
  a.Part(kSectionNetworkRng, [this](auto& s) { rng_.Visit(s); });
  a.Part(kSectionFabric, [this](auto& s) { fabric_.Visit(s); });
}

// One record per ship in node order. Loading needs a network without ships
// and reads each record's identity first, since AddShip() must construct
// the ship (forking the network RNG, installing its fabric handler) before
// its fields can be read into it.
template <class A>
void WanderingNetwork::VisitShips(A& a) {
  if constexpr (A::kLoading) {
    if (ship_count_ != 0) {
      return a.Fail(
          FailedPrecondition("ship restore requires a network with no ships"));
    }
    a.ForRecords(0x01, [this](auto& r) {
      net::NodeId node = net::kInvalidNode;
      node::ShipClass ship_class = node::ShipClass::kServer;
      r.U64(0x01, node);
      r.Enum(0x02, ship_class, Ship::kShipClassEnd, "ship class out of range");
      if (node == net::kInvalidNode) r.Fail("ship record missing node");
      if (r.ok()) AddShip(node, ship_class).Visit(r);
    });
  } else {
    auto live = [](const auto& ship) { return ship != nullptr; };
    a.Each(0x01, ships_ | std::views::filter(live),
           [this](auto& r, auto& ship) {
             r.Memo(ship_digests_[ship->id()], 0,
                    [&](auto& f) { ship->Visit(f); });
           });
  }
}

}  // namespace viator::wli
