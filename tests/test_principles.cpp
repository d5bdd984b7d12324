// Tests for the four WLI principle engines (DCP, SRP, MFP, PMP policies)
// and the overlay manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "base/rng.h"

#include "core/dcp.h"
#include "core/mfp.h"
#include "core/overlay.h"
#include "core/pmp.h"
#include "core/srp.h"
#include "net/topology.h"

namespace viator::wli {
namespace {

// ---- DCP ----

TEST(Dcp, DefaultInterfaceAlwaysMatches) {
  MorphingEngine engine;
  Shuttle s;
  const auto outcome = engine.MorphForDock(s);
  EXPECT_TRUE(outcome.success);
  EXPECT_TRUE(outcome.already_matched);
  EXPECT_EQ(outcome.overhead_bytes, 0u);
}

TEST(Dcp, MorphRewritesInterface) {
  MorphingEngine engine;
  engine.SetRequiredInterface(node::ShipClass::kServer, 5);
  engine.AddAdapter(0, 5, 16, sim::kMicrosecond);
  Shuttle s;
  s.header.dest_class_hint = node::ShipClass::kServer;
  const auto outcome = engine.MorphForDock(s);
  EXPECT_TRUE(outcome.success);
  EXPECT_FALSE(outcome.already_matched);
  EXPECT_EQ(outcome.overhead_bytes, 16u);
  EXPECT_EQ(s.header.interface_id, 5u);
}

TEST(Dcp, MissingAdapterFailsDock) {
  MorphingEngine engine;
  engine.SetRequiredInterface(node::ShipClass::kAgent, 9);
  Shuttle s;
  s.header.dest_class_hint = node::ShipClass::kAgent;
  EXPECT_FALSE(engine.MorphForDock(s).success);
  EXPECT_EQ(engine.morphs_failed(), 1u);
  EXPECT_EQ(s.header.interface_id, 0u);  // unchanged on failure
}

TEST(Dcp, PerClassRequirements) {
  MorphingEngine engine;
  engine.SetRequiredInterface(node::ShipClass::kServer, 1);
  engine.SetRequiredInterface(node::ShipClass::kClient, 2);
  EXPECT_EQ(engine.RequiredInterface(node::ShipClass::kServer), 1u);
  EXPECT_EQ(engine.RequiredInterface(node::ShipClass::kClient), 2u);
  EXPECT_EQ(engine.RequiredInterface(node::ShipClass::kAgent), 0u);
}

TEST(Dcp, CongruenceConvergesOnStableTraffic) {
  // A priori ship adaptation: steady traffic drives the score toward 1.
  CongruenceTracker tracker(0.2);
  for (int i = 0; i < 100; ++i) tracker.Observe(3);
  EXPECT_EQ(tracker.predicted(), 3u);
  EXPECT_GT(tracker.score(), 0.9);
}

TEST(Dcp, CongruenceAdaptsToTrafficShift) {
  CongruenceTracker tracker(0.3);
  for (int i = 0; i < 50; ++i) tracker.Observe(1);
  EXPECT_EQ(tracker.predicted(), 1u);
  for (int i = 0; i < 50; ++i) tracker.Observe(2);
  EXPECT_EQ(tracker.predicted(), 2u);
}

TEST(Dcp, CongruenceLowUnderMixedTraffic) {
  CongruenceTracker tracker(0.2);
  for (int i = 0; i < 200; ++i) tracker.Observe(i % 4);
  EXPECT_LT(tracker.score(), 0.6);
}

// ---- SRP ----

TEST(Srp, ReputationStartsNeutral) {
  ReputationSystem rep;
  EXPECT_DOUBLE_EQ(rep.ScoreOf(5), 0.5);
  EXPECT_FALSE(rep.IsExcluded(5));
}

TEST(Srp, UnfairShipsGetExcluded) {
  // Def. 2(1): unfair ships are "excluded from the community".
  ReputationSystem rep;
  for (int i = 0; i < 20; ++i) rep.ReportInteraction(7, false);
  EXPECT_TRUE(rep.IsExcluded(7));
  EXPECT_LT(rep.ScoreOf(7), 0.2);
  EXPECT_EQ(rep.excluded_count(), 1u);
}

TEST(Srp, FairShipsStay) {
  ReputationSystem rep;
  for (int i = 0; i < 20; ++i) rep.ReportInteraction(7, true);
  EXPECT_FALSE(rep.IsExcluded(7));
  EXPECT_GT(rep.ScoreOf(7), 0.9);
}

TEST(Srp, ReadmissionHasHysteresis) {
  ReputationConfig cfg;
  ReputationSystem rep(cfg);
  for (int i = 0; i < 20; ++i) rep.ReportInteraction(7, false);
  ASSERT_TRUE(rep.IsExcluded(7));
  // A few good reports are not enough (score must cross the readmission
  // threshold, not just the exclusion one).
  rep.ReportInteraction(7, true);
  EXPECT_TRUE(rep.IsExcluded(7));
  for (int i = 0; i < 10; ++i) rep.ReportInteraction(7, true);
  EXPECT_FALSE(rep.IsExcluded(7));
}

TEST(Srp, ClustersFormFromInteractions) {
  ClusterManager clusters;
  for (int i = 0; i < 5; ++i) {
    clusters.ObserveInteraction(1, 2);
    clusters.ObserveInteraction(2, 3);
    clusters.ObserveInteraction(8, 9);
  }
  const auto groups = clusters.Clusters(3.0);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<net::NodeId>{1, 2, 3}));
  EXPECT_EQ(groups[1], (std::vector<net::NodeId>{8, 9}));
}

TEST(Srp, ClustersAreTemporary) {
  // Affinities decay, so clusters dissolve without refresh (Def. 2(2):
  // temporary aggregations).
  ClusterManager clusters(0.5);
  for (int i = 0; i < 4; ++i) clusters.ObserveInteraction(1, 2);
  EXPECT_EQ(clusters.Clusters(2.0).size(), 1u);
  clusters.Decay();
  clusters.Decay();
  EXPECT_EQ(clusters.Clusters(2.0).size(), 0u);
  EXPECT_LT(clusters.AffinityBetween(1, 2), 2.0);
}

TEST(Srp, SelfInteractionIgnored) {
  ClusterManager clusters;
  clusters.ObserveInteraction(1, 1, 100.0);
  EXPECT_EQ(clusters.Clusters(1.0).size(), 0u);
}

// ---- MFP ----

TEST(Mfp, SubscribeAndPublish) {
  FeedbackBus bus;
  double last = 0;
  bus.Subscribe(FeedbackDimension::kPerNode,
                [&](const FeedbackSignal& s) { last = s.value; });
  bus.Publish({FeedbackDimension::kPerNode, 1, 0, 42.0, 0});
  EXPECT_DOUBLE_EQ(last, 42.0);
  EXPECT_EQ(bus.published(), 1u);
  EXPECT_EQ(bus.delivered(), 1u);
}

TEST(Mfp, DimensionsAreIsolated) {
  FeedbackBus bus;
  int node_signals = 0, packet_signals = 0;
  bus.Subscribe(FeedbackDimension::kPerNode,
                [&](const FeedbackSignal&) { ++node_signals; });
  bus.Subscribe(FeedbackDimension::kPerPacket,
                [&](const FeedbackSignal&) { ++packet_signals; });
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  bus.Publish({FeedbackDimension::kPerPacket, 0, 0, 1.0, 0});
  EXPECT_EQ(node_signals, 2);
  EXPECT_EQ(packet_signals, 1);
}

TEST(Mfp, DisabledDimensionSuppresses) {
  FeedbackBus bus;
  int received = 0;
  bus.Subscribe(FeedbackDimension::kPerSession,
                [&](const FeedbackSignal&) { ++received; });
  bus.EnableDimension(FeedbackDimension::kPerSession, false);
  bus.Publish({FeedbackDimension::kPerSession, 0, 0, 1.0, 0});
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.suppressed(), 1u);
  bus.EnableDimension(FeedbackDimension::kPerSession, true);
  bus.Publish({FeedbackDimension::kPerSession, 0, 0, 1.0, 0});
  EXPECT_EQ(received, 1);
}

TEST(Mfp, UnsubscribeStopsDelivery) {
  FeedbackBus bus;
  int received = 0;
  const auto id = bus.Subscribe(FeedbackDimension::kPerNode,
                                [&](const FeedbackSignal&) { ++received; });
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  bus.Unsubscribe(id);
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  EXPECT_EQ(received, 1);
}

TEST(Mfp, AllDimensionsHaveNames) {
  for (int d = 0; d < static_cast<int>(FeedbackDimension::kDimensionCount);
       ++d) {
    EXPECT_NE(FeedbackDimensionName(static_cast<FeedbackDimension>(d)), "?");
  }
}

TEST(Mfp, AimdIncreasesAndDecreases) {
  AimdRate rate(1.0, 0.1, 2.0, 0.1, 0.5);
  rate.OnSuccess();
  EXPECT_DOUBLE_EQ(rate.rate(), 1.1);
  rate.OnCongestion();
  EXPECT_DOUBLE_EQ(rate.rate(), 0.55);
  for (int i = 0; i < 100; ++i) rate.OnSuccess();
  EXPECT_DOUBLE_EQ(rate.rate(), 2.0);  // capped
  for (int i = 0; i < 100; ++i) rate.OnCongestion();
  EXPECT_DOUBLE_EQ(rate.rate(), 0.1);  // floored
}

// ---- PMP policies ----

TEST(Pmp, DemandTrackerAccumulatesAndDecays) {
  DemandTracker demand(0.5);
  demand.Record(1, node::FirstLevelRole::kFusion, 10.0);
  demand.Record(1, node::FirstLevelRole::kFusion, 5.0);
  EXPECT_DOUBLE_EQ(demand.DemandAt(1, node::FirstLevelRole::kFusion), 15.0);
  demand.Decay();
  EXPECT_DOUBLE_EQ(demand.DemandAt(1, node::FirstLevelRole::kFusion), 7.5);
  EXPECT_DOUBLE_EQ(demand.TotalDemand(node::FirstLevelRole::kFusion), 7.5);
}

TEST(Pmp, HottestNodeWins) {
  DemandTracker demand;
  demand.Record(1, node::FirstLevelRole::kCaching, 3.0);
  demand.Record(2, node::FirstLevelRole::kCaching, 9.0);
  demand.Record(3, node::FirstLevelRole::kFusion, 99.0);
  EXPECT_EQ(demand.HottestNode(node::FirstLevelRole::kCaching), 2u);
  EXPECT_EQ(demand.HottestNode(node::FirstLevelRole::kDelegation),
            net::kInvalidNode);
}

TEST(Pmp, HorizontalMigratesTowardHotspot) {
  HorizontalWanderer::Config cfg;
  cfg.hysteresis = 1.5;
  cfg.min_demand = 1.0;
  HorizontalWanderer wanderer(cfg);
  DemandTracker demand;
  demand.Record(0, node::FirstLevelRole::kFusion, 2.0);   // host
  demand.Record(5, node::FirstLevelRole::kFusion, 10.0);  // hotspot
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  const auto migrations = wanderer.Decide(placement, roles, demand);
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].from, 0u);
  EXPECT_EQ(migrations[0].to, 5u);
}

TEST(Pmp, HysteresisPreventsFlapping) {
  HorizontalWanderer::Config cfg;
  cfg.hysteresis = 2.0;
  HorizontalWanderer wanderer(cfg);
  DemandTracker demand;
  demand.Record(0, node::FirstLevelRole::kFusion, 6.0);
  demand.Record(5, node::FirstLevelRole::kFusion, 10.0);  // < 2x host
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  EXPECT_TRUE(wanderer.Decide(placement, roles, demand).empty());
}

TEST(Pmp, MinDemandGatesMigration) {
  HorizontalWanderer::Config cfg;
  cfg.min_demand = 5.0;
  HorizontalWanderer wanderer(cfg);
  DemandTracker demand;
  demand.Record(5, node::FirstLevelRole::kFusion, 2.0);  // hot but tiny
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  EXPECT_TRUE(wanderer.Decide(placement, roles, demand).empty());
}

TEST(Pmp, FunctionAlreadyAtHotspotStays) {
  HorizontalWanderer wanderer;
  DemandTracker demand;
  demand.Record(0, node::FirstLevelRole::kFusion, 10.0);
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  EXPECT_TRUE(wanderer.Decide(placement, roles, demand).empty());
}

TEST(Pmp, VerticalSpawnsAboveThreshold) {
  VerticalWanderer::Config cfg;
  cfg.spawn_threshold = 5.0;
  cfg.min_members = 2;
  VerticalWanderer wanderer(cfg);
  std::map<net::NodeId, std::map<node::SecondLevelClass, double>> activity;
  activity[1][node::SecondLevelClass::kFiltering] = 4.0;
  activity[2][node::SecondLevelClass::kFiltering] = 3.0;
  activity[3][node::SecondLevelClass::kBoosting] = 1.0;  // below threshold
  const auto decisions = wanderer.Decide(activity);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].cls, node::SecondLevelClass::kFiltering);
  EXPECT_EQ(decisions[0].members, (std::vector<net::NodeId>{1, 2}));
}

TEST(Pmp, VerticalNeedsEnoughMembers) {
  VerticalWanderer::Config cfg;
  cfg.spawn_threshold = 1.0;
  cfg.min_members = 2;
  VerticalWanderer wanderer(cfg);
  std::map<net::NodeId, std::map<node::SecondLevelClass, double>> activity;
  activity[1][node::SecondLevelClass::kTranscoding] = 50.0;  // only one node
  EXPECT_TRUE(wanderer.Decide(activity).empty());
}

TEST(Pmp, ResonanceDetectsCoOccurrence) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 3;
  cfg.min_jaccard = 0.5;
  ResonanceDetector detector(cfg);
  // Facts 100 and 200 co-occur on ships 1,2,3; fact 300 only on ship 9.
  for (net::NodeId ship : {1u, 2u, 3u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  detector.Observe(9, 300);
  const auto groups = detector.DetectAndReset();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<FactKey>{100, 200}));
}

TEST(Pmp, ResonanceNeedsSupport) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 3;
  ResonanceDetector detector(cfg);
  for (net::NodeId ship : {1u, 2u}) {  // only 2 < min_support
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  EXPECT_TRUE(detector.DetectAndReset().empty());
}

TEST(Pmp, ResonanceNeedsOverlap) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 2;
  cfg.min_jaccard = 0.9;
  ResonanceDetector detector(cfg);
  // Facts overlap on 2 ships but each also appears on 3 disjoint others:
  // jaccard = 2/8 < 0.9.
  for (net::NodeId ship : {1u, 2u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  for (net::NodeId ship : {3u, 4u, 5u}) detector.Observe(ship, 100);
  for (net::NodeId ship : {6u, 7u, 8u}) detector.Observe(ship, 200);
  EXPECT_TRUE(detector.DetectAndReset().empty());
}

TEST(Pmp, ResonanceMergesOverlappingGroups) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 2;
  cfg.min_jaccard = 0.5;
  ResonanceDetector detector(cfg);
  for (net::NodeId ship : {1u, 2u, 3u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
    detector.Observe(ship, 300);
  }
  const auto groups = detector.DetectAndReset();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<FactKey>{100, 200, 300}));
}

TEST(Pmp, ResonanceResetsBetweenWindows) {
  ResonanceDetector detector;
  for (net::NodeId ship : {1u, 2u, 3u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  EXPECT_FALSE(detector.DetectAndReset().empty());
  EXPECT_TRUE(detector.DetectAndReset().empty());  // window cleared
}

// The map/set detector the holder-bit rows replaced, kept as the reference:
// every key pair compared by set lookups, pairs merged by union-find, groups
// sorted.
std::vector<std::vector<FactKey>> ReferenceResonance(
    const std::vector<std::pair<net::NodeId, FactKey>>& observed,
    const ResonanceDetector::Config& config) {
  std::map<FactKey, std::set<net::NodeId>> holders;
  for (const auto& [ship, key] : observed) holders[key].insert(ship);
  std::vector<std::pair<FactKey, FactKey>> resonant_pairs;
  for (auto a = holders.begin(); a != holders.end(); ++a) {
    for (auto b = std::next(a); b != holders.end(); ++b) {
      std::size_t both = 0;
      for (net::NodeId ship : a->second) both += b->second.count(ship);
      const std::size_t either = a->second.size() + b->second.size() - both;
      if (both >= config.min_support && either > 0 &&
          static_cast<double>(both) / static_cast<double>(either) >=
              config.min_jaccard) {
        resonant_pairs.emplace_back(a->first, b->first);
      }
    }
  }
  std::map<FactKey, FactKey> parent;
  std::function<FactKey(FactKey)> find = [&](FactKey x) -> FactKey {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    const FactKey root = find(it->second);
    parent[x] = root;
    return root;
  };
  for (const auto& [a, b] : resonant_pairs) {
    parent.try_emplace(a, a);
    parent.try_emplace(b, b);
    const FactKey ra = find(a);
    const FactKey rb = find(b);
    if (ra != rb) parent[ra] = rb;
  }
  std::map<FactKey, std::vector<FactKey>> groups;
  for (const auto& [key, p] : parent) groups[find(key)].push_back(key);
  std::vector<std::vector<FactKey>> out;
  for (auto& [root, members] : groups) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Pmp, ResonanceMatchesMapSetReferenceOnRandomStreams) {
  Rng rng(2024);
  std::size_t groups_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ResonanceDetector::Config config;
    config.min_support = 1 + rng.Index(6);
    config.min_jaccard = rng.Uniform(0.1, 0.9);
    // One detector across several windows, so reused buffers are covered.
    ResonanceDetector detector(config);
    for (int window = 0; window < 3; ++window) {
      // Sparse ship ids (some above 64 and 128, so rows span words) and a
      // small key pool, observed in random order with duplicates. Each ship
      // holds a key with a per-key probability, so pairs correlate.
      const std::size_t ships = 1 + rng.Index(150);
      const std::size_t keys = 1 + rng.Index(24);
      std::vector<double> share(keys);
      for (double& p : share) p = rng.Uniform(0.0, 1.0);
      std::vector<std::pair<net::NodeId, FactKey>> observed;
      for (std::size_t s = 0; s < ships; ++s) {
        const auto ship = static_cast<net::NodeId>(rng.Index(400));
        for (std::size_t k = 0; k < keys; ++k) {
          if (!rng.Bernoulli(share[k])) continue;
          const FactKey key = 1000 + k * 7919;
          observed.emplace_back(ship, key);
          if (rng.Bernoulli(0.1)) observed.emplace_back(ship, key);
        }
      }
      for (std::size_t i = observed.size(); i > 1; --i) {
        std::swap(observed[i - 1], observed[rng.Index(i)]);
      }
      for (const auto& [ship, key] : observed) detector.Observe(ship, key);
      const auto expected = ReferenceResonance(observed, config);
      groups_seen += expected.size();
      ASSERT_EQ(detector.DetectAndReset(), expected)
          << "trial " << trial << " window " << window;
    }
  }
  EXPECT_GT(groups_seen, 100u);  // the streams do produce resonance
}

// ---- Overlays ----

TEST(Overlay, SpawnBuildsFullMesh) {
  net::Topology topo = net::MakeLine(5);
  OverlayManager manager(topo);
  auto id = manager.Spawn("test", {0, 2, 4});
  ASSERT_TRUE(id.ok());
  const Overlay* overlay = manager.Find(*id);
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(overlay->links.size(), 3u);  // 3 choose 2
  // Virtual link 0-4 rides the full physical line.
  for (const auto& link : overlay->links) {
    if (link.a == 0 && link.b == 4) {
      EXPECT_EQ(link.physical_path.size(), 5u);
    }
  }
}

TEST(Overlay, QosBoundFiltersSlowLinks) {
  net::LinkConfig cfg;
  cfg.latency = 10 * sim::kMillisecond;
  net::Topology topo = net::MakeLine(5, cfg);
  OverlayManager manager(topo);
  // 0-4 needs 40 ms; a 25 ms bound kills the long mesh edges but keeps the
  // overlay connected through shorter ones.
  auto id = manager.Spawn("qos", {0, 2, 4}, 25 * sim::kMillisecond);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const Overlay* overlay = manager.Find(*id);
  EXPECT_EQ(overlay->links.size(), 2u);  // 0-2 and 2-4 only
}

TEST(Overlay, ImpossibleQosBoundFails) {
  net::LinkConfig cfg;
  cfg.latency = 10 * sim::kMillisecond;
  net::Topology topo = net::MakeLine(5, cfg);
  OverlayManager manager(topo);
  EXPECT_FALSE(manager.Spawn("impossible", {0, 4}, sim::kMillisecond).ok());
}

TEST(Overlay, NeedsTwoMembers) {
  net::Topology topo = net::MakeLine(3);
  OverlayManager manager(topo);
  EXPECT_FALSE(manager.Spawn("solo", {1}).ok());
}

TEST(Overlay, RemoveWorks) {
  net::Topology topo = net::MakeLine(3);
  OverlayManager manager(topo);
  auto id = manager.Spawn("x", {0, 2});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(manager.Remove(*id).ok());
  EXPECT_EQ(manager.Find(*id), nullptr);
  EXPECT_FALSE(manager.Remove(*id).ok());
}

TEST(Overlay, RefreshRepairsAfterFailure) {
  net::Topology topo = net::MakeRing(6);
  OverlayManager manager(topo);
  auto id = manager.Spawn("ring-overlay", {0, 3});
  ASSERT_TRUE(id.ok());
  const auto original_path = manager.Find(*id)->links[0].physical_path;
  // Break the first hop of the pinned path.
  const auto link = topo.FindLink(original_path[0], original_path[1]);
  ASSERT_TRUE(link.has_value());
  topo.SetLinkUp(*link, false);
  EXPECT_EQ(manager.RefreshPaths(), 1u);
  const auto& repaired = manager.Find(*id)->links[0];
  ASSERT_GE(repaired.physical_path.size(), 2u);
  EXPECT_NE(repaired.physical_path, original_path);
}

TEST(Overlay, StretchIsAtLeastOne) {
  net::Topology topo = net::MakeRing(8);
  OverlayManager manager(topo);
  auto id = manager.Spawn("o", {0, 2, 4});
  ASSERT_TRUE(id.ok());
  EXPECT_GE(manager.AverageStretch(*id), 1.0);
}

}  // namespace
}  // namespace viator::wli
