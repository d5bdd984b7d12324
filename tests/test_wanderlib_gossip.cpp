// Tests for the wanderlib standard programs, the gossip dissemination
// service and the function-usage ledger.
#include <gtest/gtest.h>

#include "core/ledger.h"
#include "core/wanderlib.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "services/gossip.h"
#include "sim/simulator.h"
#include "vm/verifier.h"

namespace viator {
namespace {

struct LibFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Topology topology = net::MakeRing(8);
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> wn;

  void Build() {
    wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                                 88);
    wn->PopulateAllNodes();
  }
};

// ---- wanderlib programs assemble, verify, and have stable digests ----

TEST(Wanderlib, AllProgramsVerify) {
  EXPECT_TRUE(wli::wanderlib::HeartbeatProbe(1, 2).ok());
  EXPECT_TRUE(wli::wanderlib::FactPlanter().ok());
  EXPECT_TRUE(wli::wanderlib::RoleBalancer(1024).ok());
  EXPECT_TRUE(wli::wanderlib::PayloadChecksum(9).ok());
  EXPECT_TRUE(wli::wanderlib::NeighborCensus(7).ok());
}

TEST(Wanderlib, DigestsAreStable) {
  const auto a = wli::wanderlib::PayloadChecksum(9);
  const auto b = wli::wanderlib::PayloadChecksum(9);
  const auto c = wli::wanderlib::PayloadChecksum(10);
  EXPECT_EQ(a->digest(), b->digest());
  EXPECT_NE(a->digest(), c->digest());
}

TEST_F(LibFixture, FactPlanterPlantsPairs) {
  Build();
  auto planter = wli::wanderlib::FactPlanter();
  ASSERT_TRUE(wn->PublishProgram(*planter, 0).ok());
  wli::Shuttle s = wli::Shuttle::Data(0, 3, {100, 11, 200, 22, 300, 33}, 1);
  s.code_digest = planter->digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->ship(3)->facts().Get(100), std::optional<std::int64_t>(11));
  EXPECT_EQ(wn->ship(3)->facts().Get(200), std::optional<std::int64_t>(22));
  EXPECT_EQ(wn->ship(3)->facts().Get(300), std::optional<std::int64_t>(33));
}

TEST_F(LibFixture, ChecksumFoldsPayloadViaSubroutine) {
  Build();
  auto checksum = wli::wanderlib::PayloadChecksum(555);
  ASSERT_TRUE(wn->PublishProgram(*checksum, 0).ok());
  wli::Shuttle s = wli::Shuttle::Data(0, 2, {1, 2, 3}, 1);
  s.code_digest = checksum->digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  // acc = ((7*31+1)*31+2)*31 + 3 = 209563.
  EXPECT_EQ(wn->ship(2)->facts().Get(555),
            std::optional<std::int64_t>(209563));
  EXPECT_EQ(wn->ship(2)->last_emissions(),
            (std::vector<std::int64_t>{209563}));
}

TEST_F(LibFixture, RoleBalancerSwitchesOnIdleHost) {
  Build();
  (void)wn->ship(4)->SwitchRole(node::FirstLevelRole::kFusion,
                                node::SwitchMechanism::kResidentSoftware);
  auto balancer = wli::wanderlib::RoleBalancer(1 << 20);
  ASSERT_TRUE(wn->PublishProgram(*balancer, 0).ok());
  wli::Shuttle s = wli::Shuttle::Data(0, 4, {0}, 1);
  s.code_digest = balancer->digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  // Idle host (no backlog): balancer selects caching.
  EXPECT_EQ(wn->ship(4)->os().current_role(),
            node::FirstLevelRole::kCaching);
}

TEST_F(LibFixture, RoleBalancerShedsLoadOnCongestedHost) {
  // Custom net: fast ingress 0-1, slow egress 1-2 so ship 1 builds backlog.
  net::LinkConfig fast;
  net::LinkConfig slow;
  slow.bandwidth_bps = 64 * 1024;
  topology = net::Topology();
  topology.AddNodes(3);
  topology.AddLink(0, 1, fast);
  topology.AddLink(1, 2, slow);
  Build();
  // Fill ship 1's egress queue.
  for (int i = 0; i < 10; ++i) {
    std::vector<std::int64_t> bulk(256, i);
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(1, 2, bulk, 1)).ok());
  }
  ASSERT_GT(wn->fabric().QueuedBytesAt(1), 1024u);
  auto balancer = wli::wanderlib::RoleBalancer(/*threshold=*/1024);
  ASSERT_TRUE(wn->PublishProgram(*balancer, 0).ok());
  wli::Shuttle s = wli::Shuttle::Data(0, 1, {0}, 9);
  s.code_digest = balancer->digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  // Step until the balancer shuttle has executed (before queues drain).
  while (wn->ship(1)->code_executions() == 0 && simulator.Step()) {
  }
  EXPECT_EQ(wn->ship(1)->os().current_role(), node::FirstLevelRole::kFusion);
  simulator.RunAll();
}

TEST_F(LibFixture, NeighborCensusStoresDegree) {
  Build();
  auto census = wli::wanderlib::NeighborCensus(777);
  ASSERT_TRUE(wn->PublishProgram(*census, 0).ok());
  wli::Shuttle s = wli::Shuttle::Data(0, 5, {0}, 1);
  s.code_digest = census->digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->ship(5)->facts().Get(777),
            std::optional<std::int64_t>(2));  // ring degree
}

// ---- Gossip ----

TEST_F(LibFixture, GossipSpreadsAFactToFullCoverage) {
  Build();
  // Seed one heavy fact on one ship.
  wn->ship(0)->facts().Touch(4242, 99, 10.0, 0);
  services::GossipService::Config cfg;
  cfg.interval = 100 * sim::kMillisecond;
  cfg.fanout = 2;
  services::GossipService gossip(*wn, cfg, Rng(3));
  EXPECT_DOUBLE_EQ(gossip.Coverage(4242), 1.0 / 8.0);
  gossip.Start(5 * sim::kSecond);
  simulator.RunUntil(5 * sim::kSecond);
  EXPECT_DOUBLE_EQ(gossip.Coverage(4242), 1.0);
  EXPECT_GT(gossip.shuttles_sent(), 0u);
  // Every gossip shuttle is a pooled shell, and after the first rounds the
  // shells consumed by receivers come back for the next senders.
  EXPECT_GE(wn->shuttle_pool().acquired(), gossip.shuttles_sent());
  EXPECT_GT(wn->shuttle_pool().reused(), 0u);
  // Every ship converged on the same value.
  wn->ForEachShip([](wli::Ship& ship) {
    EXPECT_EQ(ship.facts().Get(4242), std::optional<std::int64_t>(99));
  });
}

TEST_F(LibFixture, GossipKeepsFactsAliveAcrossSweeps) {
  config.fact_config.frequency_threshold_hz = 1.0;
  config.fact_config.window = sim::kSecond;
  config.pulse_interval = sim::kSecond;
  Build();
  wn->ship(0)->facts().Touch(7, 1, 10.0, 0);
  services::GossipService::Config cfg;
  cfg.interval = 200 * sim::kMillisecond;  // 5 Hz exchange
  services::GossipService gossip(*wn, cfg, Rng(3));
  gossip.Start(6 * sim::kSecond);
  wn->StartPulse(6 * sim::kSecond);
  simulator.RunUntil(6 * sim::kSecond);
  // Despite 1 Hz threshold sweeps, gossip refresh keeps the fact alive on
  // most of the ring.
  EXPECT_GT(gossip.Coverage(7), 0.5);
}

TEST_F(LibFixture, GossipWithoutFactsSendsNothing) {
  Build();
  services::GossipService gossip(*wn, {}, Rng(3));
  gossip.RunRound();
  EXPECT_EQ(gossip.shuttles_sent(), 0u);
}

// ---- Function usage ledger ----

TEST(Ledger, TracksEpisodesAndUses) {
  wli::FunctionUsageLedger ledger;
  ledger.RecordPlacement(1, 5, 0);
  ledger.RecordUse(1);
  ledger.RecordUse(1);
  ledger.RecordPlacement(1, 8, 10 * sim::kSecond);
  ledger.RecordUse(1);
  ASSERT_NE(ledger.EpisodesOf(1), nullptr);
  ASSERT_EQ(ledger.EpisodesOf(1)->size(), 2u);
  EXPECT_EQ(ledger.VisitCount(1), 2u);
  EXPECT_EQ(ledger.TotalUses(1), 3u);
  EXPECT_EQ(ledger.MostUsedHost(1), 5u);
  EXPECT_EQ((*ledger.EpisodesOf(1))[0].to, 10 * sim::kSecond);
  EXPECT_EQ((*ledger.EpisodesOf(1))[1].to, 0u);  // still open
}

TEST(Ledger, MeanDwellCountsOpenEpisode) {
  wli::FunctionUsageLedger ledger;
  ledger.RecordPlacement(1, 0, 0);
  ledger.RecordPlacement(1, 1, 4 * sim::kSecond);
  // Episodes: [0,4s] closed, [4s, now=10s) open -> mean (4+6)/2 = 5 s.
  EXPECT_EQ(ledger.MeanDwell(1, 10 * sim::kSecond), 5 * sim::kSecond);
}

TEST(Ledger, RepeatedPlacementAtSameHostIsIdempotent) {
  wli::FunctionUsageLedger ledger;
  ledger.RecordPlacement(1, 3, 0);
  ledger.RecordPlacement(1, 3, sim::kSecond);
  EXPECT_EQ(ledger.VisitCount(1), 1u);
}

TEST(Ledger, RemovalClosesEpisode) {
  wli::FunctionUsageLedger ledger;
  ledger.RecordPlacement(1, 3, 0);
  ledger.RecordRemoval(1, 2 * sim::kSecond);
  EXPECT_EQ((*ledger.EpisodesOf(1))[0].to, 2 * sim::kSecond);
  // Use after removal is a no-op on the closed episode count... still
  // recorded against the last episode by design (late accounting).
  EXPECT_EQ(ledger.MeanDwell(1, 10 * sim::kSecond), 2 * sim::kSecond);
}

TEST_F(LibFixture, NetworkLedgerRecordsMigrationsAndUses) {
  Build();
  wli::NetFunction fn;
  fn.name = "tracked";
  fn.role = node::FirstLevelRole::kFusion;
  const auto id = wn->DeployFunction(1, fn);
  // Serve some traffic at host 1 (data shuttles to the fusion ship).
  for (int i = 0; i < 5; ++i) {
    (void)wn->Inject(wli::Shuttle::Data(0, 1, {i}, 1));
  }
  simulator.RunAll();
  EXPECT_EQ(wn->ledger().TotalUses(id), 5u);
  // Migrate and serve more traffic at the new host.
  ASSERT_TRUE(wn->MigrateFunction(id, 4).ok());
  simulator.RunAll();
  for (int i = 0; i < 3; ++i) {
    (void)wn->Inject(wli::Shuttle::Data(0, 4, {i}, 1));
  }
  simulator.RunAll();
  EXPECT_EQ(wn->ledger().VisitCount(id), 2u);
  EXPECT_EQ(wn->ledger().TotalUses(id), 8u);
  EXPECT_EQ(wn->ledger().MostUsedHost(id), 1u);
  const auto by_host = wn->ledger().UsageByHost();
  EXPECT_EQ(by_host.at(1), 5u);
  EXPECT_EQ(by_host.at(4), 3u);
}

TEST_F(LibFixture, LedgerRecordsExpiryAsRemoval) {
  Build();
  wli::NetFunction fn;
  fn.name = "mortal";
  fn.role = node::FirstLevelRole::kCaching;
  fn.fact_keys = {404};  // fact never exists
  const auto id = wn->DeployFunction(2, fn);
  simulator.RunUntil(sim::kSecond);
  wn->Pulse();
  ASSERT_NE(wn->ledger().EpisodesOf(id), nullptr);
  EXPECT_EQ(wn->ledger().EpisodesOf(id)->back().to, sim::kSecond);
}

}  // namespace
}  // namespace viator
